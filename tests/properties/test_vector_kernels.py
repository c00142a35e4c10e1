"""Tasklet-vectorized kernels vs the generator oracle, DPU by DPU.

Each of the five apps with a ``vector_kernel`` runs end to end on small
random inputs.  Every launch of every DPU is intercepted: a twin DPU
with identical state (MRAM, symbols, an armed dirty log) runs the
per-tasklet generators while the real DPU runs the vectorized form, and
everything either leaves behind must be identical: MRAM bytes, host
symbols, per-tasklet instructions, DMA ops and bytes, and the dirty log
in order.  The program is swapped for a subclass with a random tasklet
count, so some tasklets get empty ranges and wide launches overflow the
WRAM heap (then both forms must fault).
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.prim.bfs import BfsProgram, BreadthFirstSearch
from repro.apps.prim.bs import BinarySearch, BsProgram
from repro.apps.prim.scan_ssa import ScanSsa
from repro.apps.prim.sel import Select
from repro.apps.prim.ts import TimeSeries
from repro.config import small_machine
from repro.core import VPim
from repro.driver import driver
from repro.hardware.dpu import Dpu
from repro.sdk.runtime import run_generators, run_program, run_vectorized

#: Element counts: mostly a few per tasklet, sometimes enough for
#: multi-block DMA (2 KB blocks) per tasklet.
SIZES = st.one_of(st.integers(1, 400), st.integers(400, 1 << 14))

#: ``name -> build(draw, nr_dpus, seed)``: the app on small random sizes.
APPS = {
    "BFS": lambda draw, nr_dpus, seed: BreadthFirstSearch(
        nr_dpus, n_vertices=draw(st.integers(1, 600)),
        avg_degree=draw(st.integers(1, 4)), seed=seed),
    # Includes fewer elements than DPUs: some slices are empty.
    "BS": lambda draw, nr_dpus, seed: BinarySearch(
        nr_dpus, n_elements=draw(st.integers(1, 1 << 13)),
        n_queries=draw(st.integers(1, 1200)), seed=seed),
    "TS": lambda draw, nr_dpus, seed: TimeSeries(
        nr_dpus, n_points=draw(st.integers(40, 4000)),
        query_len=draw(st.integers(1, 16)), seed=seed),
    "SCAN-SSA": lambda draw, nr_dpus, seed: ScanSsa(
        nr_dpus, n_elements=draw(SIZES), seed=seed),
    "SEL": lambda draw, nr_dpus, seed: Select(
        nr_dpus, n_elements=draw(SIZES), seed=seed),
}


def twin_of(dpu: Dpu, program) -> Dpu:
    twin = Dpu(dpu.rank_index, dpu.dpu_index)
    twin.load_program(program, program.binary_size, program.symbols)
    twin.mram.load_segments(dpu.mram.snapshot_segments())
    twin.symbols = {name: bytearray(buf) for name, buf in dpu.symbols.items()}
    return twin


def assert_same_state(dpu: Dpu, twin: Dpu) -> None:
    assert dpu.symbols == twin.symbols
    assert dpu.dirty_log == twin.dirty_log
    mine, theirs = dpu.mram.snapshot_segments(), twin.mram.snapshot_segments()
    assert mine.keys() == theirs.keys()
    for seg in mine:
        assert np.array_equal(mine[seg], theirs[seg]), f"MRAM segment {seg}"


class OracleCheck:
    """Stands in for ``run_program`` in the driver; compares both forms."""

    def __init__(self, nr_tasklets: int) -> None:
        self.nr_tasklets = nr_tasklets
        self.launches = 0
        self.faults = 0
        #: The generators' error, when a launch faulted.
        self.oracle_error = None

    def __call__(self, program, dpu):
        narrowed = type(program)
        program = type(f"{narrowed.__name__}x{self.nr_tasklets}", (narrowed,),
                       {"nr_tasklets": self.nr_tasklets})()
        dpu.dirty_log = []
        twin = twin_of(dpu, program)
        twin.dirty_log = []
        self.launches += 1
        try:
            expected = run_generators(program, twin)
        except Exception as oracle_error:
            self.faults += 1
            self.oracle_error = oracle_error
            try:
                run_vectorized(program, dpu)
            except Exception:
                raise oracle_error
            raise AssertionError(
                f"generators raised {oracle_error!r}, vectorized form did not")
        stats = run_vectorized(program, dpu)
        assert stats == expected
        assert_same_state(dpu, twin)
        dpu.dirty_log = None
        return stats


def run_checked(app, nr_tasklets: int) -> OracleCheck:
    """Run ``app`` on one 4-DPU rank with every launch oracle-checked."""
    check = OracleCheck(nr_tasklets)
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
    with mock.patch.object(driver, "run_program", check):
        try:
            report = vpim.native_session().run(app)
        except Exception as error:
            # Only the generators' own fault may end the run.
            if error is not check.oracle_error:
                raise
            assert check.faults == 1
            return check
    assert check.launches >= app.nr_dpus and check.faults == 0
    assert report.verified
    return check


def check_app(name: str, data) -> None:
    nr_dpus = data.draw(st.integers(1, 4), label="nr_dpus")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    nr_tasklets = data.draw(st.integers(1, 24), label="nr_tasklets")
    run_checked(APPS[name](data.draw, nr_dpus, seed), nr_tasklets)


@pytest.mark.parametrize("nr_tasklets, faults", [(21, 0), (22, 1)])
def test_wram_overflow_faults_both_forms(nr_tasklets, faults):
    """22 working tasklets x 3 KB overflow the 64 KB heap; 21 fit."""
    bfs = BreadthFirstSearch(1, n_vertices=22, avg_degree=2, seed=3)
    assert run_checked(bfs, nr_tasklets).faults == faults
    ts = TimeSeries(1, n_points=40, query_len=19, seed=3)
    assert run_checked(ts, nr_tasklets).faults == faults


SETTINGS = settings(max_examples=25, deadline=None)


@given(st.data())
@SETTINGS
def test_bfs_vectorized_matches_generators(data):
    check_app("BFS", data)


@given(st.data())
@SETTINGS
def test_bs_vectorized_matches_generators(data):
    check_app("BS", data)


@given(st.data())
@SETTINGS
def test_ts_vectorized_matches_generators(data):
    check_app("TS", data)


@given(st.data())
@SETTINGS
def test_scan_ssa_vectorized_matches_generators(data):
    check_app("SCAN-SSA", data)


@given(st.data())
@SETTINGS
def test_sel_vectorized_matches_generators(data):
    check_app("SEL", data)


def _bs_dpu(data, queries, r_off):
    dpu = Dpu(0, 0)
    dpu.load_program(BsProgram(), BsProgram.binary_size, BsProgram.symbols)
    q_off = len(data) * 8
    for name, value in (("n_elems", len(data)), ("n_queries", len(queries)),
                        ("q_offset", q_off), ("r_offset", r_off),
                        ("base_index", 0)):
        dpu.write_symbol(name, 0, np.array([value], np.uint32).tobytes())
    dpu.mram.write(0, np.array(data, np.int64))
    dpu.mram.write(q_off, np.array(queries, np.int64))
    return dpu


def _bfs_dpu(row_ptr):
    dpu = Dpu(0, 0)
    dpu.load_program(BfsProgram(), BfsProgram.binary_size, BfsProgram.symbols)
    n_owned = len(row_ptr) - 1
    col_off, f_off, n_off = 64, 128, 192
    dpu.write_symbol("args", 0, np.array(
        [n_owned, 0, n_owned, col_off, f_off, n_off], np.uint32).tobytes())
    dpu.mram.write(0, np.array(row_ptr, np.int32))
    dpu.mram.write(col_off, np.arange(8, dtype=np.int32) % n_owned)
    dpu.mram.write(f_off, np.packbits(np.ones(n_owned, np.uint8)))
    return dpu


@pytest.mark.parametrize("build", [
    # Unsorted slice: the range shortcut would miss queries.
    lambda: _bs_dpu([5, 1, 3, 2], [1, 2, 3, 5], r_off=64),
    # Results land on the next tasklet's query before it reads it.
    lambda: _bs_dpu([1, 2, 3, 4], [1, 2, 3, 4], r_off=40),
    # Non-monotone row pointers: edge counts of +2 and -2 sum to none.
    lambda: _bfs_dpu([0, 2, 0]),
], ids=["bs-unsorted", "bs-overlap", "bfs-non-monotone"])
def test_declined_inputs_match_generators(build):
    """Inputs a form declines still give the generators' outcome."""
    dpu, oracle = build(), build()
    dpu.dirty_log, oracle.dirty_log = [], []
    with pytest.raises(ValueError):
        run_vectorized(dpu.program, build())
    try:
        expected = run_generators(oracle.program, oracle)
    except Exception as error:
        with pytest.raises(type(error), match=re.escape(str(error))):
            run_program(dpu.program, dpu)
    else:
        assert run_program(dpu.program, dpu) == expected
        assert_same_state(dpu, oracle)
