"""Property-based tests (hypothesis) on core data structures and kernels."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hardware.interleave import deinterleave, interleave
from repro.hardware.memory import MemoryRegion
from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.virt.serialization import RequestHeader, RequestKind

u8_arrays = st.lists(st.integers(0, 255), min_size=1, max_size=512).map(
    lambda xs: np.array(xs, dtype=np.uint8))


# -- MemoryRegion --------------------------------------------------------------

@given(data=u8_arrays, offset=st.integers(0, 1 << 16))
@settings(max_examples=60, deadline=None)
def test_memory_write_read_roundtrip(data, offset):
    mem = MemoryRegion(1 << 20)
    mem.write(offset, data)
    assert np.array_equal(mem.read(offset, data.size), data)


@given(a=u8_arrays, b=u8_arrays, gap=st.integers(0, 256))
@settings(max_examples=60, deadline=None)
def test_memory_disjoint_writes_do_not_interfere(a, b, gap):
    mem = MemoryRegion(1 << 20)
    off_a = 1000
    off_b = off_a + a.size + gap
    mem.write(off_a, a)
    mem.write(off_b, b)
    assert np.array_equal(mem.read(off_a, a.size), a)
    assert np.array_equal(mem.read(off_b, b.size), b)


@given(data=u8_arrays, offset=st.integers(0, 1 << 14))
@settings(max_examples=40, deadline=None)
def test_memory_overwrite_is_last_writer_wins(data, offset):
    mem = MemoryRegion(1 << 20)
    mem.write(offset, np.zeros(data.size, dtype=np.uint8))
    mem.write(offset, data)
    assert np.array_equal(mem.read(offset, data.size), data)


# -- interleaving ---------------------------------------------------------------

@given(st.integers(1, 256))
@settings(max_examples=40, deadline=None)
def test_interleave_roundtrip_property(n_words):
    data = np.random.default_rng(n_words).integers(
        0, 255, n_words * 8, dtype=np.uint8).astype(np.uint8)
    assert np.array_equal(deinterleave(interleave(data)), data)


@given(st.integers(1, 128))
@settings(max_examples=40, deadline=None)
def test_interleave_is_a_permutation(n_words):
    data = np.random.default_rng(n_words).integers(
        0, 255, n_words * 8, dtype=np.uint8).astype(np.uint8)
    out = interleave(data)
    assert sorted(out.tolist()) == sorted(data.tolist())


# -- pipeline timing model ---------------------------------------------------------

@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=24))
@settings(max_examples=80, deadline=None)
def test_pipeline_time_bounds(counts):
    cm = DEFAULT_COST_MODEL
    t = cm.pipeline_time(counts)
    lower = cm.cycles_to_seconds(sum(counts))
    upper = cm.cycles_to_seconds(sum(counts) + 11 * max(counts))
    assert lower <= t <= upper


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=24))
@settings(max_examples=60, deadline=None)
def test_pipeline_time_monotone_in_work(counts):
    cm = DEFAULT_COST_MODEL
    heavier = [c + 1 for c in counts]
    assert cm.pipeline_time(heavier) >= cm.pipeline_time(counts)


# -- request header -----------------------------------------------------------------

@given(
    kind=st.sampled_from(list(RequestKind)),
    offset=st.integers(0, 1 << 40),
    count=st.integers(0, 1 << 20),
    symbol=st.text(max_size=64).filter(lambda s: "\x00" not in s),
    program=st.text(max_size=32).filter(lambda s: "\x00" not in s),
)
@settings(max_examples=80, deadline=None)
def test_header_roundtrip_property(kind, offset, count, symbol, program):
    header = RequestHeader(kind=kind, offset=offset, count=count,
                           symbol=symbol, program_name=program)
    assert RequestHeader.unpack(header.pack()) == header


# -- end-to-end kernel invariants -------------------------------------------------------

@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
       st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_reduction_invariant(values, nr_dpus):
    """RED on any data and DPU count equals the numpy sum."""
    from repro.apps.prim.red import Reduction
    from repro.config import small_machine
    from repro.core import VPim

    data = np.array(values, dtype=np.int32)
    app = Reduction(nr_dpus=nr_dpus, n_elements=data.size)
    app.data = data
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    report = vpim.native_session().run(app)
    assert report.verified


@given(st.lists(st.integers(0, 100), min_size=1, max_size=300),
       st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_scan_invariant(values, nr_dpus):
    """SCAN-SSA equals numpy cumsum for arbitrary inputs."""
    from repro.apps.prim.scan_ssa import ScanSsa
    from repro.config import small_machine
    from repro.core import VPim

    data = np.array(values, dtype=np.int32)
    app = ScanSsa(nr_dpus=nr_dpus, n_elements=data.size)
    app.data = data
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    report = vpim.native_session().run(app)
    assert report.verified


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=300))
@settings(max_examples=25, deadline=None)
def test_select_invariant(values):
    """SEL keeps exactly the even elements, in order."""
    from repro.apps.prim.sel import Select
    from repro.config import small_machine
    from repro.core import VPim

    data = np.array(values, dtype=np.int32)
    app = Select(nr_dpus=4, n_elements=data.size)
    app.data = data
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
    report = vpim.native_session().run(app)
    assert report.verified
