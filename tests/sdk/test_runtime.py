"""Tasklet scheduler: barrier phases, errors, determinism, and the
vectorized-form dispatch with its generator fallback."""

import numpy as np
import pytest

from repro.config import RankConfig
from repro.driver.driver import launch_rank, load_program_on_rank
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu, DpuState
from repro.hardware.rank import Rank
from repro.observability.metrics import MetricsRegistry
from repro.sdk.kernel import DpuProgram
from repro.sdk.runtime import generator_only, run_program


def make_dpu(program: DpuProgram) -> Dpu:
    dpu = Dpu(0, 0)
    dpu.load_program(program, program.binary_size, program.symbols)
    return dpu


class OrderProgram(DpuProgram):
    """Records execution order across two barrier phases."""

    name = "order"
    symbols = {}
    nr_tasklets = 4

    def __init__(self):
        self.log = []

    def kernel(self, ctx):
        self.log.append(("p1", ctx.me()))
        yield ctx.barrier()
        self.log.append(("p2", ctx.me()))


def test_barrier_separates_phases():
    program = OrderProgram()
    run_program(program, make_dpu(program))
    phases = [phase for phase, _ in program.log]
    assert phases == ["p1"] * 4 + ["p2"] * 4
    assert [t for _, t in program.log] == [0, 1, 2, 3] * 2


class CaptureProgram(DpuProgram):
    name = "capture"
    symbols = {}
    nr_tasklets = 3
    log = None

    def kernel(self, ctx):
        if ctx.me() == 0:
            CaptureProgram.log = []
        yield ctx.barrier()
        CaptureProgram.log.append(("a", ctx.me()))
        yield ctx.barrier()
        CaptureProgram.log.append(("b", ctx.me()))


def test_all_tasklets_finish_phase_before_next():
    program = CaptureProgram()
    run_program(program, make_dpu(program))
    log = CaptureProgram.log
    phase_a = [e for e in log if e[0] == "a"]
    phase_b = [e for e in log if e[0] == "b"]
    assert len(phase_a) == 3 and len(phase_b) == 3
    # No "b" entry may precede any "a" entry.
    assert log.index(phase_b[0]) > log.index(phase_a[-1])


class UnevenProgram(DpuProgram):
    """Tasklets finish in different phases; scheduler must not hang."""

    name = "uneven"
    symbols = {"done": 4}
    nr_tasklets = 4

    def kernel(self, ctx):
        if ctx.me() < 2:
            yield ctx.barrier()
            yield ctx.barrier()
        ctx.add_host_u32("done", 1)


def test_uneven_phase_counts_complete():
    program = UnevenProgram()
    dpu = make_dpu(program)
    run_program(program, dpu)
    assert int.from_bytes(dpu.read_symbol("done", 0, 4), "little") == 4


class StatsProgram(DpuProgram):
    name = "stats"
    symbols = {}
    nr_tasklets = 2

    def kernel(self, ctx):
        ctx.charge(ctx.me() * 10 + 5)
        ctx.mram_read(0, 64)
        yield ctx.barrier()


def test_stats_collection():
    program = StatsProgram()
    stats = run_program(program, make_dpu(program))
    assert stats.tasklet_instructions == [5, 15]
    assert stats.dma_ops == 2
    assert stats.dma_bytes == 128


class NonGeneratorProgram(DpuProgram):
    name = "nongen"
    symbols = {}
    nr_tasklets = 1

    def kernel(self, ctx):
        return 42


def test_non_generator_kernel_rejected():
    program = NonGeneratorProgram()
    with pytest.raises(DpuFaultError):
        run_program(program, make_dpu(program))


class BadYieldProgram(DpuProgram):
    name = "badyield"
    symbols = {}
    nr_tasklets = 1

    def kernel(self, ctx):
        yield "not a barrier"


def test_bad_yield_value_rejected():
    program = BadYieldProgram()
    with pytest.raises(DpuFaultError):
        run_program(program, make_dpu(program))


class TooManyTaskletsProgram(DpuProgram):
    name = "toomany"
    symbols = {}
    nr_tasklets = 25

    def kernel(self, ctx):
        yield ctx.barrier()


def test_tasklet_limit_enforced():
    program = TooManyTaskletsProgram()
    with pytest.raises(DpuFaultError):
        run_program(program, make_dpu(program))


def test_runner_checks_loaded_program():
    program = StatsProgram()
    dpu = make_dpu(CaptureProgram())
    with pytest.raises(DpuFaultError, match="does not have 'stats' loaded"):
        run_program(program, dpu)


def test_deterministic_results():
    class SumProgram(DpuProgram):
        name = "sum"
        symbols = {"total": 8}
        nr_tasklets = 8

        def kernel(self, ctx):
            data = ctx.mram_read(ctx.me() * 8, 8).view(np.int64)
            ctx.add_host_u64("total", int(data[0]))
            yield ctx.barrier()

    program = SumProgram()
    results = []
    for _ in range(3):
        dpu = make_dpu(program)
        dpu.mram.write(0, np.arange(8, dtype=np.int64))
        run_program(program, dpu)
        results.append(dpu.read_symbol("total", 0, 8))
    assert results[0] == results[1] == results[2]
    assert int.from_bytes(results[0], "little") == sum(range(8))


class FlagFaultProgram(DpuProgram):
    """Each tasklet stores its id + 1; a set ``flag`` faults the kernel.

    The vectorized form stages the same stores, then gives up on a
    flagged DPU with a different error than the generators raise.
    """

    name = "flag_fault"
    symbols = {"flag": 4}
    nr_tasklets = 4

    def kernel(self, ctx):
        if ctx.host_u32("flag"):
            raise DpuFaultError(f"tasklet {ctx.me()} hit the fault flag")
        ctx.mram_write(ctx.me() * 8, np.array([ctx.me() + 1], np.int64))
        ctx.charge(3)
        yield ctx.barrier()

    def vector_kernel(self, run):
        n = run.nr_tasklets
        run.mram_write(0, np.arange(1, n + 1, dtype=np.int64),
                       pieces=[8] * n)
        run.charge_dma(8, calls=n, block_bytes=None)
        run.instructions += 3
        if run.host_u32("flag"):
            run.set_host_u32("flag", 0)
            raise RuntimeError("vectorized form declines this DPU")


def _launch_flagged(faulty: int, nr_dpus: int = 4):
    registry = MetricsRegistry()
    rank = Rank(RankConfig(0, nr_dpus), metrics=registry)
    program = FlagFaultProgram()
    load_program_on_rank(rank, program)
    rank.dpu(faulty).write_symbol("flag", 0, (1).to_bytes(4, "little"))
    for dpu in rank.dpus:
        dpu.dirty_log = []
    with pytest.raises(Exception) as info:
        launch_rank(rank)
    return rank, registry, info.value


def test_vectorized_results_match_generators():
    program = FlagFaultProgram()
    vec, gen = make_dpu(program), make_dpu(program)
    vec.dirty_log, gen.dirty_log = [], []
    with generator_only():
        expected = run_program(program, gen)
    assert run_program(program, vec) == expected
    assert vec.dirty_log == gen.dirty_log
    assert vec.mram.read(0, 32).tobytes() == gen.mram.read(0, 32).tobytes()


def test_vectorized_failure_falls_back_to_generator_outcome():
    faulty = 2
    rank, registry, error = _launch_flagged(faulty)
    with generator_only():
        oracle, oracle_registry, oracle_error = _launch_flagged(faulty)
    assert type(error) is type(oracle_error) is DpuFaultError
    assert str(error) == str(oracle_error) == "tasklet 0 hit the fault flag"
    assert [dpu.state for dpu in rank.dpus] == [
        DpuState.DONE, DpuState.DONE, DpuState.FAULT, DpuState.IDLE]
    # The staged stores of the declined form were never committed.
    bad = rank.dpu(faulty)
    assert bad.mram.is_zero() and bad.dirty_log == []
    assert bad.read_symbol("flag", 0, 4) == (1).to_bytes(4, "little")
    assert rank.dpu(0).mram.read(0, 32).view(np.int64).tolist() == [1, 2, 3, 4]
    for dpu, twin in zip(rank.dpus, oracle.dpus):
        assert dpu.state is twin.state
        assert dpu.dirty_log == twin.dirty_log
        assert dpu.mram.read(0, 32).tobytes() == twin.mram.read(0, 32).tobytes()
        assert dpu.symbols == twin.symbols
    assert [dpu.faults for dpu in rank.dpus] == [0, 0, 1, 0]
    assert registry.value("repro_dpu_faults_total", rank=0) == 1
    assert oracle_registry.value("repro_dpu_faults_total", rank=0) == 1
