"""The tasklet scheduler: runs a DPU program's generators to completion.

Execution proceeds in *phases* separated by barriers: within a phase each
live tasklet runs until it either yields (reaching a barrier) or returns.
All tasklets that yielded are resumed together in the next phase, which
gives exactly the semantics of a full-width ``barrier_wait`` — the only
synchronization primitive the PrIM kernels use.

The scheduler is deterministic (tasklet order 0..N-1 inside a phase),
which keeps results reproducible; SPMD kernels partition data disjointly
so ordering cannot change results, and cross-tasklet reductions happen
at barriers.

Programs with a tasklet-vectorized form (``DpuProgram.vector_kernel``)
run all tasklets of a DPU in one numpy pass instead; the generators
remain the oracle that form is tested against and the fallback when it
raises.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.config import MAX_TASKLETS
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu, DpuRunStats
from repro.sdk.kernel import (
    BARRIER,
    DpuProgram,
    DpuSharedState,
    TaskletContext,
    VectorRun,
)

#: Safety valve against kernels that never terminate.
MAX_PHASES = 1_000_000

#: Whether :func:`run_program` may use vectorized forms (see
#: :func:`generator_only`).
_vector_kernels = True


def _check_width(program: DpuProgram) -> int:
    nr_tasklets = program.nr_tasklets
    if not 0 < nr_tasklets <= MAX_TASKLETS:
        raise DpuFaultError(
            f"program {program.name!r} requests {nr_tasklets} tasklets, "
            f"hardware supports 1..{MAX_TASKLETS}"
        )
    return nr_tasklets


def run_program(program: DpuProgram, dpu: Dpu) -> DpuRunStats:
    """Execute ``program`` on ``dpu`` functionally; returns run statistics.

    Uses the program's tasklet-vectorized form when it has one (and
    :func:`generator_only` is not in force).  If that form raises it
    has committed nothing, so the generators rerun on the untouched DPU
    and give exactly the oracle's outcome, error included.
    """
    if dpu.program is not program:
        raise DpuFaultError(
            f"DPU r{dpu.rank_index}.d{dpu.dpu_index} does not have "
            f"{program.name!r} loaded"
        )
    if _vector_kernels and program.vector_kernel is not None:
        try:
            return run_vectorized(program, dpu)
        except Exception:
            # Whatever the form tripped on, the generators decide the
            # outcome; the oracle test keeps valid inputs off this path.
            pass
    return run_generators(program, dpu)


def run_vectorized(program: DpuProgram, dpu: Dpu) -> DpuRunStats:
    """Run ``program``'s vectorized form; stores commit only on return."""
    run = VectorRun(dpu, _check_width(program))
    program.vector_kernel(run)
    return run.commit()


@contextmanager
def generator_only() -> Iterator[None]:
    """Run every program as generators inside the block (ablation arm)."""
    global _vector_kernels
    saved, _vector_kernels = _vector_kernels, False
    try:
        yield
    finally:
        _vector_kernels = saved


def run_generators(program: DpuProgram, dpu: Dpu) -> DpuRunStats:
    """Run ``program``'s per-tasklet generators: the reference semantics."""
    nr_tasklets = _check_width(program)
    shared = DpuSharedState(dpu, nr_tasklets)
    contexts = [TaskletContext(shared, t) for t in range(nr_tasklets)]
    generators: List[Optional[object]] = []
    for ctx in contexts:
        gen = program.kernel(ctx)
        if not inspect.isgenerator(gen):
            raise DpuFaultError(
                f"kernel of {program.name!r} must be a generator function "
                "(use 'yield ctx.barrier()' or end with 'return; yield')"
            )
        generators.append(gen)

    live = list(range(nr_tasklets))
    phases = 0
    while live:
        phases += 1
        if phases > MAX_PHASES:
            raise DpuFaultError(
                f"program {program.name!r} exceeded {MAX_PHASES} barrier phases"
            )
        still_live = []
        for t in live:
            gen = generators[t]
            try:
                token = next(gen)
            except StopIteration:
                generators[t] = None
                continue
            if token is not BARRIER:
                raise DpuFaultError(
                    f"tasklet {t} of {program.name!r} yielded a non-barrier "
                    f"value {token!r}"
                )
            still_live.append(t)
        live = still_live

    return DpuRunStats(
        tasklet_instructions=[ctx.instructions for ctx in contexts],
        dma_ops=shared.dma_ops,
        dma_bytes=shared.dma_bytes,
    )

