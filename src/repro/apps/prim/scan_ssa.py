"""SCAN-SSA — Prefix sum, scan-scan-add variant (parallel primitives).

Phase 1 (DPU): every DPU computes an inclusive scan of its slice and its
slice total.  Inter-DPU (host): read the per-DPU totals (a small read —
prefetch-cache territory in vPIM), exclusive-scan them, and write each
DPU its base offset (small writes — batching territory).  Phase 2 (DPU):
add the base offset to every element.  DPU-CPU: read the scanned slices.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, TaskletContext, VectorRun, tasklet_range
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

#: Instructions per element in the scan phase.
INSTR_PER_SCAN = 4
#: Instructions per element in the add phase.
INSTR_PER_ADD = 3


class ScanSsaProgram(DpuProgram):
    """DPU side: phase 0 = local scan, phase 1 = add base offset."""

    name = "scan_ssa_dpu"
    symbols = {"n_elems": 4, "out_offset": 4, "sum_offset": 4,
               "phase": 4, "base": 8}
    nr_tasklets = 16
    binary_size = 8 * 1024

    def kernel(self, ctx: TaskletContext):
        if ctx.me() == 0:
            ctx.mem_reset()
            ctx.shared["tsums"] = [0] * ctx.nr_tasklets
        yield ctx.barrier()
        n = ctx.host_u32("n_elems")
        out_off = ctx.host_u32("out_offset")
        phase = ctx.host_u32("phase")
        rng = tasklet_range(ctx, n)
        ctx.mem_alloc(2 * 1024)

        if phase == 0:
            if len(rng):
                data = ctx.mram_read_blocks(rng.start * 4,
                                            len(rng) * 4).view(np.int32)
                local = np.cumsum(data.astype(np.int64))
                ctx.shared["tsums"][ctx.me()] = int(local[-1])
                ctx.shared[f"scan{ctx.me()}"] = local
                ctx.charge_loop(len(rng), INSTR_PER_SCAN)
            yield ctx.barrier()
            # Tasklet-level offsets, then write the scanned slice.
            if len(rng):
                prior = sum(ctx.shared["tsums"][:ctx.me()])
                scanned = (ctx.shared[f"scan{ctx.me()}"] + prior)
                ctx.mram_write_blocks(out_off + rng.start * 8,
                                      scanned.astype(np.int64))
                ctx.charge_loop(len(rng), 1)
            if ctx.me() == 0:
                total = sum(ctx.shared["tsums"])
                ctx.mram_write(ctx.host_u32("sum_offset"),
                               np.array([total], dtype=np.int64))
        else:
            if len(rng):
                base = ctx.host_i64("base")
                scanned = ctx.mram_read_blocks(
                    out_off + rng.start * 8, len(rng) * 8).view(np.int64)
                ctx.mram_write_blocks(out_off + rng.start * 8, scanned + base)
                ctx.charge_loop(len(rng), INSTR_PER_ADD)

    def vector_kernel(self, run: VectorRun) -> None:
        n = run.host_u32("n_elems")
        out_off = run.host_u32("out_offset")
        phase = run.host_u32("phase")
        starts, stops = run.tasklet_ranges(n)
        lens = (stops - starts)[stops > starts]
        k = lens.size
        run.mem_alloc(2 * 1024, run.nr_tasklets)
        if phase == 0:
            # Each tasklet's scan plus the sum of the earlier tasklets'
            # totals is the DPU-wide inclusive scan (exact in int64).
            scanned = np.cumsum(
                run.mram_read(0, n * 4).view(np.int32), dtype=np.int64)
            run.charge_dma(lens * 4)
            run.instructions[:k] += lens * (INSTR_PER_SCAN + 1)
            total = np.array([scanned[-1] if n else 0], dtype=np.int64)
            # Store order of the generators: tasklet 0's slice, its
            # total, then the other tasklets' slices.
            head = int(lens[0]) if k else 0
            if k:
                run.mram_write(out_off, scanned[:head])
            run.mram_write(run.host_u32("sum_offset"), total)
            if k > 1:
                run.mram_write(out_off + head * 8, scanned[head:],
                               pieces=lens[1:] * 8)
            run.charge_dma(lens * 8)
            run.charge_dma(8, block_bytes=None)
        elif k:
            base = run.host_i64("base")
            scanned = run.mram_read(out_off, n * 8).view(np.int64)
            run.mram_write(out_off, scanned + base, pieces=lens * 8)
            run.charge_dma(lens * 8)
            run.charge_dma(lens * 8)
            run.instructions[:k] += lens * INSTR_PER_ADD


class ScanSsa(HostApplication):
    """Host side of SCAN-SSA."""

    name = "Prefix sum (scan-scan-add)"
    short_name = "SCAN-SSA"
    domain = "Parallel primitives"

    def __init__(self, nr_dpus: int, n_elements: int = 1 << 19,
                 seed: int = 0) -> None:
        super().__init__(nr_dpus, n_elements=n_elements, seed=seed)
        self.data = random_array(n_elements, np.int32, lo=0, hi=64, seed=seed)

    def expected(self) -> np.ndarray:
        return np.cumsum(self.data.astype(np.int64))

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.data.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        out_off = max(counts) * 4
        sum_off = out_off + max(counts) * 8
        out = np.empty(self.data.size, dtype=np.int64)
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(ScanSsaProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_elems", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.broadcast_to("out_offset", 0,
                                  np.array([out_off], np.uint32))
                dpus.broadcast_to("sum_offset", 0,
                                  np.array([sum_off], np.uint32))
                dpus.broadcast_to("phase", 0, np.array([0], np.uint32))
                dpus.push_to_mram(0, [self.data[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("Inter-DPU"):
                # Small per-DPU sum read + small base writes: the message
                # traffic the prefetch cache and batching act on.
                sums = dpus.push_from_mram(sum_off, 8)
                totals = np.array([int(s.view(np.int64)[0]) for s in sums],
                                  dtype=np.int64)
                bases = np.concatenate([[0], np.cumsum(totals)[:-1]])
                dpus.push_to("base", 0,
                             [np.array([b], np.int64) for b in bases])
                dpus.broadcast_to("phase", 0, np.array([1], np.uint32))
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                for i, buf in enumerate(
                        dpus.push_from_mram(out_off, max(counts) * 8)):
                    out[bounds[i]:bounds[i + 1]] = (
                        buf[:counts[i] * 8].view(np.int64))
        return out
