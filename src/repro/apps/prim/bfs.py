"""BFS — Breadth-First Search (graph processing).

Vertices are partitioned across DPUs (CSR pieces transferred serially,
per the PrIM implementation).  Each level is a synchronization handshake
through the host: broadcast the current frontier bitmap, launch, read
every DPU's next-frontier bitmap and OR them.  These per-level
read/write exchanges are why BFS's Inter-DPU step carries a ~3x
virtualization overhead in the paper (Section 5.2).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, TaskletContext, VectorRun, tasklet_range
from repro.sdk.transport import Transport
from repro.workloads.generators import random_graph_csr

#: Instructions per scanned edge (bit test, neighbor load, bit set).
INSTR_PER_EDGE = 6


def cpu_bfs(row_ptr: np.ndarray, col_idx: np.ndarray, source: int,
            ) -> np.ndarray:
    """CPU reference: level of each vertex, -1 if unreachable."""
    nv = row_ptr.size - 1
    levels = np.full(nv, -1, dtype=np.int32)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = row_ptr[frontier].astype(np.int64)
        sizes = (row_ptr[frontier + 1] - row_ptr[frontier]).astype(np.int64)
        total = int(sizes.sum())
        if total == 0:
            break
        csum = np.cumsum(sizes)
        flat = np.arange(total) + np.repeat(starts - (csum - sizes), sizes)
        neighbours = col_idx[flat]
        # Level-synchronous expansion: every unvisited neighbour of the
        # frontier gets this level, duplicates included (same level).
        # Dense-bitmap dedup: same sorted-unique result as np.unique but
        # without the hash pass (vertex ids are bounded by nv).
        seen = np.zeros(nv, dtype=bool)
        seen[neighbours[levels[neighbours] < 0]] = True
        fresh = np.nonzero(seen)[0]
        if fresh.size == 0:
            break
        levels[fresh] = level
        frontier = fresh
    return levels


class BfsProgram(DpuProgram):
    """DPU side: expand the frontier vertices this DPU owns."""

    name = "bfs_dpu"
    #: args = [n_vertices, first_vertex, n_owned, col_off, front_off,
    #: next_off]: one DPU_INPUT_ARGUMENTS transfer per DPU.
    symbols = {"args": 24}
    nr_tasklets = 16
    binary_size = 8 * 1024

    def kernel(self, ctx: TaskletContext):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        nv = ctx.host_u32("args", 0)
        first = ctx.host_u32("args", 1)
        n_owned = ctx.host_u32("args", 2)
        col_off = ctx.host_u32("args", 3)
        f_off = ctx.host_u32("args", 4)
        owned = tasklet_range(ctx, n_owned)
        if len(owned):
            ctx.mem_alloc(3 * 1024)
            nbytes = (nv + 7) // 8
            # All tasklets stream the same frontier bitmap and CSR index
            # arrays; readonly reads share one buffer per run (DMA is
            # still charged per tasklet, like the real per-tasklet loop).
            packed = ctx.mram_read_blocks(f_off, nbytes, readonly=True)
            row_ptr = ctx.mram_read_blocks(
                0, (n_owned + 1) * 4, readonly=True).view(np.int32)
            # Active vertices of this tasklet's share, tested directly on
            # the packed bitmap (MSB-first, as np.unpackbits lays bits
            # out) instead of unpacking all nv bits per tasklet.
            share = np.arange(owned.start, owned.stop)
            idx = first + share
            bits = (packed[idx >> 3] >> (7 - (idx & 7))) & 1
            active = share[bits == 1]
            edges = 0
            if active.size:
                starts = row_ptr[active]
                ends = row_ptr[active + 1]
                sizes = ends - starts
                total = int(sizes.sum())
                if total:
                    cols = ctx.mram_read_blocks(
                        col_off, int(row_ptr[n_owned]) * 4,
                        readonly=True).view(np.int32)
                    # One fancy-index gather over all neighbour lists:
                    # flat[k] walks each [s, e) run in order, exactly the
                    # concatenation of the per-vertex slices.
                    csum = np.cumsum(sizes)
                    flat = (np.arange(total)
                            + np.repeat(starts - (csum - sizes), sizes))
                    ctx.shared.setdefault("merge", []).append(cols[flat])
                    edges = total
            ctx.charge_loop(max(1, edges), INSTR_PER_EDGE)
        yield ctx.barrier()
        if ctx.me() == 0:
            nxt = np.zeros(nv, dtype=np.uint8)
            for gathered in ctx.shared.get("merge", []):
                nxt[gathered] = 1
            ctx.mram_write_blocks(ctx.host_u32("args", 5),
                                  np.packbits(nxt))
            ctx.charge(nv // 8)

    def vector_kernel(self, run: VectorRun) -> None:
        nv, first, n_owned, col_off, f_off, n_off = (
            run.host_u32("args", i) for i in range(6))
        starts, stops = run.tasklet_ranges(n_owned)
        k = int(np.count_nonzero(stops > starts))
        run.mem_alloc(3 * 1024, k)
        nxt = np.zeros(nv, dtype=np.uint8)
        if k:
            # Every working tasklet streams the bitmap and the row
            # pointers; its share of the active vertices is a contiguous
            # run of ``active``, and its edges a contiguous run of the
            # one gather below.
            nbytes = (nv + 7) // 8
            row_bytes = (n_owned + 1) * 4
            packed = run.mram_read(f_off, nbytes)
            row_ptr = run.mram_read(0, row_bytes).view(np.int32)
            run.charge_dma(nbytes, calls=k)
            run.charge_dma(row_bytes, calls=k)
            # The owned vertices' frontier bits, as the tasklets test them.
            last_byte = (first + n_owned - 1) >> 3
            if last_byte >= packed.size:
                raise IndexError("BFS owned vertices exceed the bitmap")
            bits = np.unpackbits(packed[first >> 3:last_byte + 1])
            active = np.flatnonzero(bits[first & 7:(first & 7) + n_owned])
            edges = 0
            if active.size:
                starts_e = row_ptr[active]
                sizes = row_ptr[active + 1] - starts_e
                if sizes.min() < 0:
                    raise ValueError("BFS row pointers are not monotone")
                csum = np.cumsum(sizes, dtype=np.int64)
                ends = np.concatenate([[0], csum])
                edges = (ends[np.searchsorted(active, stops[:k])]
                         - ends[np.searchsorted(active, starts[:k])])
                total = int(ends[-1])
                if total:
                    cols_bytes = int(row_ptr[n_owned]) * 4
                    cols = run.mram_read(col_off, cols_bytes).view(np.int32)
                    run.charge_dma(cols_bytes,
                                   calls=int(np.count_nonzero(edges)))
                    flat = (np.arange(total)
                            + np.repeat(starts_e - (csum - sizes), sizes))
                    nxt[cols[flat]] = 1
            run.instructions[:k] += np.maximum(1, edges) * INSTR_PER_EDGE
        out = np.packbits(nxt)
        run.mram_write(n_off, out)
        run.charge_dma(out.size)
        run.instructions[0] += nv // 8


class BreadthFirstSearch(HostApplication):
    """Host side of BFS."""

    name = "Breadth-First Search"
    short_name = "BFS"
    domain = "Graph processing"

    def __init__(self, nr_dpus: int, n_vertices: int = 1 << 14,
                 avg_degree: int = 4, source: int = 0, seed: int = 0) -> None:
        super().__init__(nr_dpus, n_vertices=n_vertices,
                         avg_degree=avg_degree, source=source, seed=seed)
        self.row_ptr, self.col_idx = random_graph_csr(n_vertices, avg_degree,
                                                      seed)
        self.source = source

    def expected(self) -> np.ndarray:
        return cpu_bfs(self.row_ptr, self.col_idx, self.source)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        nv = self.row_ptr.size - 1
        nbytes = (nv + 7) // 8
        counts = self.split_even(nv, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        max_owned = max(counts)
        max_edges = max(
            int(self.row_ptr[bounds[i + 1]] - self.row_ptr[bounds[i]])
            for i in range(self.nr_dpus)
        )
        col_off = (max_owned + 1) * 4
        f_off = col_off + max_edges * 4
        n_off = f_off + ((nbytes + 7) // 8) * 8

        levels = np.full(nv, -1, dtype=np.int32)
        levels[self.source] = 0
        frontier = np.zeros(nv, dtype=np.uint8)
        frontier[self.source] = 1

        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(BfsProgram())
            with profiler.segment("CPU-DPU"):
                # Serial CSR distribution (the PrIM pattern for BFS).
                for i in range(self.nr_dpus):
                    lo, hi = bounds[i], bounds[i + 1]
                    s = int(self.row_ptr[lo])
                    e = int(self.row_ptr[hi])
                    args = np.array([nv, lo, hi - lo, col_off, f_off, n_off],
                                    np.uint32)
                    dpus.copy_to(i, "args", 0, args)
                    dpus.copy_to_mram(i, 0,
                                      (self.row_ptr[lo:hi + 1] - s).astype(np.int32))
                    if e > s:
                        dpus.copy_to_mram(i, col_off, self.col_idx[s:e])

            level = 0
            while frontier.any():
                with profiler.segment("Inter-DPU"):
                    packed = np.packbits(frontier)
                    dpus.push_to_mram(f_off, [packed] * self.nr_dpus)
                with profiler.segment("DPU"):
                    dpus.launch()
                with profiler.segment("Inter-DPU"):
                    nxt = np.zeros(nbytes * 8, dtype=np.uint8)
                    for buf in dpus.push_from_mram(n_off, nbytes):
                        nxt[:nv] |= np.unpackbits(buf)[:nv]
                level += 1
                newly = (nxt[:nv] == 1) & (levels < 0)
                levels[newly] = level
                frontier = np.zeros(nv, dtype=np.uint8)
                frontier[newly] = 1
        return levels
