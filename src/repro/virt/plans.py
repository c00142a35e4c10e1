"""Compiled transfer plans: the one serializer of the data plane.

Every data request (WRITE_RANK/READ_RANK) reaches the backend as a
:class:`TransferPlan`.  :func:`compile_plan` builds the wire chain of
Figs. 6-7 (header, matrix-meta, per-entry meta and page buffers), pins
writable views over each entry's payload pages, and keeps a
:class:`~repro.sdk.transfer.TransferMatrix` whose write payloads alias
those views, so the backend consumes guest pages with no gather and
deposits MRAM reads with no scatter.

Plans come in two lifetimes:

- **cached** plans, keyed by ``(direction, symbol, offset, entry
  shapes)``, live in *reserved* guest pages
  (:meth:`GuestMemory.reserve_pages`) that the rolling DMA arena never
  recycles.  PrIM workloads run ``nr_reps`` repetitions of identically
  shaped transfers, so a :class:`PlanCache` hit replays the plan: one
  slice copy per entry refreshes the payload, and the backend's resolved
  MRAM destination pairing (:class:`~repro.hardware.rank.PinnedMramWrite`)
  and translation generation let it skip the per-entry bounds walk;
- **transient** plans (``key=None``) serve every shape the cache cannot
  or does not keep: unkeyable requests, shapes whose reservation failed
  (the half-arena cap), and entries larger than one backing extent.
  The same compiler draws their pages from the rolling arena
  (:meth:`GuestMemory.alloc_pages`); they are never cached, never pinned
  for MRAM writes, and the backend bounds-checks their page runs on
  every request.

Plans change **wall-clock time only**: every modeled duration and every
guest- and DPU-visible byte follows from the wire content, which is the
same for both lifetimes.  ``deserialize_request`` decodes any compiled
chain back to the plan's header, entries and skips.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.config import PAGE_SIZE
from repro.errors import SerializationError, TranslationError
from repro.sdk.transfer import DpuEntry, Target, TransferMatrix, XferKind
from repro.virt.guest_memory import GuestMemory
from repro.virt.serialization import (
    RequestHeader,
    RequestKind,
    SerializedEntry,
    SerializedRequest,
    SkipExtent,
    _entry_pages,
    entry_meta_words,
    matrix_meta_words,
)
from repro.virt.virtio import Descriptor, write_buffer

__all__ = [
    "PlanCache", "PlanUnsupported", "TransferPlan", "compile_plan",
    "plan_key",
]

#: Word index of the digest inside a cache-format entry-meta buffer.
_ENTRY_DIGEST_WORD = 3
#: Matrix-meta words before the skip extents (cache format).
_SKIP_BASE_WORD = 4
#: u64 words per skip extent: (dpu_index, size, digest).
_SKIP_WORDS = 3


class PlanUnsupported(Exception):
    """The shape cannot be cached (its reservation failed, or an entry
    spans backing extents); the caller serves it with transient plans
    and remembers the key so it never tries again."""


def plan_key(header: RequestHeader, matrix: TransferMatrix,
             digests: Optional[Dict[int, int]],
             skips: Optional[List[SkipExtent]],
             batched: bool) -> Optional[Tuple]:
    """The cache key of a data request, or ``None`` if unplannable.

    Everything that shapes the wire layout is part of the key: request
    kind, addressing, wire format, batching, the (dpu, size) tuple of
    every kept entry, and the (dpu, size) tuple of every SKIP extent.
    """
    if header.kind not in (RequestKind.WRITE_RANK, RequestKind.READ_RANK):
        return None
    if header.offset != matrix.offset or header.symbol != matrix.symbol:
        return None
    cache_format = digests is not None or skips is not None
    return (
        int(header.kind), header.symbol, matrix.offset, batched,
        cache_format,
        tuple((e.dpu_index, e.size) for e in matrix.entries),
        tuple((s.dpu_index, s.size) for s in (skips or ())),
    )


@dataclass
class TransferPlan:
    """One compiled data request: stable chain + pinned views + replay
    patches (cached plans) or a one-shot chain (transient plans)."""

    #: Cache key; ``None`` marks a transient plan.
    key: Optional[Tuple]
    header: RequestHeader
    sreq: SerializedRequest
    entries: List[SerializedEntry]
    skips: List[SkipExtent]
    #: Matrix the backend applies, addressed by the wire header; its
    #: TO_DPU payloads alias the pinned views (``None`` for batched
    #: flushes — the backend replays the records).
    matrix: Optional[TransferMatrix]
    #: Pinned guest views over each entry's payload pages: one view per
    #: entry, or per-extent chunks for a run that crosses a backing
    #: extent boundary (transient plans only: reservations are aligned).
    payload_views: List[List[np.ndarray]]
    #: u64 views over each entry-meta buffer (digest patched per replay).
    entry_meta_views: List[np.ndarray]
    #: u64 view over the matrix-meta buffer (skip digests patched).
    matrix_meta_view: Optional[np.ndarray]
    #: ``(gpa, nr_pages)`` reservations to release when the plan dies.
    reservations: List[Tuple[int, int]]
    guest_generation: int
    cache_format: bool
    batched: bool
    #: MRAM reads deposit straight into these views via ``into=``
    #: (``None``: WRAM reads and chunked entries get fresh buffers that
    #: :meth:`deposit` copies over the payload views).
    read_views: Optional[List[np.ndarray]]
    #: Backend translation generation at which this plan's page runs
    #: were last bounds-checked (cached plans only).
    translation_generation: int = -1
    #: Backend-resolved destination pairing for MRAM writes.
    pinned_write: object = None
    replays: int = field(default=0)

    @property
    def transient(self) -> bool:
        return self.key is None

    def valid(self, memory: GuestMemory) -> bool:
        """Pinned views survive only as long as the guest backing store."""
        return self.guest_generation == memory.region.generation

    def replay(self, matrix: TransferMatrix,
               digests: Optional[Dict[int, int]],
               skips: Optional[List[SkipExtent]]) -> SerializedRequest:
        """Refresh content-dependent state; returns the stable chain.

        For writes, each live payload is copied into its pinned view
        (one slice copy per entry — the only byte work of a replayed
        serialization).  Cache-format replays also re-patch the digest
        words in the wire metadata and swap in the fresh SKIP extents.
        """
        self.replays += 1
        if self.matrix is not None and matrix.kind is XferKind.TO_DPU:
            # The cached matrix's entries alias these views, so one slice
            # copy per entry refreshes both the wire and the matrix.
            for (view,), live in zip(self.payload_views, matrix.entries):
                if live.data is not view:
                    view[...] = live.data
        if self.cache_format:
            for view, entry, live in zip(self.entry_meta_views,
                                         self.entries, matrix.entries):
                digest = (digests or {}).get(live.dpu_index, 0)
                entry.digest = digest
                view[_ENTRY_DIGEST_WORD] = digest
            self.skips = list(skips or ())
            meta = self.matrix_meta_view
            assert meta is not None
            for s, skip in enumerate(self.skips):
                meta[_SKIP_BASE_WORD + _SKIP_WORDS * s + 2] = skip.digest
        return self.sreq

    def deposit(self, buffers: List[np.ndarray]) -> None:
        """Copy read results over the guest destination views."""
        for entry, views, buf in zip(self.entries, self.payload_views,
                                     buffers):
            if buf.size != entry.size:
                raise SerializationError(
                    f"result of {buf.size} bytes does not match entry "
                    f"size {entry.size}")
            _copy_over(views, buf)

    def release(self, memory: GuestMemory) -> None:
        for gpa, nr_pages in self.reservations:
            memory.release_reservation(gpa, nr_pages)
        self.reservations = []


def _copy_over(views: List[np.ndarray], data: np.ndarray) -> None:
    pos = 0
    for view in views:
        view[...] = data[pos:pos + view.size]
        pos += view.size


def _check_disjoint(chain: List[Descriptor],
                    data_descriptors: List[Tuple[int, int, int]]) -> None:
    """Refuse a transient request whose buffers overlap: one larger than
    the rolling arena wraps onto its own earlier buffers."""
    runs = sorted([(desc.gpa, desc.length) for desc in chain]
                  + [(gpa, size) for _, size, gpa in data_descriptors])
    end = 0
    for gpa, length in runs:
        if length and gpa < end:
            total = sum(length for _, length in runs)
            raise TranslationError(
                f"request of {total} bytes wraps the DMA arena onto its "
                "own buffers")
        end = max(end, gpa + length)


def _take_pages(memory: GuestMemory, nr_pages: int,
                reservations: Optional[List[Tuple[int, int]]]) -> int:
    """A page run: reserved for a cached plan, rolling for a transient one."""
    if reservations is None:
        return memory.alloc_pages(nr_pages)
    gpa = memory.reserve_pages(nr_pages)
    reservations.append((gpa, nr_pages))
    return gpa


def _wire_buffer(memory: GuestMemory, data: np.ndarray,
                 reservations: Optional[List[Tuple[int, int]]],
                 device_writable: bool = False,
                 ) -> Tuple[Optional[np.ndarray], Descriptor]:
    """Place one wire buffer; mirrors :func:`repro.virt.virtio.write_buffer`
    byte-for-byte, pinning a view over reserved pages for cached plans."""
    if reservations is None:
        return None, write_buffer(memory, data, device_writable)
    u8 = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    gpa = _take_pages(memory, _entry_pages(u8.size), reservations)
    view = memory.pin_span(gpa, u8.size)
    view[...] = u8
    return view, Descriptor(gpa=gpa, length=u8.size,
                            device_writable=device_writable)


def compile_plan(key: Optional[Tuple], header: RequestHeader,
                 matrix: TransferMatrix, memory: GuestMemory,
                 digests: Optional[Dict[int, int]],
                 skips: Optional[List[SkipExtent]],
                 batched: bool) -> TransferPlan:
    """Compile ``matrix`` into a :class:`TransferPlan`.

    ``key=None`` compiles a transient plan from the rolling arena;
    otherwise the plan lives in reserved pages for the cache.  Both emit
    the same chain (buffer contents, lengths and writable flags — only
    the GPAs differ).  ``digests`` (per-DPU content digests of the kept
    entries) and ``skips`` (suppressed extents) switch the chain to the
    cache wire format; leaving both ``None`` emits the default format.

    A bad matrix raises :class:`~repro.errors.TransferError`; a transient
    request that does not fit the rolling arena (one run larger than it,
    or buffers that wrap onto each other) raises
    :class:`~repro.errors.TranslationError`.
    Only a cached compile raises :class:`PlanUnsupported` — when its
    reservation fails or an entry spans backing extents — after
    releasing every partial reservation.
    """
    matrix.validate()
    cache_format = digests is not None or skips is not None
    reservations: Optional[List[Tuple[int, int]]] = (
        None if key is None else [])
    try:
        chain: List[Descriptor] = []
        _, desc = _wire_buffer(memory, header.pack(), reservations)
        chain.append(desc)
        meta_u8, desc = _wire_buffer(
            memory, matrix_meta_words(matrix, skips, cache_format),
            reservations)
        chain.append(desc)
        matrix_meta_view = (meta_u8.view(np.uint64)
                            if cache_format and meta_u8 is not None else None)

        total_pages = 0
        data_descriptors: List[Tuple[int, int, int]] = []
        entries: List[SerializedEntry] = []
        payload_views: List[List[np.ndarray]] = []
        entry_meta_views: List[np.ndarray] = []
        cached_entries: List[DpuEntry] = []
        writable = matrix.kind is XferKind.FROM_DPU
        for entry in matrix.entries:
            nr_pages = _entry_pages(entry.size)
            total_pages += nr_pages
            digest = (digests or {}).get(entry.dpu_index, 0)
            emeta_u8, desc = _wire_buffer(
                memory,
                entry_meta_words(entry.dpu_index, entry.size, nr_pages,
                                 digest, cache_format),
                reservations)
            chain.append(desc)
            if cache_format and emeta_u8 is not None:
                entry_meta_views.append(emeta_u8.view(np.uint64))
            gpa = _take_pages(memory, nr_pages, reservations)
            views = memory.pin_chunks(gpa, entry.size)
            if len(views) > 1 and reservations is not None:
                raise PlanUnsupported(
                    f"entry of {entry.size} bytes spans backing extents")
            data = None
            if matrix.kind is XferKind.TO_DPU:
                _copy_over(views, entry.data)
                data = views[0] if len(views) == 1 else np.concatenate(views)
            payload_views.append(views)
            page_gpas = (np.arange(nr_pages, dtype=np.uint64) * PAGE_SIZE
                         + np.uint64(gpa))
            _, desc = _wire_buffer(memory, page_gpas, reservations,
                                   device_writable=writable)
            chain.append(desc)
            data_descriptors.append((entry.dpu_index, entry.size, gpa))
            entries.append(SerializedEntry(
                dpu_index=entry.dpu_index, size=entry.size,
                page_gpas=page_gpas, digest=digest))
            cached_entries.append(DpuEntry(
                dpu_index=entry.dpu_index, size=entry.size, data=data))
    except BaseException as exc:
        for gpa, nr_pages in reservations or ():
            memory.release_reservation(gpa, nr_pages)
        if reservations is not None and isinstance(exc, TranslationError):
            raise PlanUnsupported(str(exc)) from exc
        raise

    if reservations is None:
        _check_disjoint(chain, data_descriptors)
    applied = TransferMatrix(matrix.kind, header.symbol, header.offset,
                             cached_entries)
    direct_read = (applied.target is Target.MRAM
                   and all(len(views) == 1 for views in payload_views))
    sreq = SerializedRequest(header=header, chain=chain,
                             total_pages=total_pages,
                             data_descriptors=data_descriptors)
    return TransferPlan(
        key=key, header=header, sreq=sreq, entries=entries,
        skips=list(skips or ()), matrix=None if batched else applied,
        payload_views=payload_views, entry_meta_views=entry_meta_views,
        matrix_meta_view=matrix_meta_view, reservations=reservations or [],
        guest_generation=memory.region.generation,
        cache_format=cache_format, batched=batched,
        read_views=([views[0] for views in payload_views]
                    if direct_read else None),
    )


class PlanCache:
    """Bounded LRU of compiled :class:`TransferPlan` per frontend.

    The default capacity sits above the largest per-run shape count in
    the PrIM suite (321 for bench-size SpMV): an LRU scanned cyclically
    by a repeated workload degrades to zero hits the moment the working
    set exceeds the capacity.
    """

    def __init__(self, memory: GuestMemory, capacity: int = 512) -> None:
        self.memory = memory
        self.capacity = max(1, capacity)
        self._plans: "OrderedDict[Tuple, TransferPlan]" = OrderedDict()
        #: Shapes the compiler refused — served by transient plans.
        self.unplannable: Set[Tuple] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: Tuple) -> Optional[TransferPlan]:
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
        return plan

    def insert(self, key: Tuple, plan: TransferPlan) -> int:
        """Cache ``plan``; returns how many plans were evicted for room."""
        evicted = 0
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.capacity:
            _, old = self._plans.popitem(last=False)
            old.release(self.memory)
            evicted += 1
        self.evictions += evicted
        return evicted

    def drop(self, key: Tuple) -> None:
        plan = self._plans.pop(key, None)
        if plan is not None:
            plan.release(self.memory)
            self.invalidations += 1

    def invalidate_all(self) -> int:
        """Drop every plan (migration/failover/teardown); returns count."""
        count = len(self._plans)
        for plan in self._plans.values():
            plan.release(self.memory)
        self._plans.clear()
        self.invalidations += count
        return count

    @property
    def nr_plans(self) -> int:
        return len(self._plans)
