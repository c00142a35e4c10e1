"""The vUPMEM backend: the device model inside Firecracker (Section 4.2).

For each request popped from the transferq the backend:

1. takes the transfer matrix of a data request from its compiled
   :class:`~repro.virt.plans.TransferPlan` (control requests are decoded
   from the chain's header);
2. translates the page GPAs to HVAs (8 translation threads);
3. accesses the guest pages directly — zero copy — and performs the
   operation on the physical rank through a performance-mode mapping;
4. for reads, deposits results straight into the guest's destination
   pages; finally the VMM injects the completion IRQ.

The modeled deserialization and translation time is charged in full
for every request, whatever the plan's lifetime.

The data path (byte interleaving + memcpy) runs either the C/AVX-512
flavour or the Rust/AVX2 flavour ~3.43x slower, per the optimization
config — the Fig. 11 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import BACKEND_WORKER_THREADS, TRANSLATION_THREADS
from repro.errors import DeviceNotLinkedError, SerializationError
from repro.driver.driver import PerfModeMapping, UpmemDriver
from repro.hardware.rank import WriteSpec
from repro.hardware.clock import SimClock
from repro.hardware.timing import CostModel
from repro.observability import MetricsRegistry
from repro.observability.instruments import BackendInstruments
from repro.observability.spans import SpanRecorder
from repro.sdk.kernel import DpuProgram
from repro.sdk.transfer import DpuEntry, Target, TransferMatrix, XferKind
from repro.virt.guest_memory import GuestMemory
from repro.virt.serialization import (
    RequestHeader,
    RequestKind,
    SerializedEntry,
    SkipExtent,
    deserialize_request,
)
from repro.virt.transfer_cache import ExtentDigestIndex
from repro.virt.virtio import Descriptor


def _is_broadcast(matrix: TransferMatrix) -> bool:
    """True iff every entry carries the same payload (all-DPUs pattern)."""
    entries = matrix.entries
    if len(entries) < 2:
        return False
    first = entries[0]
    return all(e.size == first.size and np.array_equal(e.data, first.data)
               for e in entries[1:])


@dataclass
class BatchRecord:
    """One buffered small write replayed by the backend at flush time
    (§4.1: batching merges messages, not hardware operations)."""

    dpu_index: int
    offset: int
    data: np.ndarray


@dataclass
class BackendResult:
    """Outcome of processing one request (duration feeds the Fig. 13 steps)."""

    duration: float
    steps: Dict[str, float] = field(default_factory=dict)
    payload: Optional[object] = None


class VUpmemBackend:
    """One vUPMEM device's backend, bound to at most one physical rank
    (the §4.2 device model inside Firecracker)."""

    def __init__(self, device_id: str, driver: UpmemDriver,
                 guest_memory: GuestMemory, cost: CostModel,
                 rust_data_path: bool = False,
                 translation_threads: int = TRANSLATION_THREADS,
                 worker_threads: int = BACKEND_WORKER_THREADS,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None,
                 cache_enabled: bool = False,
                 qos=None) -> None:
        self.device_id = device_id
        self.driver = driver
        self.memory = guest_memory
        self.cost = cost
        self.rust_data_path = rust_data_path
        self.translation_threads = translation_threads
        self.worker_threads = worker_threads
        #: Content-aware transfer cache (``Optimization(cache=True)``):
        #: resident-extent digests validating SKIPs, broadcast dedup,
        #: launch-time dirty collection.
        self.cache_enabled = cache_enabled
        #: The owning VM's :class:`~repro.qos.flow.QosFlow` (``docs/qos.md``):
        #: when set, data transfers pay a modeled bus share for co-resident
        #: demand and report their own usage to the arbiter.  ``None`` keeps
        #: the exact single-tenant timing path.
        self.qos = qos
        self.resident = ExtentDigestIndex()
        self.mapping: Optional[PerfModeMapping] = None
        self.requests_processed = 0
        #: Fault-injection seam (armed by :mod:`repro.faults`): when set,
        #: called as ``hook(backend)`` before any request work — a hung
        #: worker raises :class:`~repro.errors.BackendHungError` here,
        #: before side effects, so the frontend's retry is idempotent.
        self.fault_hook = None
        #: Trace context; shared with the frontend (assigned below) so
        #: request-latency exemplars point at the live trace.
        self.spans = spans or SpanRecorder(SimClock())
        #: Live telemetry (translation/interleave timings, request counts
        #: labeled by the currently bound rank).
        self.obs = BackendInstruments(metrics or MetricsRegistry(),
                                      device_id, spans=self.spans)
        #: Bumped on every :meth:`unlink` (release/migration/failover).
        #: Compiled transfer plans snapshot it once their page runs are
        #: bounds-checked; a matching generation lets a replay skip the
        #: per-entry walk (the GPAs are frozen in the plan's reservations).
        self.translation_generation = 0
        #: (``self.spans`` is assigned before ``self.obs`` above: shares
        #: the machine recorder when built by
        #: :class:`~repro.virt.firecracker.Firecracker`, making each
        #: backend span a child of the frontend request that caused it.)

    # -- rank linking -------------------------------------------------------

    @property
    def linked(self) -> bool:
        return self.mapping is not None

    def link_rank(self, rank_index: int) -> None:
        if self.mapping is not None:
            raise DeviceNotLinkedError(
                f"device {self.device_id} is already linked to rank "
                f"{self.mapping.rank_index}"
            )
        self.mapping = self.driver.mmap_rank(rank_index, self.device_id)

    def unlink(self) -> None:
        if self.mapping is not None:
            self.mapping.unmap()
            self.mapping = None
            # The rank binding changed: plans validated at the old
            # generation must bounds-check their page runs again.
            self.translation_generation += 1

    def _require_mapping(self) -> PerfModeMapping:
        if self.mapping is None:
            raise DeviceNotLinkedError(
                f"device {self.device_id} has no backing rank; requests "
                "would be lost (Appendix A.1 'Device operations')"
            )
        return self.mapping

    # -- request processing -----------------------------------------------------

    def process(self, chain: List[Descriptor],
                program: Optional[DpuProgram] = None,
                batch_records: Optional[List[BatchRecord]] = None,
                plan=None) -> BackendResult:
        """Handle one transferq request; returns timing and any payload.

        A data request (WRITE_RANK/READ_RANK) is taken only from its
        ``plan`` (a :class:`~repro.virt.plans.TransferPlan`, the frontend
        side-channel for the chain it compiled): the plan's entries and
        skips are the wire content by construction, and its payload
        views alias the guest pages the chain references.  A data chain
        without a plan is rejected; control requests are decoded from
        the chain.
        """
        if self.fault_hook is not None:
            try:
                self.fault_hook(self)
            except Exception:
                self.spans.mark_fault("backend_fault")
                raise
        self.requests_processed += 1
        if plan is not None:
            header, entries, skips = plan.header, plan.entries, plan.skips
        else:
            header, entries, skips = deserialize_request(chain, self.memory)
            if header.kind in (RequestKind.WRITE_RANK, RequestKind.READ_RANK):
                raise SerializationError(
                    f"{header.kind.name} request arrived without a "
                    "compiled plan")
        # Rank bound at arrival time (RELEASE unlinks while handling).
        rank = str(self.mapping.rank_index) if self.mapping else "none"
        span = self.spans.begin("backend.request", "backend",
                                kind=header.kind.name.lower(),
                                rank=rank, device=self.device_id)
        try:
            result = self._handle(header, entries, skips, program,
                                  batch_records, plan)
        except BaseException:
            self.spans.end(span, error=True)
            raise
        self.spans.end(span, duration=result.duration)
        self.obs.request(header.kind.name.lower(), rank, result.duration)
        return result

    def _handle(self, header: RequestHeader,
                entries: List[SerializedEntry],
                skips: List[SkipExtent],
                program: Optional[DpuProgram],
                batch_records: Optional[List[BatchRecord]],
                plan=None) -> BackendResult:
        kind = header.kind

        if kind is RequestKind.GET_CONFIG:
            return BackendResult(
                duration=self.cost.config_request_cost,
                payload=self.driver.config,
            )
        if kind is RequestKind.RELEASE:
            self.unlink()
            self.resident.invalidate_all()
            return BackendResult(duration=self.cost.backend_request_fixed)

        mapping = self._require_mapping()

        if kind is RequestKind.LOAD:
            if program is None:
                raise SerializationError("LOAD request without a program image")
            # load_program rebuilds every symbol buffer; nothing resident
            # from the previous program can be trusted afterwards.
            self.resident.invalidate_all()
            duration = (self.cost.backend_request_fixed
                        + mapping.load(program))
            return BackendResult(duration=duration)

        if kind is RequestKind.LAUNCH:
            if self.cache_enabled:
                return self._launch_collecting_dirty(mapping)
            duration = (self.cost.backend_request_fixed
                        + mapping.launch())
            return BackendResult(duration=duration)

        if kind is RequestKind.CI_OP:
            duration = (self.cost.backend_request_fixed
                        + mapping.ci_ops(header.count))
            return BackendResult(duration=duration)

        # Data transfers: deserialization + translation + zero-copy access.
        if skips and not self.cache_enabled:
            raise SerializationError(
                "request carries SKIP extents but the transfer cache is off")
        for skip in skips:
            # A SKIP the resident index cannot vouch for is a protocol
            # violation — suppressing it silently would corrupt the DPU.
            if not self.resident.lookup(skip.dpu_index, header.symbol,
                                        header.offset, skip.size,
                                        skip.digest):
                raise SerializationError(
                    f"SKIP extent (dpu {skip.dpu_index}, symbol "
                    f"{header.symbol!r}, offset {header.offset}, size "
                    f"{skip.size}) is not resident on the backend")

        if plan.translation_generation != self.translation_generation:
            # Bounds-check every entry's page run before any byte moves.
            # A cached plan validated at the current generation replays
            # frozen reservations, so its replays skip the walk; a
            # transient plan is checked on every request.
            for entry in entries:
                self.memory.translate_pages(entry.page_gpas)
            if not plan.transient:
                plan.translation_generation = self.translation_generation

        # The plan's matrix payloads alias the (just-written) guest
        # views, so writes need no gather; non-batched writes expose
        # them for broadcast detection.
        matrix = plan.matrix
        broadcast = (self.cache_enabled and batch_records is None
                     and kind is RequestKind.WRITE_RANK
                     and _is_broadcast(matrix))

        total_pages = sum(e.page_gpas.size for e in entries)
        # Broadcast-identical payloads (the all-DPUs-same-buffer PrIM
        # pattern) are deserialized and translated once, then fanned
        # out — only the modeled time changes, every page is still
        # validated and written.
        modeled_pages = (entries[0].page_gpas.size if broadcast
                         else total_pages)
        deser_time = (self.cost.backend_request_fixed
                      + modeled_pages * self.cost.deserialize_per_page
                      + len(skips) * self.cost.cache_skip_lookup_cost)
        # Threaded GPA->HVA translation saturates at 8 threads — the
        # paper "empirically validate[d] that using more than 8 threads
        # does not provide additional benefits" (Section 4.2), which
        # matches the 8-DPUs-per-chip memory parallelism.
        effective_threads = max(1, min(self.translation_threads, 8))
        translate_time = (self.cost.translate_fixed
                          + modeled_pages * self.cost.translate_per_page
                          / effective_threads)
        self.obs.translation(total_pages, translate_time)
        self.spans.event("backend.deserialize", "backend", deser_time,
                         pages=total_pages, broadcast=broadcast)
        self.spans.event("backend.translate", "backend", translate_time,
                         pages=total_pages, threads=effective_threads)

        dispatch_time = self.cost.backend_dispatch
        self.spans.event("backend.dispatch", "backend", dispatch_time)

        payload = None
        if kind is RequestKind.WRITE_RANK:
            if batch_records is not None:
                tdata = self._replay_batch(mapping, header, batch_records)
            else:
                pinned = self._pinned_write_for(plan, mapping)
                if pinned is not None:
                    tdata = mapping.write_pinned(
                        pinned, rust_interleave=self.rust_data_path)
                else:
                    tdata = mapping.write(
                        matrix, rust_interleave=self.rust_data_path)
                if self.cache_enabled:
                    for entry in entries:
                        if entry.digest:
                            self.resident.insert(
                                entry.dpu_index, header.symbol,
                                header.offset, entry.size, entry.digest)
        elif kind is RequestKind.READ_RANK:
            if plan.read_views is not None:
                # MRAM reads deposit straight into the pinned guest
                # destinations.
                buffers, tdata = mapping.read(
                    matrix, rust_interleave=self.rust_data_path,
                    into=plan.read_views)
            else:
                # WRAM symbol reads and runs crossing extents return
                # fresh buffers that slice copies land in place.
                buffers, tdata = mapping.read(
                    matrix, rust_interleave=self.rust_data_path)
                plan.deposit(buffers)
            payload = len(buffers)
        else:
            raise SerializationError(
                f"backend cannot handle request kind {kind}")

        self.obs.interleave(tdata)
        tdata += self._bus_share(tdata)
        steps = {"Deser": deser_time + translate_time, "T-data": tdata}
        duration = deser_time + translate_time + dispatch_time + tdata
        return BackendResult(duration=duration, steps=steps, payload=payload)

    # -- helpers ---------------------------------------------------------------------

    def _bus_share(self, bus_seconds: float) -> float:
        """Modeled stretch of a bus occupancy from co-resident demand.

        Folded into the T-data step so per-step breakdowns show the
        contention as data-path elongation (the shape of Fig. 16), not
        a synthetic extra phase.  Also reports this device's own usage
        to the arbiter's demand window.
        """
        if self.qos is None:
            return 0.0
        return self.qos.on_bus(bus_seconds, self.driver.machine.clock.now)

    def _pinned_write_for(self, plan, mapping: PerfModeMapping):
        """The plan's resolved MRAM destination pairing, or ``None``.

        Only cached plans are pinned (a transient plan is used once).
        Pinning needs a stable rank binding, so only a plain
        :class:`~repro.driver.driver.PerfModeMapping` qualifies (paged
        mappings re-resolve their frame per operation).  The cached
        pairing is revalidated against the mapping's rank and every
        touched MRAM's backing-store generation (a reset or restore
        recycles extents); anything stale is re-resolved in place.
        """
        matrix = plan.matrix
        if (plan.transient or matrix.target is not Target.MRAM
                or type(mapping) is not PerfModeMapping):
            return None
        pinned = plan.pinned_write
        if (pinned is not None and pinned.rank is mapping.rank
                and pinned.valid()):
            return pinned
        plan.pinned_write = None
        try:
            specs = [WriteSpec(e.dpu_index, matrix.offset, e.data)
                     for e in matrix.entries]
            plan.pinned_write = mapping.rank.pin_mram_write(specs)
        except Exception:
            # Anything unpinnable (offline rank mid-drill, bounds) falls
            # back to the ordinary write, which surfaces the real error.
            return None
        return plan.pinned_write

    def _launch_collecting_dirty(self, mapping: PerfModeMapping,
                                 ) -> BackendResult:
        """LAUNCH with kernel dirty-store collection (cache on only).

        Every DPU's dirty log is armed around the run; stores collected
        there invalidate overlapping resident digests and travel back to
        the frontend (in the payload) so its index stays honest too.
        """
        dpus = mapping.rank.dpus
        for dpu in dpus:
            dpu.dirty_log = []
        dirty: List[Tuple[int, str, int, int]] = []
        try:
            duration = (self.cost.backend_request_fixed
                        + mapping.launch())
        finally:
            # Disarm and prune even when the launch faults: the kernel
            # may have stored before raising.
            for dpu in dpus:
                log, dpu.dirty_log = dpu.dirty_log, None
                for space, offset, nbytes in log or ():
                    self.resident.prune(dpu.dpu_index, space, offset, nbytes)
                    dirty.append((dpu.dpu_index, space, offset, nbytes))
        return BackendResult(duration=duration, payload=dirty)

    def _replay_batch(self, mapping: PerfModeMapping, header: RequestHeader,
                      records: List[BatchRecord]) -> float:
        """Apply buffered small writes one hardware operation each.

        Batching merges *messages*, not hardware operations: "this batching
        mechanism does not reduce the total data writing time" (Section
        4.1) — each record still pays the rank's per-operation cost.

        With the transfer cache on, adjacent records carrying the *same*
        payload to the same offset on distinct DPUs (the broadcast
        argument-push pattern) are deduplicated into one multi-DPU rank
        operation: the content-aware exception to the rule above.
        """
        total = 0.0
        i = 0
        while i < len(records):
            run = [records[i]]
            if self.cache_enabled:
                j = i + 1
                while j < len(records):
                    nxt = records[j]
                    if (nxt.offset == run[0].offset
                            and nxt.data.size == run[0].data.size
                            and all(nxt.dpu_index != r.dpu_index
                                    for r in run)
                            and np.array_equal(nxt.data, run[0].data)):
                        run.append(nxt)
                        j += 1
                    else:
                        break
            matrix = TransferMatrix(
                XferKind.TO_DPU, header.symbol, run[0].offset,
                [DpuEntry(dpu_index=r.dpu_index,
                          size=r.data.size, data=r.data) for r in run],
            )
            total += mapping.write(matrix, rust_interleave=self.rust_data_path)
            i += len(run)
        self.obs.batch_replay(len(records))
        return total
