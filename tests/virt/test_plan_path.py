"""The one wire path end to end: every data request is a compiled plan.

Shapes the plan cache keeps are replayed; everything else — including
entries larger than one backing extent — travels as a transient plan
through the same compiler and the same backend path.
"""

import numpy as np
import pytest

from repro.apps.prim.nw import NeedlemanWunsch
from repro.apps.prim.va import VectorAdd
from repro.config import MRAM_HEAP_SYMBOL, MRAM_SIZE, PAGE_SIZE, small_machine
from repro.core import VPim
from repro.errors import TransferError, TranslationError
from repro.sdk.dpu_set import DpuSet
from repro.sdk.transfer import DpuEntry, TransferMatrix, XferKind
from repro.virt.backend import VUpmemBackend
from repro.virt.serialization import RequestHeader, RequestKind

#: 20 MB per DPU: larger than one 16 MB backing extent of guest memory.
BIG = 20 << 20


def _session(mem_bytes=1 << 30):
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
    return vpim, vpim.vm_session(nr_vupmem=1, mem_bytes=mem_bytes)


def _big_payloads(nr_dpus):
    return [((np.arange(BIG) + 17 * dpu) % 251).astype(np.uint8)
            for dpu in range(nr_dpus)]


def test_multi_extent_write_and_read_round_trip_through_a_vm():
    vpim, session = _session()
    frontend = session.vm.devices[0].frontend
    bufs = _big_payloads(2)
    with DpuSet(session.transport, 2) as dpus:
        for rep in range(2):
            dpus.push_to_mram(64, bufs)
            got = dpus.push_from_mram(64, BIG)
            assert all(np.array_equal(g, b) for g, b in zip(got, bufs))
        rank = vpim.machine.rank(session.vm.devices[0].backend.mapping.rank_index)
        for dpu, buf in enumerate(bufs):
            assert np.array_equal(rank.dpu(dpu).mram.read(64, BIG), buf)
    # Both shapes were refused by the cache (their entries span extents)
    # and were sent as transient plans on every repetition.
    assert len(frontend.plans.unplannable) == 2
    assert frontend.plans.nr_plans == 0


def test_transfer_larger_than_the_dma_arena_raises_translation_error():
    # A 32 MB guest leaves a 31 MB DMA arena; one 40 MB entry cannot fit.
    _, session = _session(mem_bytes=32 << 20)
    with DpuSet(session.transport, 1) as dpus:
        with pytest.raises(TranslationError, match="exceeds the .*DMA arena"):
            dpus.copy_to_mram(0, 0, np.zeros(40 << 20, dtype=np.uint8))


def _six_mb_payloads(nr_dpus):
    return [((np.arange(6 << 20) + 31 * dpu) % 251).astype(np.uint8)
            for dpu in range(nr_dpus)]


def test_transient_request_near_the_arena_size_round_trips():
    # A 41 MB guest: 4 x 6 MB is over the half-arena reservation cap, so
    # the shape goes transient after warm-up traffic moved the rolling
    # cursor.  Its runs pack back to back and fit without wrapping onto
    # each other; every MRAM byte and every byte read back is intact.
    vpim, session = _session(mem_bytes=41 << 20)
    frontend = session.vm.devices[0].frontend
    bufs = _six_mb_payloads(4)
    with DpuSet(session.transport, 4) as dpus:
        dpus.push_to_mram(0, [np.full(1 << 20, 7, np.uint8)] * 4)
        dpus.push_to_mram(0, bufs)
        rank = vpim.machine.rank(frontend.backend.mapping.rank_index)
        for dpu, buf in enumerate(bufs):
            assert np.array_equal(rank.dpu(dpu).mram.read(0, buf.size), buf)
        got = dpus.push_from_mram(0, bufs[0].size)
    assert all(np.array_equal(g, b) for g, b in zip(got, bufs))
    assert len(frontend.plans.unplannable) == 2


def test_request_wrapping_onto_itself_raises_translation_error():
    # 4 x 6 MB in a 33 MB guest fits no rolling arena without wrapping
    # onto its own earlier buffers: refused before the rank is touched.
    vpim, session = _session(mem_bytes=33 << 20)
    frontend = session.vm.devices[0].frontend
    with DpuSet(session.transport, 4) as dpus:
        rank = vpim.machine.rank(frontend.backend.mapping.rank_index)
        writes = rank.write_ops
        with pytest.raises(TranslationError, match="onto its own buffers"):
            dpus.push_to_mram(0, _six_mb_payloads(4))
        assert rank.write_ops == writes


def test_bad_matrix_raises_transfer_error():
    # Runs past the end of the MRAM bank (and is too large to batch):
    # refused with the SDK's error type, and nothing reaches the rank.
    vpim, session = _session()
    frontend = session.vm.devices[0].frontend
    size = 2 * PAGE_SIZE
    matrix = TransferMatrix(XferKind.TO_DPU, MRAM_HEAP_SYMBOL, MRAM_SIZE - 8,
                            [DpuEntry(0, size, np.ones(size, np.uint8))])
    with DpuSet(session.transport, 1):
        rank = vpim.machine.rank(frontend.backend.mapping.rank_index)
        with pytest.raises(TransferError, match="past the"):
            frontend.write(matrix)
        assert rank.write_ops == 0


def test_every_data_request_reaching_the_backend_carries_a_plan(monkeypatch):
    seen = []
    process = VUpmemBackend.process

    def recording(self, chain, program=None, batch_records=None, plan=None):
        header = RequestHeader.unpack(
            self.memory.read(chain[0].gpa, chain[0].length))
        seen.append((header.kind, plan, chain))
        return process(self, chain, program=program,
                       batch_records=batch_records, plan=plan)

    monkeypatch.setattr(VUpmemBackend, "process", recording)
    _, session = _session()
    assert session.run(VectorAdd(nr_dpus=4, n_elements=1 << 12)).verified
    assert session.run(NeedlemanWunsch(nr_dpus=4, seq_len=64)).verified
    with DpuSet(session.transport, 2) as dpus:
        dpus.push_to_mram(0, _big_payloads(2))

    data = [(plan, chain) for kind, plan, chain in seen
            if kind in (RequestKind.WRITE_RANK, RequestKind.READ_RANK)]
    assert data, "the workload must send data requests"
    assert all(plan is not None and plan.sreq.chain is chain
               for plan, chain in data)
    lifetimes = {plan.transient for plan, _ in data}
    assert lifetimes == {True, False}, "both cached and transient plans"
