"""Property-based oracle for the one wire path: compiled plans.

Every data request reaches the backend as a compiled plan, cached or
transient (``docs/performance.md``), and the reference decoder
``deserialize_request`` is the oracle: every compiled chain — cached
and transient, default and cache format, batched and not — must decode
to the plan's header, entries (dpu, size, page GPAs, digest) and skips,
and each entry's page run must be contiguous and hold the payload.  The
two lifetimes must also be indistinguishable on the wire: same buffer
lengths, writable flags, metadata and payload bytes — only the GPAs
differ (reservation arena vs the rolling bump allocator).  In the test
names, "naive" means a transient plan.  The last classes exercise the
invalidation rules (eviction, migration, failover) end to end.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet
from repro.sdk.transfer import XferKind, uniform_read, uniform_write
from repro.virt.guest_memory import GuestMemory
from repro.virt.migration import migrate_device
from repro.virt.plans import PlanCache, compile_plan, plan_key
from repro.virt.serialization import (
    RequestHeader,
    RequestKind,
    SkipExtent,
    deserialize_request,
)



# -- strategies --------------------------------------------------------------

#: Entry sizes hitting the layout edges: sub-word, page-aligned tails
#: (a size that is an exact multiple of PAGE_SIZE leaves a zero-length
#: tail in its last page), one-past/one-short of a page, multi-page.
entry_sizes = st.one_of(
    st.sampled_from([1, 7, 8, PAGE_SIZE - 1, PAGE_SIZE,
                     PAGE_SIZE + 1, 2 * PAGE_SIZE, 3 * PAGE_SIZE - 9]),
    st.integers(min_value=1, max_value=2 * PAGE_SIZE),
)

shapes = st.lists(entry_sizes, min_size=1, max_size=6)
offsets = st.sampled_from([0, 8, 64, PAGE_SIZE, 3 * PAGE_SIZE + 8])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _payloads(sizes, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=n, dtype=np.uint8).astype(np.uint8)
            for n in sizes]


def _digests_for(sizes, seed, cache_format):
    if not cache_format:
        return None
    rng = np.random.default_rng(seed ^ 0xD16E57)
    return {i: int(rng.integers(1, 2**63)) for i in range(len(sizes))}


def _wire(memory, sreq, kind):
    """Everything observable about a chain except the GPA values: buffer
    (length, writable, bytes) for header/metas, (length, writable) for
    the page-GPA buffers, and the payload each entry's pages hold
    (writes only — read pages are destinations)."""
    chain = sreq.chain
    metas = [(d.length, d.device_writable, memory.read(d.gpa, d.length).tobytes())
             for d in [chain[0], chain[1]] + chain[2::2]]
    page_bufs = [(d.length, d.device_writable) for d in chain[3::2]]
    payloads = [
        (dpu, size,
         memory.read(gpa, size).tobytes() if kind is XferKind.TO_DPU else b"")
        for dpu, size, gpa in sreq.data_descriptors
    ]
    return metas, page_bufs, payloads, sreq.total_pages


def _assert_decodes_to_plan(memory, plan, matrix):
    """The oracle: the chain decodes to the plan, and every entry's
    page run is contiguous and holds the payload (writes)."""
    header, entries, skips = deserialize_request(plan.sreq.chain, memory)
    assert header == plan.header
    assert skips == plan.skips
    assert [(e.dpu_index, e.size, e.page_gpas.tolist(), e.digest)
            for e in entries] == \
        [(e.dpu_index, e.size, e.page_gpas.tolist(), e.digest)
         for e in plan.entries]
    for entry, live in zip(entries, matrix.entries):
        gpas = entry.page_gpas
        assert gpas.size == max(1, -(-entry.size // PAGE_SIZE))
        assert (np.diff(gpas) == PAGE_SIZE).all(), "page run not contiguous"
        assert int(gpas[0]) % PAGE_SIZE == 0
        if matrix.kind is XferKind.TO_DPU:
            assert np.array_equal(memory.read(int(gpas[0]), entry.size),
                                  live.data)


def _compile(memory, header, matrix, digests, skips=None, batched=False):
    key = plan_key(header, matrix, digests, skips, batched=batched)
    assert key is not None, "data request must be plannable"
    return compile_plan(key, header, matrix, memory, digests, skips,
                        batched=batched)


def _transient(memory, header, matrix, digests, skips=None, batched=False):
    plan = compile_plan(None, header, matrix, memory, digests, skips,
                        batched=batched)
    assert plan.transient and plan.reservations == []
    return plan


# -- wire-level equivalence --------------------------------------------------

class TestWireEquivalence:
    @given(sizes=shapes, offset=offsets, seed=seeds,
           cache_format=st.booleans(), batched=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_planned_write_matches_naive(self, sizes, offset, seed,
                                         cache_format, batched):
        """Cached and transient compiles both decode to their plan and
        emit the same chain byte-for-byte."""
        memory = GuestMemory(64 << 20)
        matrix = uniform_write(MRAM_HEAP_SYMBOL, offset,
                               _payloads(sizes, seed))
        header = RequestHeader(RequestKind.WRITE_RANK, offset=offset,
                               symbol=MRAM_HEAP_SYMBOL)
        digests = _digests_for(sizes, seed, cache_format)

        transient = _transient(memory, header, matrix, digests, batched=batched)
        _assert_decodes_to_plan(memory, transient, matrix)
        plan = _compile(memory, header, matrix, digests, batched=batched)
        _assert_decodes_to_plan(memory, plan, matrix)
        assert (plan.matrix is None) == batched
        assert (_wire(memory, plan.sreq, XferKind.TO_DPU)
                == _wire(memory, transient.sreq, XferKind.TO_DPU))
        plan.release(memory)

    @given(sizes=shapes, offset=offsets, seed=seeds,
           cache_format=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_replay_matches_naive_with_fresh_data(self, sizes, offset, seed,
                                                  cache_format):
        """Replays refresh payloads + digests; the chain still decodes to
        the plan and equals a transient compile of the new data."""
        memory = GuestMemory(64 << 20)
        header = RequestHeader(RequestKind.WRITE_RANK, offset=offset,
                               symbol=MRAM_HEAP_SYMBOL)
        plan = _compile(
            memory, header,
            uniform_write(MRAM_HEAP_SYMBOL, offset, _payloads(sizes, seed)),
            _digests_for(sizes, seed, cache_format))

        for rep in (1, 2, 3):
            fresh = uniform_write(MRAM_HEAP_SYMBOL, offset,
                                  _payloads(sizes, seed + rep))
            digests = _digests_for(sizes, seed + rep, cache_format)
            transient = _transient(memory, header, fresh, digests)
            replayed = plan.replay(fresh, digests, None)
            assert replayed is plan.sreq
            _assert_decodes_to_plan(memory, plan, fresh)
            assert (_wire(memory, replayed, XferKind.TO_DPU)
                    == _wire(memory, transient.sreq, XferKind.TO_DPU))
        assert plan.replays == 3
        plan.release(memory)

    @given(sizes=shapes, offset=offsets, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_planned_read_matches_naive(self, sizes, offset, seed):
        memory = GuestMemory(64 << 20)
        size = max(sizes)
        matrix = uniform_read(MRAM_HEAP_SYMBOL, offset, size,
                              nr_dpus=len(sizes))
        header = RequestHeader(RequestKind.READ_RANK, offset=offset,
                               symbol=MRAM_HEAP_SYMBOL)

        transient = _transient(memory, header, matrix, None)
        _assert_decodes_to_plan(memory, transient, matrix)
        plan = _compile(memory, header, matrix, None)
        _assert_decodes_to_plan(memory, plan, matrix)
        assert (_wire(memory, plan.sreq, XferKind.FROM_DPU)
                == _wire(memory, transient.sreq, XferKind.FROM_DPU))
        for compiled in (transient, plan):
            assert len(compiled.read_views) == len(matrix.entries)
            assert all(v.size == size for v in compiled.read_views)
        plan.release(memory)

    @given(sizes=shapes, offset=offsets, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_replay_repatches_skip_digests(self, sizes, offset, seed):
        """Cache-format replays swap in fresh SKIP extents: the replayed
        chain decodes to them and equals a transient compile carrying
        the same skips."""
        memory = GuestMemory(64 << 20)
        header = RequestHeader(RequestKind.WRITE_RANK, offset=offset,
                               symbol=MRAM_HEAP_SYMBOL)
        rng = np.random.default_rng(seed ^ 0x5C1B)
        # Skips share the key with the kept entries, so both arms carry
        # the same (dpu, size) skip tuple; only the digests vary per rep.
        skip_shape = [(len(sizes) + i, int(rng.integers(1, PAGE_SIZE)))
                      for i in range(2)]

        def skips_at(rep):
            return [SkipExtent(dpu, size, digest=rep * 1000 + dpu)
                    for dpu, size in skip_shape]

        plan = _compile(
            memory, header,
            uniform_write(MRAM_HEAP_SYMBOL, offset, _payloads(sizes, seed)),
            _digests_for(sizes, seed, True), skips=skips_at(0))

        for rep in (1, 2):
            fresh = uniform_write(MRAM_HEAP_SYMBOL, offset,
                                  _payloads(sizes, seed + rep))
            digests = _digests_for(sizes, seed + rep, True)
            transient = _transient(memory, header, fresh, digests,
                               skips=skips_at(rep))
            _assert_decodes_to_plan(memory, transient, fresh)
            replayed = plan.replay(fresh, digests, skips_at(rep))
            _assert_decodes_to_plan(memory, plan, fresh)
            assert plan.skips == skips_at(rep)
            assert (_wire(memory, replayed, XferKind.TO_DPU)
                    == _wire(memory, transient.sreq, XferKind.TO_DPU))
        plan.release(memory)


# -- cache behaviour ---------------------------------------------------------

class TestPlanCacheEviction:
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_eviction_mid_sequence_stays_correct(self, seed):
        """Cycling more shapes than the LRU holds keeps evicting, and
        every replayed-or-recompiled chain still decodes to its plan and
        matches a transient compile."""
        memory = GuestMemory(64 << 20)
        cache = PlanCache(memory, capacity=2)
        sizes_by_shape = [[64], [128, 32], [PAGE_SIZE + 1]]

        for rep in range(3):
            for shape_id, sizes in enumerate(sizes_by_shape):
                offset = shape_id * (8 << 10)
                matrix = uniform_write(
                    MRAM_HEAP_SYMBOL, offset,
                    _payloads(sizes, seed + 31 * rep + shape_id))
                header = RequestHeader(RequestKind.WRITE_RANK, offset=offset,
                                       symbol=MRAM_HEAP_SYMBOL)
                key = plan_key(header, matrix, None, None, batched=False)
                plan = cache.get(key)
                if plan is None:
                    plan = compile_plan(key, header, matrix, memory,
                                        None, None, batched=False)
                    cache.insert(key, plan)
                    sreq = plan.sreq
                else:
                    sreq = plan.replay(matrix, None, None)
                _assert_decodes_to_plan(memory, plan, matrix)
                transient = _transient(memory, header, matrix, None)
                assert (_wire(memory, sreq, XferKind.TO_DPU)
                        == _wire(memory, transient.sreq, XferKind.TO_DPU))

        # 3 shapes through a 2-slot LRU in cyclic order: every visit
        # after the warm-up evicts, and nothing ever replays.
        assert cache.evictions > 0
        assert cache.nr_plans <= 2
        cache.invalidate_all()
        assert cache.nr_plans == 0


# -- end-to-end: cached plans == transient plans only ------------------------

def _session(nr_ranks=1):
    vpim = VPim(small_machine(nr_ranks=nr_ranks, dpus_per_rank=4))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    return vpim, session


def _run_reps(vpim, session, sizes, seed):
    with DpuSet(session.transport, 4) as dpus:
        t0 = vpim.machine.clock.now
        reads = []
        for rep in range(3):
            bufs = _payloads(sizes, seed + rep)
            for dpu, buf in enumerate(bufs):
                dpus.copy_to_mram(dpu, 0, buf)
            reads.append([
                dpus.copy_from_mram(dpu, 0, len(buf)).tobytes()
                for dpu, buf in enumerate(bufs)])
            for dpu, buf in enumerate(bufs):
                assert reads[-1][dpu] == buf.tobytes()
    return reads, float(vpim.machine.clock.now - t0).hex()


class TestEndToEndEquivalence:
    @given(sizes=st.lists(entry_sizes, min_size=4, max_size=4), seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_plans_do_not_change_data_or_modeled_time(self, sizes, seed):
        """Same workload through a VM whose plan cache keeps its plans
        and one that compiles a transient plan per request: identical
        read-backs and identical modeled clock advance."""
        vpim, session = _session()
        cached = _run_reps(vpim, session, sizes, seed)
        plans = session.vm.devices[0].frontend.plans
        assert plans.hits > 0, "repeated shapes must replay a compiled plan"

        with mock.patch("repro.virt.frontend.plan_key", lambda *args: None):
            vpim, session = _session()
            transient = _run_reps(vpim, session, sizes, seed)
        plans = session.vm.devices[0].frontend.plans
        assert plans.hits == plans.misses == plans.nr_plans == 0
        assert cached == transient


# -- invalidation: migration and failover ------------------------------------

class TestPlanInvalidation:
    def _warm(self, session):
        dpus = DpuSet(session.transport, 4)
        dpus.__enter__()
        # Large writes bypass the batch buffer, so each repetition is a
        # real WRITE_RANK request (the first compiles, the second replays).
        for rep in range(2):
            dpus.push_to_mram(0, [np.full(2 * PAGE_SIZE, rep + 1,
                                          np.uint8)] * 4)
            dpus.push_from_mram(0, 2 * PAGE_SIZE)
        return dpus

    def test_migration_drops_plans_and_recompiles(self):
        vpim, session = _session(nr_ranks=2)
        dpus = self._warm(session)
        device = session.vm.devices[0]
        plans = device.frontend.plans
        assert plans.nr_plans > 0 and plans.hits > 0

        invalidated_before = plans.invalidations
        migrate_device(device, vpim.manager)
        assert plans.nr_plans == 0, "migration must drop every plan"
        assert plans.invalidations > invalidated_before

        # The same shape recompiles against the new rank and the data
        # plane still round-trips correctly.
        misses_before = plans.misses
        dpus.push_to_mram(0, [np.full(512, 7, np.uint8)] * 4)
        got = dpus.push_from_mram(0, 512)
        assert all((buf == 7).all() for buf in got)
        assert plans.misses > misses_before
        dpus.__exit__(None, None, None)

    def test_failover_reason_drops_plans_but_release_does_not(self):
        """Digest-invalidation reasons that imply lost device state drop
        plans; ``release``/``load`` (plan-safe reasons) must not — plan
        validity is re-checked against guest generation and the
        backend's translation generation on every hit, which is what
        makes cross-run replay possible."""
        _, session = _session()
        dpus = self._warm(session)
        frontend = session.vm.devices[0].frontend
        assert frontend.plans.nr_plans > 0

        kept = frontend.plans.nr_plans
        frontend._invalidate_digests("release")
        assert frontend.plans.nr_plans == kept, \
            "release must not drop compiled plans"
        frontend._invalidate_digests("load")
        assert frontend.plans.nr_plans == kept

        frontend._invalidate_digests("failover")
        assert frontend.plans.nr_plans == 0, "failover must drop plans"
        assert frontend.plans.invalidations >= kept
        dpus.__exit__(None, None, None)

    def test_failover_recovery_path_replays_correctly(self):
        """After a failover-style invalidation the next transfer
        recompiles and the data plane stays correct."""
        _, session = _session()
        dpus = self._warm(session)
        frontend = session.vm.devices[0].frontend
        frontend._invalidate_digests("failover")

        dpus.push_to_mram(0, [np.full(512, 3, np.uint8)] * 4)
        got = dpus.push_from_mram(0, 512)
        assert all((buf == 3).all() for buf in got)
        assert frontend.plans.nr_plans > 0
        dpus.__exit__(None, None, None)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
