"""Payload pages of a compiled plan (the zero-copy data plane).

A plan writes each entry's payload into its guest page run and hands the
backend views over those pages: the write payload it applies and the
read destinations it deposits into.  These tests pin the wire behavior
the rest of the stack relies on: non-page-aligned tails, empty slices,
size checks, and — via hypothesis — byte-for-byte agreement with a
per-page reference loop over the entry's page GPAs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE
from repro.errors import SerializationError
from repro.sdk.transfer import uniform_read, uniform_write
from repro.virt.guest_memory import GuestMemory
from repro.virt.plans import TransferPlan, compile_plan
from repro.virt.serialization import RequestHeader, RequestKind


def make_entry(memory: GuestMemory, payload: np.ndarray) -> TransferPlan:
    """A transient write plan carrying ``payload`` to DPU 0."""
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    return compile_plan(None, header,
                        uniform_write(MRAM_HEAP_SYMBOL, 0, [payload]),
                        memory, None, None, batched=False)


def make_read(memory: GuestMemory, size: int) -> TransferPlan:
    """A transient read plan of ``size`` bytes from DPU 0."""
    header = RequestHeader(kind=RequestKind.READ_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    return compile_plan(None, header,
                        uniform_read(MRAM_HEAP_SYMBOL, 0, size, nr_dpus=1),
                        memory, None, None, batched=False)


def gathered(plan: TransferPlan) -> np.ndarray:
    """The payload the backend applies: the plan's view of the pages."""
    return plan.matrix.entries[0].data


def reference_gather(plan: TransferPlan,
                     memory: GuestMemory) -> np.ndarray:
    """A per-page loop over the entry's page GPAs, kept as the oracle."""
    entry = plan.entries[0]
    pages = [memory.read(int(gpa), PAGE_SIZE) for gpa in entry.page_gpas]
    return np.concatenate(pages)[:entry.size]


@pytest.fixture
def memory() -> GuestMemory:
    return GuestMemory(64 << 20)


class TestGatherTails:
    def test_non_page_aligned_tail(self, memory):
        payload = np.arange(PAGE_SIZE + 137, dtype=np.uint8) % 251
        plan = make_entry(memory, payload.astype(np.uint8))
        assert np.array_equal(gathered(plan), payload)
        assert np.array_equal(reference_gather(plan, memory), payload)

    def test_single_byte_entry(self, memory):
        payload = np.array([42], dtype=np.uint8)
        plan = make_entry(memory, payload)
        out = gathered(plan)
        assert out.size == 1 and out[0] == 42

    def test_exact_page_multiple(self, memory):
        payload = (np.arange(3 * PAGE_SIZE) % 256).astype(np.uint8)
        plan = make_entry(memory, payload)
        assert plan.entries[0].page_gpas.size == 3
        assert np.array_equal(gathered(plan), payload)

    def test_tail_page_bytes_beyond_size_not_included(self, memory):
        # Fill the tail page's slack with a sentinel; the applied payload
        # must be exactly `size` bytes, never the slack.
        payload = np.full(PAGE_SIZE // 2, 7, dtype=np.uint8)
        plan = make_entry(memory, payload)
        memory.write(int(plan.entries[0].page_gpas[0]) + payload.size,
                     np.full(PAGE_SIZE - payload.size, 0xEE, dtype=np.uint8))
        out = gathered(plan)
        assert out.size == payload.size
        assert (out == 7).all()


class TestZeroLengthSlices:
    def test_zero_length_entry_gathers_empty(self, memory):
        # A DPU with no slice still occupies one page in the wire format.
        plan = make_entry(memory, np.empty(0, dtype=np.uint8))
        assert plan.entries[0].page_gpas.size == 1
        assert gathered(plan).size == 0

    def test_zero_length_scatter_roundtrip(self, memory):
        plan = make_read(memory, 0)
        plan.deposit([np.empty(0, dtype=np.uint8)])
        assert plan.read_views[0].size == 0
        assert reference_gather(plan, memory).size == 0


class TestScatterChecks:
    def test_scatter_rejects_size_mismatch(self, memory):
        plan = make_read(memory, PAGE_SIZE)
        with pytest.raises(SerializationError):
            plan.deposit([np.ones(PAGE_SIZE + 1, dtype=np.uint8)])


payload_sizes = st.one_of(
    st.integers(0, 3 * PAGE_SIZE),
    st.sampled_from([PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1,
                     2 * PAGE_SIZE, 2 * PAGE_SIZE + 1]),
)


class TestAgainstReferenceLoop:
    @settings(max_examples=40, deadline=None)
    @given(size=payload_sizes, seed=st.integers(0, 2**31 - 1))
    def test_batched_gather_matches_per_page_loop(self, size, seed):
        memory = GuestMemory(64 << 20)
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size, dtype=np.uint8)
        plan = make_entry(memory, payload)
        assert np.array_equal(gathered(plan), reference_gather(plan, memory))
        assert np.array_equal(gathered(plan), payload)

    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(1, 2 * PAGE_SIZE + 17),
           seed=st.integers(0, 2**31 - 1))
    def test_scatter_then_gather_roundtrip(self, size, seed):
        memory = GuestMemory(64 << 20)
        rng = np.random.default_rng(seed)
        plan = make_read(memory, size)
        payload = rng.integers(0, 256, size, dtype=np.uint8)
        plan.deposit([payload])
        assert np.array_equal(reference_gather(plan, memory), payload)
