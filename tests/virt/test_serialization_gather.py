"""Batched scatter-gather correctness (the zero-copy data plane).

``gather_entry_data``/``scatter_entry_data`` moved from a per-page Python
loop to one bulk copy per contiguous page run.  These tests pin the wire
behavior the rest of the stack relies on: non-page-aligned tails, empty
slices, size checks, and — via hypothesis — byte-for-byte agreement with
the original per-page reference loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE
from repro.errors import SerializationError
from repro.virt.guest_memory import GuestMemory
from repro.virt.serialization import (
    SerializedEntry,
    gather_entry_data,
    scatter_entry_data,
)


def make_entry(memory: GuestMemory, payload: np.ndarray,
               dpu_index: int = 0) -> SerializedEntry:
    """Allocate pages for ``payload``, write it, and describe it."""
    nr_pages = max(1, -(-payload.size // PAGE_SIZE))
    gpa = memory.alloc_pages(nr_pages)
    memory.write(gpa, payload)
    page_gpas = (np.arange(nr_pages, dtype=np.uint64) * PAGE_SIZE
                 + np.uint64(gpa))
    return SerializedEntry(dpu_index=dpu_index, size=payload.size,
                           page_gpas=page_gpas)


def reference_gather(entry: SerializedEntry,
                     memory: GuestMemory) -> np.ndarray:
    """The original per-page gather loop, kept as the oracle."""
    out = np.empty(entry.page_gpas.size * PAGE_SIZE, dtype=np.uint8)
    pos = 0
    for start, nr in GuestMemory.contiguous_runs(entry.page_gpas):
        span = nr * PAGE_SIZE
        out[pos:pos + span] = memory.read(start, span)
        pos += span
    return out[:entry.size]


@pytest.fixture
def memory() -> GuestMemory:
    return GuestMemory(64 << 20)


class TestGatherTails:
    def test_non_page_aligned_tail(self, memory):
        payload = np.arange(PAGE_SIZE + 137, dtype=np.uint8) % 251
        entry = make_entry(memory, payload.astype(np.uint8))
        assert np.array_equal(gather_entry_data(entry, memory), payload)

    def test_single_byte_entry(self, memory):
        payload = np.array([42], dtype=np.uint8)
        entry = make_entry(memory, payload)
        out = gather_entry_data(entry, memory)
        assert out.size == 1 and out[0] == 42

    def test_exact_page_multiple(self, memory):
        payload = (np.arange(3 * PAGE_SIZE) % 256).astype(np.uint8)
        entry = make_entry(memory, payload)
        assert np.array_equal(gather_entry_data(entry, memory), payload)

    def test_tail_page_bytes_beyond_size_not_included(self, memory):
        # Fill the tail page's slack with a sentinel; the gather must
        # return exactly `size` bytes, never the slack.
        payload = np.full(PAGE_SIZE // 2, 7, dtype=np.uint8)
        entry = make_entry(memory, payload)
        memory.write(int(entry.page_gpas[0]) + payload.size,
                     np.full(PAGE_SIZE - payload.size, 0xEE, dtype=np.uint8))
        out = gather_entry_data(entry, memory)
        assert out.size == payload.size
        assert (out == 7).all()


class TestZeroLengthSlices:
    def test_zero_length_entry_gathers_empty(self, memory):
        # A DPU with no slice still occupies one page in the wire format.
        gpa = memory.alloc_pages(1)
        entry = SerializedEntry(dpu_index=0, size=0,
                                page_gpas=np.array([gpa], dtype=np.uint64))
        out = gather_entry_data(entry, memory)
        assert out.size == 0

    def test_zero_length_scatter_roundtrip(self, memory):
        gpa = memory.alloc_pages(1)
        entry = SerializedEntry(dpu_index=0, size=0,
                                page_gpas=np.array([gpa], dtype=np.uint64))
        scatter_entry_data(entry, np.empty(0, dtype=np.uint8), memory)
        assert gather_entry_data(entry, memory).size == 0


class TestScatterChecks:
    def test_scatter_rejects_size_mismatch(self, memory):
        payload = np.ones(PAGE_SIZE, dtype=np.uint8)
        entry = make_entry(memory, payload)
        with pytest.raises(SerializationError):
            scatter_entry_data(entry, np.ones(PAGE_SIZE + 1, dtype=np.uint8),
                               memory)


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
        entry = make_entry(memory, payload)
        batched = gather_entry_data(entry, memory)
        assert np.array_equal(batched, reference_gather(entry, memory))
        assert np.array_equal(batched, payload)

    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(1, 2 * PAGE_SIZE + 17),
           seed=st.integers(0, 2**31 - 1))
    def test_scatter_then_gather_roundtrip(self, size, seed):
        memory = GuestMemory(64 << 20)
        rng = np.random.default_rng(seed)
        nr_pages = -(-size // PAGE_SIZE)
        gpa = memory.alloc_pages(nr_pages)
        entry = SerializedEntry(
            dpu_index=3, size=size,
            page_gpas=(np.arange(nr_pages, dtype=np.uint64) * PAGE_SIZE
                       + np.uint64(gpa)))
        payload = rng.integers(0, 256, size, dtype=np.uint8)
        scatter_entry_data(entry, payload, memory)
        assert np.array_equal(gather_entry_data(entry, memory), payload)
