"""Guest memory: allocation, per-extent pinning, translation."""

import numpy as np
import pytest

from repro.config import PAGE_SIZE
from repro.errors import TranslationError
from repro.virt.guest_memory import GuestMemory, HVA_BASE


@pytest.fixture
def mem() -> GuestMemory:
    return GuestMemory(256 << 20, arena_bytes=16 << 20)


def test_alloc_pages_are_page_aligned(mem):
    gpa = mem.alloc_pages(4)
    assert gpa % PAGE_SIZE == 0


def test_alloc_pages_contiguous_and_distinct(mem):
    a = mem.alloc_pages(2)
    b = mem.alloc_pages(2)
    assert b == a + 2 * PAGE_SIZE


def test_arena_wraps(mem):
    first = mem.alloc_pages(1)
    for _ in range(10_000):
        mem.alloc_pages(100)
    again = mem.alloc_pages(1)
    assert again >= first  # wrapped back into the arena, not past it


def test_alloc_larger_than_arena_rejected(mem):
    with pytest.raises(TranslationError):
        mem.alloc_pages((32 << 20) // PAGE_SIZE)


def test_data_roundtrip(mem):
    gpa = mem.alloc_pages(1)
    mem.write(gpa, np.arange(100, dtype=np.uint8))
    assert np.array_equal(mem.read(gpa, 100), np.arange(100, dtype=np.uint8))


def test_gpa_hva_translation(mem):
    assert mem.gpa_to_hva(0) == HVA_BASE
    assert mem.gpa_to_hva(4096) == HVA_BASE + 4096
    assert mem.hva_to_gpa(HVA_BASE + 4096) == 4096


def test_translation_bounds(mem):
    with pytest.raises(TranslationError):
        mem.gpa_to_hva(mem.size)
    with pytest.raises(TranslationError):
        mem.gpa_to_hva(-1)
    with pytest.raises(TranslationError):
        mem.hva_to_gpa(HVA_BASE - 1)


def test_vectorized_translation(mem):
    gpas = np.array([0, 4096, 8192], dtype=np.uint64)
    hvas = mem.translate_pages(gpas)
    assert np.array_equal(hvas, gpas + np.uint64(HVA_BASE))


def test_vectorized_translation_bounds(mem):
    with pytest.raises(TranslationError):
        mem.translate_pages(np.array([mem.size], dtype=np.uint64))


def test_rolling_runs_pack_tightly_and_pin_per_extent(mem):
    """The bump allocator packs runs back to back (a transient request
    costs only its own pages); a run crossing an extent boundary pins as
    per-extent chunks that cover it exactly."""
    ext = mem.region.extent_bytes
    nr_pages = 1000
    gpa = mem.alloc_pages(nr_pages)
    while gpa // ext == (gpa + nr_pages * PAGE_SIZE - 1) // ext:
        nxt = mem.alloc_pages(nr_pages)
        assert nxt == gpa + nr_pages * PAGE_SIZE
        gpa = nxt
    chunks = mem.pin_chunks(gpa, nr_pages * PAGE_SIZE)
    assert len(chunks) == 2
    assert chunks[0].size == ext - gpa % ext
    assert sum(c.size for c in chunks) == nr_pages * PAGE_SIZE
    payload = (np.arange(nr_pages * PAGE_SIZE) % 251).astype(np.uint8)
    mem.write(gpa, payload)
    assert np.array_equal(np.concatenate(chunks), payload)


def test_pin_chunks_of_nothing_is_one_empty_view(mem):
    (view,) = mem.pin_chunks(mem.alloc_pages(1), 0)
    assert view.size == 0
