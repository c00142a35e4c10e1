"""Guest physical memory and GPA->HVA translation.

Firecracker maps the whole VM memory into its own address space, so every
guest physical address (GPA) corresponds to a host virtual address (HVA)
at a fixed offset.  The frontend serializes transfer matrices as arrays
of GPAs; the backend translates them to HVAs to reach the pages without
copying (Section 4.2 "Zero-copy Request Handling").
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.config import PAGE_SIZE
from repro.errors import TranslationError
from repro.hardware.memory import MemoryRegion

#: Host virtual address at which guest physical page 0 is mapped.
HVA_BASE = 0x7F00_0000_0000


class GuestMemory:
    """The VM's physical address space plus a bump page allocator (the GPA
    space that §4.2's zero-copy translation resolves to HVAs).

    The allocator hands out contiguous page runs from a rolling arena;
    requests are synchronous, so pages can be recycled once the arena
    wraps (the guest driver reuses its DMA area the same way).
    """

    def __init__(self, size: int, arena_bytes: int = 512 << 20) -> None:
        self.size = size
        self.region = MemoryRegion(size, name="guest-ram")
        self._arena_start = 1 << 20  # leave the first MiB alone (BIOS area)
        self._arena_bytes = min(arena_bytes, size - self._arena_start)
        self._arena_cursor = 0
        # Long-lived plan reservations grow *downward* from the arena top;
        # the rolling bump allocator keeps the shrinking bottom part.
        self._reserve_floor = self._arena_start + self._arena_bytes
        self._free_reservations: Dict[int, List[int]] = {}

    # -- page allocation ------------------------------------------------------

    @property
    def _bump_limit(self) -> int:
        return self._reserve_floor - self._arena_start

    def alloc_pages(self, nr_pages: int) -> int:
        """Return the GPA of a fresh run of ``nr_pages`` contiguous pages."""
        need = nr_pages * PAGE_SIZE
        limit = self._bump_limit
        if need > limit:
            raise TranslationError(
                f"request for {nr_pages} pages exceeds the "
                f"{limit}-byte DMA arena"
            )
        if self._arena_cursor + need > limit:
            self._arena_cursor = 0  # wrap: previous requests have completed
        gpa = self._arena_start + self._arena_cursor
        self._arena_cursor += need
        return gpa

    def reserve_pages(self, nr_pages: int) -> int:
        """Claim a *stable* run of ``nr_pages`` pages for a compiled plan.

        Unlike :meth:`alloc_pages`, reserved runs are never recycled by
        the rolling arena — they stay valid for the plan's lifetime and
        return to a free list via :meth:`release_reservation`.  Runs that
        fit inside one backing extent are aligned so they never straddle
        an extent boundary (keeping the payload pinnable as one view).
        At most half of the arena may be reserved; beyond that the plan
        cache serves the shape with transient plans.
        """
        need = nr_pages * PAGE_SIZE
        free = self._free_reservations.get(need)
        if free:
            return free.pop()
        gpa = ((self._reserve_floor - need) // PAGE_SIZE) * PAGE_SIZE
        ext = self.region.extent_bytes
        if need <= ext:
            boundary = (gpa // ext) * ext
            if gpa + need > boundary + ext:
                gpa = boundary + ext - need
        if gpa < self._arena_start + self._arena_bytes // 2:
            raise TranslationError(
                f"reservation of {nr_pages} pages would shrink the DMA "
                "arena below half capacity"
            )
        self._reserve_floor = gpa
        return gpa

    def release_reservation(self, gpa: int, nr_pages: int) -> None:
        """Return a reserved run to the free list for same-size reuse."""
        self._free_reservations.setdefault(nr_pages * PAGE_SIZE, []).append(gpa)

    def pin_span(self, gpa: int, length: int) -> np.ndarray:
        """Writable view of guest bytes (see :meth:`MemoryRegion.pin_span`)."""
        return self.region.pin_span(gpa, length)

    def pin_chunks(self, gpa: int, length: int) -> List[np.ndarray]:
        """Writable per-extent views of guest bytes: one view when the run
        fits one backing extent (an empty one when ``length`` is 0)."""
        return (self.region.pin_chunks(gpa, length)
                or [self.region.pin_span(gpa, 0)])

    # -- data access ------------------------------------------------------------

    def write(self, gpa: int, data: np.ndarray) -> None:
        self.region.write(gpa, data)

    def read(self, gpa: int, length: int) -> np.ndarray:
        return self.region.read(gpa, length)

    # -- translation ---------------------------------------------------------------

    def gpa_to_hva(self, gpa: int) -> int:
        """Translate one GPA; raises on out-of-range addresses."""
        if not 0 <= gpa < self.size:
            raise TranslationError(
                f"GPA {gpa:#x} outside guest memory of {self.size} bytes"
            )
        return HVA_BASE + gpa

    def hva_to_gpa(self, hva: int) -> int:
        gpa = hva - HVA_BASE
        if not 0 <= gpa < self.size:
            raise TranslationError(f"HVA {hva:#x} does not map into the guest")
        return gpa

    def translate_pages(self, gpas: np.ndarray) -> np.ndarray:
        """Vectorized GPA->HVA for a page buffer (u64 array)."""
        arr = np.asarray(gpas, dtype=np.uint64)
        if arr.size and (int(arr.max()) >= self.size):
            bad = int(arr.max())
            raise TranslationError(
                f"GPA {bad:#x} outside guest memory of {self.size} bytes"
            )
        return arr + np.uint64(HVA_BASE)
