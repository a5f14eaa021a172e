"""Classical non-moving allocators built on an indexed free list.

These implement the *memory allocation* problem the paper contrasts with:
once placed, an object never moves, so the only lever is which free gap to
choose.  The footprint competitive ratio of every such policy is
``Omega(log)`` in the worst case (Luby, Naor and Orda 1996), which experiment
E3 demonstrates against the cost-oblivious reallocator.

That lower bound is about footprint, not time: the gap *selection* itself is
O(log n) per request here.  The gaps live in a
:class:`~repro.storage.gap_index.GapIndex` — an address-ordered treap with
subtree max lengths, plus a size-ordered treap that only Best Fit and Worst
Fit keep (their :attr:`~FreeListAllocator.uses_size_order`) — so every
policy is a single index query, instead of the linear scans a flat list
needs.  An insert shrinks its gap in place and a delete grows or merges its
neighbours in place, coalescing on the same descent; the high-water mark
drops when a freed extent would end in a trailing gap.  Every policy's
choice is identical to what the scan would have picked.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.core.base import Allocator
from repro.storage.extent import Extent
from repro.storage.gap_index import GapIndex


class FreeListAllocator(Allocator):
    """Base class for free-list policies; subclasses pick the gap.

    The free list holds maximal free extents *below* the high-water mark in
    a :class:`GapIndex`.  Inserts either reuse a gap (per policy) or extend
    the high-water mark; deletes return the extent to the index, which
    coalesces it with adjacent gaps.
    """

    name = "free-list"
    supports_reallocation = False
    #: Whether :meth:`_select_gap` queries the gap index's size order; a
    #: policy that does not leaves it unbuilt, so gap updates skip it.
    uses_size_order = False

    def __init__(self, trace: bool = False, audit: bool = True) -> None:
        super().__init__(trace=trace, audit=audit)
        self._gaps = GapIndex(size_order=self.uses_size_order)
        self._high_water = 0

    # ----------------------------------------------------------- policy hook
    def _select_gap(self, size: int) -> Optional[int]:
        """Return the start address of the gap to use, or None to extend."""
        raise NotImplementedError

    # -------------------------------------------------------------- requests
    def _do_insert(self, name: Hashable, size: int) -> None:
        address = self._select_gap(size)
        extended = address is None
        if extended:
            address = self._high_water
            self._high_water += size
        else:
            self._gaps.take(address, size)
        try:
            self._place_object(name, size, address, reason="insert")
        except BaseException:
            # Keep the free list and high-water mark in step with the
            # rollback Allocator._serve_insert performs on the address
            # space, so the failed insert can be retried.
            if extended:
                self._high_water = address
            else:
                self._high_water = self._gaps.release(Extent(address, size), self._high_water)
            raise

    def _do_delete(self, name: Hashable, size: int) -> None:
        # The index coalesces with adjacent gaps and lowers the high-water
        # mark instead of keeping a trailing gap.
        self._high_water = self._gaps.release(self._free_object(name), self._high_water)

    # ------------------------------------------------------------- free list
    def free_extents(self) -> List[Extent]:
        """The current gaps below the high-water mark, in address order."""
        return self._gaps.free_extents()

    def free_volume(self) -> int:
        """Total free space below the high-water mark (O(1) running counter)."""
        return self._gaps.total_free

    @property
    def high_water(self) -> int:
        return self._high_water


class FirstFitAllocator(FreeListAllocator):
    """Use the lowest-addressed gap that fits."""

    name = "first-fit"

    def _select_gap(self, size: int) -> Optional[int]:
        return self._gaps.first_fit(size)


class BestFitAllocator(FreeListAllocator):
    """Use the smallest gap that fits (ties broken by address)."""

    name = "best-fit"
    uses_size_order = True

    def _select_gap(self, size: int) -> Optional[int]:
        return self._gaps.best_fit(size)


class WorstFitAllocator(FreeListAllocator):
    """Use the largest gap that fits."""

    name = "worst-fit"
    uses_size_order = True

    def _select_gap(self, size: int) -> Optional[int]:
        return self._gaps.worst_fit(size)


class NextFitAllocator(FreeListAllocator):
    """First Fit with a roving pointer that resumes where the last search ended.

    The rover is a *position* in the address-ordered gap list (exactly the
    index the flat-list implementation kept), so every placement matches
    the seed scan request for request — but the probe itself is a
    rank-bounded :meth:`GapIndex.next_fit` query (O(log n), with one extra
    descent on wrap-around) instead of a linear walk of the gap list.
    """

    name = "next-fit"

    def __init__(self, trace: bool = False, audit: bool = True) -> None:
        super().__init__(trace=trace, audit=audit)
        self._rover = 0

    def _select_gap(self, size: int) -> Optional[int]:
        found = self._gaps.next_fit(size, self._rover)
        if found is None:
            return None
        self._rover, start = found
        return start


class AppendOnlyAllocator(FreeListAllocator):
    """Never reuses freed space: the worst-case non-moving baseline.

    Models a log-structured store without any compaction; its footprint
    equals the total volume ever allocated.
    """

    name = "append-only"

    def _select_gap(self, size: int) -> Optional[int]:
        return None

    def _do_delete(self, name: Hashable, size: int) -> None:
        # Drop the extent without returning it to any free list.
        self._free_object(name)
