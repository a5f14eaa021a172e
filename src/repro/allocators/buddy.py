"""Binary buddy allocator (Knowlton 1965).

Sizes are rounded up to powers of two; blocks split recursively and merge
with their "buddy" when both halves are free.  A classical non-moving
allocator with bounded external fragmentation but up to 2x internal
fragmentation — a useful middle ground between the free-list policies and
the reallocating algorithms in experiment E3.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set

from repro.core.base import Allocator


def _order_of(size: int) -> int:
    """Smallest k with 2**k >= size."""
    return max(0, (size - 1).bit_length())


class BuddyAllocator(Allocator):
    """Power-of-two buddy system over a growable arena.

    The arena grows by appending top-level blocks of ``2**max_order`` units
    whenever no free block can satisfy a request, so the address space is
    unbounded like the other allocators here.
    """

    name = "buddy"
    supports_reallocation = False

    def __init__(self, max_order: int = 12, trace: bool = False) -> None:
        if max_order < 0:
            raise ValueError("max_order must be nonnegative")
        super().__init__(trace=trace)
        self.max_order = max_order
        #: free[k] = set of start addresses of free blocks of size 2**k.
        self._free: Dict[int, Set[int]] = {k: set() for k in range(max_order + 1)}
        self._arena_end = 0
        #: Block order actually reserved for each live object.
        self._orders: Dict[Hashable, int] = {}

    # ---------------------------------------------------------------- sizing
    def reserved_volume(self) -> int:
        """Volume including internal fragmentation (rounded-up blocks)."""
        return sum(1 << order for order in self._orders.values())

    def _grow_arena(self, order: int) -> None:
        """Append a fresh, aligned top-level block that can hold ``order``.

        Top-level blocks are aligned to their own size so the xor-based buddy
        arithmetic below is valid inside each block; blocks from different
        growth steps are never merged with each other.
        """
        top = max(order, self.max_order)
        block = 1 << top
        start = (self._arena_end + block - 1) // block * block
        self._arena_end = start + block
        self._free.setdefault(top, set()).add(start)

    def _allocate_block(self, order: int) -> int:
        """Return the start of a free block of exactly ``order``."""
        available = [
            k for k in sorted(self._free) if k >= order and self._free[k]
        ]
        if not available:
            self._grow_arena(order)
            available = [
                k for k in sorted(self._free) if k >= order and self._free[k]
            ]
        k = available[0]
        start = min(self._free[k])
        self._free[k].discard(start)
        # Split down to the requested order, freeing the upper halves.
        while k > order:
            k -= 1
            buddy = start + (1 << k)
            self._free.setdefault(k, set()).add(buddy)
        return start

    def _release_block(self, start: int, order: int) -> None:
        """Return a block to the free lists, merging buddies upward.

        Merging stops at ``max_order`` (the size of a top-level growth block)
        so blocks belonging to different growth steps never coalesce.
        """
        k = order
        while k < self.max_order:
            buddy = start ^ (1 << k)
            bucket = self._free.setdefault(k, set())
            if buddy in bucket:
                bucket.discard(buddy)
                start = min(start, buddy)
                k += 1
            else:
                break
        self._free.setdefault(k, set()).add(start)

    # -------------------------------------------------------------- requests
    def _do_insert(self, name: Hashable, size: int) -> None:
        order = _order_of(size)
        address = self._allocate_block(order)
        self._orders[name] = order
        self._place_object(name, size, address, reason="insert")

    def _do_delete(self, name: Hashable, size: int) -> None:
        start = self._free_object(name)
        order = self._orders.pop(name)
        self._release_block(start, order)
