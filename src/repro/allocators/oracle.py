"""The footprint oracle: always perfectly packed.

``IdealPackingReallocator`` keeps every live object packed into a prefix of
the address space with no holes at all, moving whatever is necessary after
every request.  Its footprint is therefore exactly ``V`` — the denominator of
the paper's footprint competitive ratio — while its reallocation cost is, of
course, unbounded relative to the allocation cost.  Experiments use it both
as the footprint baseline and as a vivid illustration of the trade-off the
cost-oblivious algorithms navigate.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.core.base import Allocator


class IdealPackingReallocator(Allocator):
    """Maintains footprint exactly equal to the live volume at all times."""

    name = "ideal-packing"
    supports_reallocation = True

    def __init__(self, trace: bool = False) -> None:
        super().__init__(trace=trace)
        self._order: Dict[Hashable, None] = {}
        self._end = 0

    def _do_insert(self, name: Hashable, size: int) -> None:
        # New objects append to the packed prefix: no moves needed.
        self._place_object(name, size, self._end, reason="insert")
        self._order[name] = None
        self._end += size

    def _do_delete(self, name: Hashable, size: int) -> None:
        removed = self._free_object(name)
        del self._order[name]
        # Slide every object that sat after the hole left by ``size`` units.
        cursor = removed
        for other in self._order:
            start = self.space.start_of(other)
            length = self._sizes[other]
            if start > removed:
                self._move_object(other, cursor, reason="repack")
                cursor += length
            else:
                cursor = max(cursor, start + length)
        self._end -= size
