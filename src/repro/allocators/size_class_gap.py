"""The constant-reallocation-cost scheme sketched in the paper's Section 2.

"Conceptually, round the object sizes up to the next power of 2 to form size
classes ... group the objects by increasing size.  Between the i-th and
(i+1)-st size class, there is either a gap of size 2^i or no gap.  To insert
an object of size 2^i, put the object into the gap after the i-th size class
if one exists, or displace a larger object to make space otherwise; then
recursively reinsert the larger object."  (Bender, Fekete, Kamphans, Schweer
2009.)

The amortized number of moves per insert is ``O(1)`` and the moved *volume*
per insert forms a geometric series over the larger classes, so the scheme is
excellent for constant (seek-dominated) costs — but for linear costs it is
only ``(O(1), Theta(log Delta))``-competitive, which experiment E3
reproduces.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.core.base import Allocator


def _class_of(size: int) -> int:
    """Size class = smallest k with 2**k >= size (0-indexed here)."""
    return max(0, (size - 1).bit_length())


class SizeClassGapReallocator(Allocator):
    """Objects grouped by rounded size class with per-class slack.

    Every object of class ``k`` occupies a rounded slot of exactly ``2**k``
    units (the object's data sits at the slot's start).  Nonempty classes are
    laid out in increasing class order; the free space between a class's last
    slot and the next class's first slot absorbs insertions without movement.
    When there is no such space, the first slot of the next occupied class is
    stolen: its object is displaced and recursively reinserted into its own
    class, so an insert moves at most one object per larger size class.
    """

    name = "size-class-gap"
    supports_reallocation = True

    def __init__(self, trace: bool = False) -> None:
        super().__init__(trace=trace)
        #: class -> ordered list of object names occupying the zone's slots.
        self._zones: Dict[int, List[Hashable]] = {}
        #: class -> start address of the zone's first slot.
        self._zone_start: Dict[int, int] = {}

    # --------------------------------------------------------------- helpers
    def _zone_end(self, cls: int) -> int:
        return self._zone_start[cls] + len(self._zones[cls]) * (1 << cls)

    def _next_class(self, cls: int) -> Optional[int]:
        larger = [c for c in self._zones if c > cls]
        return min(larger) if larger else None

    def _prev_class(self, cls: int) -> Optional[int]:
        smaller = [c for c in self._zones if c < cls]
        return max(smaller) if smaller else None

    def reserved_volume(self) -> int:
        """Volume including rounding of every object to its power-of-two slot."""
        return sum(len(names) * (1 << cls) for cls, names in self._zones.items())

    # -------------------------------------------------------------- requests
    def _do_insert(self, name: Hashable, size: int) -> None:
        self._insert_into_class(name, size, _class_of(size), is_new=True)

    def _do_delete(self, name: Hashable, size: int) -> None:
        cls = _class_of(size)
        zone = self._zones[cls]
        index = zone.index(name)
        start = self.space.start_of(name)
        last = zone[-1]
        if last != name:
            # Keep the zone's slots contiguous: the last object backfills the
            # vacated slot (one move, the scheme's only per-delete work).
            zone[index] = last
            zone.pop()
            self._free_object(name)
            self._move_object(last, start, reason="backfill")
        else:
            zone.pop()
            self._free_object(name)
        if not zone:
            del self._zones[cls]
            del self._zone_start[cls]

    # --------------------------------------------------------------- insert
    def _insert_into_class(self, name: Hashable, size: int, cls: int, is_new: bool) -> None:
        if cls not in self._zones:
            previous = self._prev_class(cls)
            start = self._zone_end(previous) if previous is not None else 0
            self._zones[cls] = []
            self._zone_start[cls] = start
        slot = 1 << cls
        end = self._zone_end(cls)
        nxt = self._next_class(cls)
        if nxt is not None and self._zone_start[nxt] - end < slot:
            # No room before the next class: displace its first object and
            # recursively reinsert it into its own class, which frees a
            # 2**nxt slot right where we need the space.
            victim = self._zones[nxt].pop(0)
            self._zone_start[nxt] += 1 << nxt
            if not self._zones[nxt]:
                # Keep the (momentarily empty) zone registered so the victim
                # returns to it at its advanced position.
                pass
            self._insert_into_class(victim, self._sizes[victim], nxt, is_new=False)
        address = end
        self._zones[cls].append(name)
        if is_new:
            self._place_object(name, size, address, reason="insert")
        else:
            self._move_object(name, address, reason="displace")
