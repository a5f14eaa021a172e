"""The logging-and-compacting reallocator from the paper's Section 2 intuition.

Objects are appended left to right; deletions leave holes; whenever the
footprint reaches ``threshold * V`` the whole structure is compacted (every
object slides left, preserving order).  For a *linear* cost function this is
``(2, 2)``-competitive — the ``V`` worth of deleted volume since the last
compaction pays for moving the surviving ``V``.  For a *constant* (seek-
dominated) cost function it is terrible: deleting a few huge objects forces
the movement of arbitrarily many small ones, i.e. ``Theta(Delta)`` amortized
cost per deletion — exactly the behaviour experiment E3 exhibits.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.core.base import Allocator


class LoggingCompactingReallocator(Allocator):
    """Append-only allocation with periodic full compaction.

    Parameters
    ----------
    threshold:
        Compaction is triggered when ``footprint > threshold * V`` after a
        deletion (and on insertion when the bump pointer passes it).  The
        paper's analysis uses 2.
    """

    name = "logging-compact"
    supports_reallocation = True

    def __init__(self, threshold: float = 2.0, trace: bool = False) -> None:
        if threshold <= 1.0:
            raise ValueError("threshold must exceed 1")
        super().__init__(trace=trace)
        self.threshold = threshold
        self._bump = 0
        #: Insertion order of live objects (dict preserves ordering).
        self._order: Dict[Hashable, None] = {}

    def _do_insert(self, name: Hashable, size: int) -> None:
        self._maybe_compact(extra=size)
        self._place_object(name, size, self._bump, reason="insert")
        self._order[name] = None
        self._bump += size

    def _do_delete(self, name: Hashable, size: int) -> None:
        self._free_object(name)
        del self._order[name]
        if self.space.footprint() < self._bump:
            self._bump = self.space.footprint()
        self._maybe_compact(extra=0)

    def _maybe_compact(self, extra: int) -> None:
        volume = self.volume + extra
        if volume == 0:
            self._bump = 0
            return
        if self._bump + extra <= self.threshold * volume:
            return
        cursor = 0
        for name in self._order:
            self._move_object(name, cursor, reason="compact")
            cursor += self._sizes[name]
        self._bump = cursor
