"""An arbitrarily large linear address space with indexed overlap detection.

The reallocators in :mod:`repro.core` mirror every placement into an
:class:`AddressSpace`.  Its two jobs are to *audit* the algorithms — raising
:class:`OverlapError` whenever two live objects would occupy the same
addresses — and to answer footprint queries (the paper's objective: the
largest allocated address).

Volume is a running counter.  Footprint comes from whichever structure the
space keeps: while validation is on, the live extents are pairwise disjoint
and the address index (below) is sorted by start, hence by end as well, so
the footprint is the end of its last entry, read in O(1).  With
``validate=False`` extents may overlap, so the space keeps a lazy max-heap
of end addresses instead; that heap is compacted whenever lazily-deleted
entries dominate, so its memory stays bounded by the live set even on
delete-heavy traces.

Overlap auditing rides on the address-ordered index: a bisect-maintained
list of ``(start, order, end, name)`` entries.  Because the live extents
are disjoint by construction, a placement can only clash with its nearest
neighbours in address order — one bisect plus two neighbour probes,
O(log n) per request instead of the pre-index scan over every live
object.  The same index makes :meth:`free_gaps` and :meth:`verify_disjoint`
single ordered walks with no sorting.  With ``validate=False`` the index is
not maintained at all (overlapping extents would break its invariant), and
the two queries fall back to sorting on demand, exactly like the pre-index
implementation.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import Counter
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.obs.telemetry import get_telemetry
from repro.storage.extent import Extent

#: Below this many heap entries compaction is never worth the rebuild.
_HEAP_COMPACT_MIN = 64


class OverlapError(RuntimeError):
    """Two live objects were placed on overlapping addresses."""


class AddressSpace:
    """Tracks which extent every live object occupies.

    Parameters
    ----------
    validate:
        When True (default) every placement and move is checked against the
        neighbouring live extents and :class:`OverlapError` is raised on a
        clash.  When False the check is skipped and the address index is not
        maintained (used for large unaudited benchmark runs).  The flag is
        fixed at construction time.
    """

    def __init__(self, validate: bool = True) -> None:
        self._validate = validate
        self._extents: Dict[Hashable, Extent] = {}
        self._volume = 0
        # Address-ordered index, maintained only while validating: entries
        # are (start, order, end, name) where ``order`` is a unique serial
        # so bisection never compares the (possibly uncomparable) names.
        self._index: List[Tuple[int, int, int, Hashable]] = []
        self._order: Dict[Hashable, int] = {}
        self._order_seq = 0
        if not validate:
            # Overlapping extents break the index's end order, so an
            # unaudited space finds its footprint in a lazy end-heap.
            self._end_counts: Counter = Counter()
            self._end_heap: List[int] = []
            self._tracked_ends = 0
        # Bound once at construction, only when telemetry is enabled; the
        # hot paths pay a single attribute-is-None check while it is off.
        telemetry = get_telemetry()
        self._c_probes = None
        self._c_compactions = None
        if telemetry.enabled:
            self._c_probes = telemetry.counter("address_space.audit_probes")
            if not validate:
                self._c_compactions = telemetry.counter("address_space.heap_compactions")

    def __setstate__(self, state: Dict) -> None:
        """Unpickle, dropping the end-heap an older audited space carried.

        Session and serve snapshots pickle whole allocators; before audited
        spaces read their footprint from the index they also kept the heap.
        """
        if state.get("_validate", True):
            for stale in ("_end_heap", "_end_counts", "_tracked_ends"):
                state.pop(stale, None)
        self.__dict__.update(state)

    @property
    def validate(self) -> bool:
        """Whether placements are audited (fixed at construction time)."""
        return self._validate

    def __len__(self) -> int:
        return len(self._extents)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._extents

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._extents)

    def extent_of(self, name: Hashable) -> Extent:
        """Return the extent occupied by ``name`` (KeyError if absent)."""
        return self._extents[name]

    def get(self, name: Hashable) -> Optional[Extent]:
        """The extent occupied by ``name``, or None if it is not placed."""
        return self._extents.get(name)

    def items(self) -> Iterator[Tuple[Hashable, Extent]]:
        return iter(self._extents.items())

    # -------------------------------------------------------------- internal
    def _find_overlap(
        self, extent: Extent, ignore: Optional[Hashable] = None
    ) -> Optional[Hashable]:
        """Nearest-neighbour overlap probe on the address-ordered index.

        Sound because the indexed extents (minus ``ignore``) are pairwise
        disjoint: sorted by start they are also sorted by end, so only the
        closest non-ignored entry on each side can reach into ``extent``.
        """
        counter = self._c_probes
        if counter is not None:
            counter.value += 1
        index = self._index
        start = extent.start
        pos = bisect_left(index, (start,))
        i = pos - 1
        while i >= 0:  # nearest predecessor (start < extent.start)
            _, _, end, name = index[i]
            if name == ignore:
                i -= 1
                continue
            if end > start:
                return name
            break
        i = pos
        size = len(index)
        end = start + extent.length
        while i < size:  # nearest successor (start >= extent.start)
            successor, _, _, name = index[i]
            if name == ignore:
                i += 1
                continue
            if successor < end:
                return name
            break
        return None

    def _index_add(self, name: Hashable, extent: Extent) -> None:
        order = self._order_seq
        self._order_seq += 1
        self._order[name] = order
        insort(self._index, (extent.start, order, extent.end, name))

    def _index_remove(self, name: Hashable, extent: Extent) -> None:
        key = (extent.start, self._order.pop(name))
        del self._index[bisect_left(self._index, key)]

    def _track_end(self, end: int) -> None:
        self._end_counts[end] += 1
        self._tracked_ends += 1
        heapq.heappush(self._end_heap, -end)

    def _untrack_end(self, end: int) -> None:
        remaining = self._end_counts[end] - 1
        if remaining:
            self._end_counts[end] = remaining
        else:
            del self._end_counts[end]
        self._tracked_ends -= 1
        heap = self._end_heap
        if (
            len(heap) > _HEAP_COMPACT_MIN
            and len(heap) - self._tracked_ends > 2 * self._tracked_ends
        ):
            # Stale (lazily deleted) entries outnumber live ones 2:1 —
            # rebuild from the distinct live end addresses.  One entry per
            # distinct end suffices: footprint() only pops ends that are no
            # longer in the counter.
            compactions = self._c_compactions
            if compactions is not None:
                compactions.value += 1
            self._end_heap = [-end for end in self._end_counts]
            heapq.heapify(self._end_heap)

    # ------------------------------------------------------------ mutation
    def place(self, name: Hashable, extent: Extent) -> None:
        """Place a new object; raises if the name exists or addresses clash."""
        if name in self._extents:
            raise KeyError(f"object {name!r} is already placed")
        if self._validate:
            clash = self._find_overlap(extent)
            if clash is not None:
                raise OverlapError(
                    f"placing {name!r} at {extent} overlaps {clash!r} at "
                    f"{self._extents[clash]}"
                )
            self._index_add(name, extent)
        else:
            self._track_end(extent.end)
        self._extents[name] = extent
        self._volume += extent.length

    def move(self, name: Hashable, extent: Extent) -> Extent:
        """Move an existing object to ``extent``; returns the old extent."""
        extents = self._extents
        old = extents.get(name)
        if old is None:
            raise KeyError(f"object {name!r} is not placed")
        if self._validate:
            clash = self._find_overlap(extent, ignore=name)
            if clash is not None:
                raise OverlapError(
                    f"moving {name!r} to {extent} overlaps {clash!r} at "
                    f"{extents[clash]}"
                )
            # The object keeps its order serial: it is unique among the
            # live names, which is all the bisection needs.
            index = self._index
            order = self._order[name]
            start = extent.start
            del index[bisect_left(index, (old.start, order))]
            insort(index, (start, order, start + extent.length, name))
        else:
            self._untrack_end(old.end)
            self._track_end(extent.end)
        extents[name] = extent
        self._volume += extent.length - old.length
        return old

    def remove(self, name: Hashable) -> Extent:
        """Remove an object and return the extent it used to occupy."""
        extent = self._extents.pop(name)
        if self._validate:
            self._index_remove(name, extent)
        else:
            self._untrack_end(extent.end)
        self._volume -= extent.length
        return extent

    # -------------------------------------------------------------- queries
    def footprint(self) -> int:
        """Largest allocated address (the paper's footprint objective)."""
        if self._validate:
            # Disjoint extents sorted by start are sorted by end too.
            index = self._index
            return index[-1][2] if index else 0
        heap = self._end_heap
        counts = self._end_counts
        while heap and -heap[0] not in counts:
            heapq.heappop(heap)
        return -heap[0] if heap else 0

    def volume(self) -> int:
        """Total size of live objects (the paper's ``V``)."""
        return self._volume

    def utilization(self) -> float:
        """Volume divided by footprint (1.0 means a perfectly packed prefix)."""
        footprint = self.footprint()
        if footprint == 0:
            return 1.0
        return self._volume / footprint

    def _ordered_spans(self) -> Iterator[Tuple[int, int, Hashable]]:
        """Yield (start, end, name) in address order; sorts only if unindexed."""
        if self._validate:
            for start, _, end, name in self._index:
                yield start, end, name
        else:
            for name, extent in sorted(
                self._extents.items(), key=lambda item: item[1].start
            ):
                yield extent.start, extent.end, name

    def free_gaps(self) -> List[Extent]:
        """Return the maximal free extents below the footprint."""
        gaps: List[Extent] = []
        cursor = 0
        for start, end, _ in self._ordered_spans():
            if start > cursor:
                gaps.append(Extent(cursor, start - cursor))
            if end > cursor:
                cursor = end
        return gaps

    def verify_disjoint(self) -> None:
        """Exhaustively re-check that all live extents are pairwise disjoint."""
        previous: Optional[Tuple[int, int, Hashable]] = None
        for span in self._ordered_spans():
            if previous is not None and previous[1] > span[0]:
                name_a, name_b = previous[2], span[2]
                raise OverlapError(
                    f"{name_a!r} at {self._extents[name_a]} overlaps "
                    f"{name_b!r} at {self._extents[name_b]}"
                )
            previous = span

    def snapshot(self) -> Dict[Hashable, Extent]:
        """A copy of the current name -> extent mapping."""
        return dict(self._extents)
