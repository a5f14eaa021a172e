"""An arbitrarily large linear address space with indexed overlap detection.

The reallocators in :mod:`repro.core` mirror every placement into an
:class:`AddressSpace`.  Its two jobs are to *audit* the algorithms — raising
:class:`OverlapError` whenever two live objects would occupy the same
addresses — and to answer footprint queries (the paper's objective: the
largest allocated address).

The space speaks plain integers.  :meth:`~AddressSpace.place` takes a start
and a length and is the one place a span is validated; ``move`` takes a
new start; ``remove`` and ``start_of`` return a start.  The name map holds
each object's index entry ``(start, order, end, name)`` itself, ``order``
being a unique serial so bisection never compares the (possibly
uncomparable) names.  An :class:`~repro.storage.extent.Extent` is built only
for a caller that asks for one: ``extent_of``, ``get``, ``items``,
``snapshot`` and ``free_gaps``.

Volume is a running counter.  Every placement is audited, so the live
extents are pairwise disjoint and the address index (a bisect-maintained
list of the same entries) is sorted by start, hence by end as well, so the
footprint is the end of its last entry.  A placement can only clash with
its nearest neighbours in address order: one bisect plus two neighbour
probes.  Most flush moves stay clear of both neighbours, so the entry keeps
its rank and is overwritten in place; other moves probe with their own
entry skipped, then delete and re-insert it.  The index also makes
:meth:`free_gaps` and :meth:`verify_disjoint` single ordered walks.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.obs.telemetry import get_telemetry
from repro.storage.extent import Extent

#: An object's entry, in the name map and the address index alike.
_Entry = Tuple[int, int, int, Hashable]


class OverlapError(RuntimeError):
    """Two live objects were placed on overlapping addresses."""


class AddressSpace:
    """Tracks which extent every live object occupies, auditing every
    placement and move against its neighbours in address order."""

    def __init__(self) -> None:
        #: name -> (start, order, end, name), the entry the index holds.
        self._entries: Dict[Hashable, _Entry] = {}
        self._volume = 0
        self._index: List[_Entry] = []  # the same entries, in address order
        self._order_seq = 0
        # Bound once at construction, only when telemetry is enabled; the
        # hot paths pay a single attribute-is-None check while it is off.
        telemetry = get_telemetry()
        self._c_probes = None
        if telemetry.enabled:
            self._c_probes = telemetry.counter("address_space.audit_probes")

    def __setstate__(self, state: Dict) -> None:
        """Unpickle, converting the layouts older snapshots carry.

        Session and serve snapshots pickle whole allocators.  A name map of
        extents beside an ``_order`` serial map becomes a map of index
        entries.  A space pickled unaudited (``_validate`` False) kept an
        end-heap and no index: it is indexed here and re-checked, so an
        overlapping one raises :class:`OverlapError`.
        """
        audited = state.pop("_validate", True)
        for stale in ("_end_heap", "_end_counts", "_tracked_ends", "_c_compactions"):
            state.pop(stale, None)
        extents = state.pop("_extents", None)
        if extents is not None:
            # An unaudited space kept no serials: number its names in order.
            orders = state.pop("_order", None) or {name: i for i, name in enumerate(extents)}
            state["_order_seq"] = max(state.get("_order_seq", 0), len(extents))
            entries = {name: (e.start, orders[name], e.end, name) for name, e in extents.items()}
            state["_entries"] = entries
        if extents is not None or not audited:
            state["_index"] = sorted(state["_entries"].values())
        self.__dict__.update(state)
        if not audited:
            self.verify_disjoint()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def start_of(self, name: Hashable) -> Optional[int]:
        """The start address of ``name``, or None if it is not placed."""
        return self._entries.get(name, (None,))[0]

    def extent_of(self, name: Hashable) -> Extent:
        """Return the extent occupied by ``name`` (KeyError if absent)."""
        start, _, end, _ = self._entries[name]
        return Extent(start, end - start)

    def get(self, name: Hashable) -> Optional[Extent]:
        """The extent occupied by ``name``, or None if it is not placed."""
        return self.extent_of(name) if name in self._entries else None

    def items(self) -> Iterator[Tuple[Hashable, Extent]]:
        for name, (start, _, end, _) in self._entries.items():
            yield name, Extent(start, end - start)

    # -------------------------------------------------------------- internal
    def _find_overlap(
        self, start: int, end: int, ignore: Optional[Hashable] = None
    ) -> Optional[Hashable]:
        """Nearest-neighbour overlap probe of ``[start, end)`` on the index.

        Sound because the indexed extents (minus ``ignore``) are pairwise
        disjoint: sorted by start they are also sorted by end, so only the
        closest non-ignored entry on each side can reach into the span.
        """
        counter = self._c_probes
        if counter is not None:
            counter.value += 1
        index = self._index
        pos = bisect_left(index, (start,))
        i = pos - 1
        while i >= 0:  # nearest predecessor (start < the span's start)
            _, _, before, name = index[i]
            if name == ignore:
                i -= 1
                continue
            if before > start:
                return name
            break
        i = pos
        size = len(index)
        while i < size:  # nearest successor (start >= the span's start)
            successor, _, _, name = index[i]
            if name == ignore:
                i += 1
                continue
            if successor < end:
                return name
            break
        return None

    def _clash(self, verb: str, name: Hashable, start: int, end: int, clash: Hashable):
        return OverlapError(
            f"{verb} {name!r} at {Extent(start, end - start)} overlaps {clash!r} at "
            f"{self.extent_of(clash)}"
        )

    # ------------------------------------------------------------ mutation
    def place(self, name: Hashable, start: int, length: int) -> None:
        """Place a new object at ``[start, start + length)``: the one place a
        span enters, so ValueError unless ``start >= 0`` and ``length > 0``;
        KeyError if the name exists, OverlapError if addresses clash."""
        if start < 0:
            raise ValueError(f"extent start must be nonnegative, got {start}")
        if length <= 0:
            raise ValueError(f"extent length must be positive, got {length}")
        if name in self._entries:
            raise KeyError(f"object {name!r} is already placed")
        end = start + length
        entry = (start, self._order_seq, end, name)
        clash = self._find_overlap(start, end)
        if clash is not None:
            raise self._clash("placing", name, start, end, clash)
        insort(self._index, entry)
        self._order_seq += 1
        self._entries[name] = entry
        self._volume += length

    def move(self, name: Hashable, start: int) -> int:
        """Move an existing object to ``start``, keeping its length;
        returns the old start."""
        entries = self._entries
        old = entries.get(name)
        if old is None:
            raise KeyError(f"object {name!r} is not placed")
        if start < 0:
            raise ValueError(f"extent start must be nonnegative, got {start}")
        old_start, order, old_end, _ = old
        end = start + old_end - old_start
        # The object keeps its order serial: it is unique among the live
        # names, which is all the bisection needs.
        entry = (start, order, end, name)
        index = self._index
        pos = bisect_left(index, old)
        last = len(index) - 1
        pred_clear = pos == 0 or index[pos - 1][2] <= start
        succ_clear = pos == last or end <= index[pos + 1][0]
        # Clear of both neighbours, the entry still sorts between them
        # (disjoint spans sort alike by start and by end): overwrite it.
        if pred_clear and succ_clear:
            if self._c_probes is not None:
                self._c_probes.value += 1
            index[pos] = entry
        else:
            # In its slot, the two neighbours are the nearest
            # predecessor and successor _find_overlap would probe.
            if (pos == 0 or index[pos - 1][0] < start) and (
                pos == last or entry < index[pos + 1]
            ):
                if self._c_probes is not None:
                    self._c_probes.value += 1
                clash = index[pos + 1 if pred_clear else pos - 1][3]
            else:
                clash = self._find_overlap(start, end, ignore=name)
            if clash is not None:
                raise self._clash("moving", name, start, end, clash)
            del index[pos]
            insort(index, entry)
        entries[name] = entry
        return old_start

    def remove(self, name: Hashable) -> int:
        """Remove an object and return the start it used to occupy."""
        entry = self._entries.pop(name)
        start, _, end, _ = entry
        index = self._index
        del index[bisect_left(index, entry)]
        self._volume -= end - start
        return start

    # -------------------------------------------------------------- queries
    def footprint(self) -> int:
        """Largest allocated address (the paper's footprint objective)."""
        # Disjoint extents sorted by start are sorted by end too.
        index = self._index
        return index[-1][2] if index else 0

    def volume(self) -> int:
        """Total size of live objects (the paper's ``V``)."""
        return self._volume

    def utilization(self) -> float:
        """Volume divided by footprint (1.0 means a perfectly packed prefix)."""
        footprint = self.footprint()
        if footprint == 0:
            return 1.0
        return self._volume / footprint

    def free_gaps(self) -> List[Extent]:
        """Return the maximal free extents below the footprint."""
        gaps: List[Extent] = []
        cursor = 0
        for start, _, end, _ in self._index:
            if start > cursor:
                gaps.append(Extent(cursor, start - cursor))
            if end > cursor:
                cursor = end
        return gaps

    def verify_disjoint(self) -> None:
        """Exhaustively re-check that all live extents are pairwise disjoint."""
        previous: Optional[_Entry] = None
        for entry in self._index:
            if previous is not None and previous[2] > entry[0]:
                name_a, name_b = previous[3], entry[3]
                raise OverlapError(
                    f"{name_a!r} at {self.extent_of(name_a)} overlaps "
                    f"{name_b!r} at {self.extent_of(name_b)}"
                )
            previous = entry

    def snapshot(self) -> Dict[Hashable, Extent]:
        """A copy of the current name -> extent mapping."""
        return dict(self.items())
