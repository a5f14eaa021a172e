"""Frozen copies of the Section 3 move path from before span bookkeeping.

``BisectingSpace.move`` is ``AddressSpace.move`` before the index-position
hint: every move bisects for its entry.  ``PerMoveExecutor._run_items`` is
the checkpointed reallocator's executor before it recorded moves a span at
a time: each move writes the translation map and freezes its source at
once.  Both are verbatim.  ``per_move_reference(cls)`` builds a reallocator
class that runs on them, for differential tests and speed guards against
today's path.
"""

from bisect import bisect_left, insort
from typing import Hashable, List, Sequence, Tuple

from repro.core.events import MoveEvent
from repro.storage.address_space import AddressSpace
from repro.storage.extent import Extent


class BisectingSpace(AddressSpace):
    """The audited space with the bisecting ``move``."""

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


class PerMoveExecutor:
    """Mixin: the per-move Section 3 executor."""

    def _run_items(self, items: Sequence[Tuple], index: int, budget: float) -> Tuple[int, int, int]:
        """Execute phased items from ``items[index]`` on, while the volume
        moved by this call is at most ``budget``.

        Overrides the base move loop: every move of this reallocator runs
        here, under the Section 3 rules.  The destination must be disjoint
        from the source and, via :meth:`_ensure_writable` (called only when
        the destination is frozen), must not be frozen.  A move whose object
        is already at its target or no longer occupies space is skipped and
        costs nothing.  The stats take the whole run at once, also when a
        move raises.
        Returns ``(next_index, moved_volume, move_count)``.
        """
        start_of = self.space.start_of
        move = self.space.move
        is_writable = self.checkpoints.is_writable
        record_free = self.checkpoints.record_free
        # The translation map is updated inline, as record_move would; a
        # checkpoint clears the dirty set in place, so these stay bound.
        volatile = self.translation._volatile  # noqa: SLF001
        dirty = self.translation._dirty  # noqa: SLF001
        collect = self._collect_events
        track_recovery = self.track_recovery
        end = len(items)
        sizes: List[int] = []
        moved_volume = 0
        try:
            while index < end and moved_volume <= budget:
                item = items[index]
                index += 1
                if item[0] == "checkpoint":
                    self.checkpoint()
                    continue
                _tag, name, size, target, reason = item
                start = start_of(name)
                if start is None or start == target:
                    continue
                target_end = target + size
                if target < start + size and start < target_end:
                    raise RuntimeError(
                        f"non-overlapping constraint violated: moving {name!r} from "
                        f"{Extent(start, size)} to {Extent(target, size)}"
                    )
                if not is_writable(target, target_end):
                    self._ensure_writable(target, target_end)
                move(name, target)
                sizes.append(size)
                moved_volume += size
                if collect:
                    self._note_move(
                        MoveEvent(name, size, Extent(start, size), Extent(target, size), reason)
                    )
                mapped = volatile.get(name)
                if mapped is not None:
                    record_free(mapped[0], mapped[1])
                volatile[name] = (target, target_end)
                dirty.add(name)
                if track_recovery:
                    self._record_write(name, target, size)
        finally:
            if sizes:
                self.stats.record_moves(sizes, moved_volume)
                self._current_moved_volume += moved_volume
        return index, moved_volume, len(sizes)


def per_move_reference(cls):
    """``cls`` (a checkpointed reallocator class) on the per-move executor
    and the bisecting space."""

    class PerMoveReference(PerMoveExecutor, cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.space = BisectingSpace()

    PerMoveReference.__name__ = f"PerMove{cls.__name__}"
    return PerMoveReference
