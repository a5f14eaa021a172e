"""E5 — checkpoints needed per buffer flush (Lemma 3.3) — and three guards
on the checkpointed move path.

``_LegacyScanCheckpoints`` reinstates the pre-index checkpoint manager on top
of the current one: freed extents appended to a plain list (coalesced only
past 64 entries) and every write checked by a linear scan over that list.
An audited ``DeamortizedReallocator(0.25)`` churn replay with the indexed
runs must beat the same replay with the legacy scan by at least 1.25x.
Both sides run the per-move executor of ``tests/per_move_reference.py``,
which checks and freezes the frozen space on every move, so the guard
times the frozen space and not how often today's executor calls it.

``_PerMoveReference`` reinstates the move path that came before the phased
executor: a per-item ``_advance`` loop that calls ``_move_object`` for every
move (two extent lookups, ``Extent.overlaps``), over an audited address
space that also keeps a lazy end-heap on every place, move and remove.  The
same replay through the phased executor, with the footprint read from the
address index, must beat it by at least 1.25x.

``_ParentMovePath`` reinstates the move path that came before in-slot
moves: an address-space ``move`` that deletes its index entry and
re-inserts it with ``insort`` after a full neighbour walk, a per-move
``_relocate`` and ``record_move`` for every planned move, and a checkpoint
that copies the whole translation map.  The same replay through today's
path (in-slot moves, one stats update per run of moves, the translation map
written inline and checkpointed from its dirty set) must beat it by at
least 1.25x.

Both frozen move paths call ``_relocate``, the per-move bookkeeping step
that every reallocator's moves went through before the flush moves ran as
planned items through one ``_run_items`` loop; ``_ParentRelocate`` keeps it
for them.

Timings are best-of-3 with the two variants interleaved, so a load spike on
a shared CI runner hits both sides.
"""

import heapq
import time
from bisect import bisect_left, insort
from collections import Counter

from benchmarks.bench_artifact import record_metric
from benchmarks.conftest import run_and_print
from repro.core import DeamortizedReallocator
from repro.core.events import MoveEvent
from repro.storage import BlockTranslationLayer, CheckpointManager
from repro.storage.address_space import AddressSpace, OverlapError
from repro.storage.extent import Extent, coalesce
from repro.workloads import UniformSizes, churn_trace
from tests.per_move_reference import per_move_reference

#: The replay workload's churn shape: sizes 1-64, about 2,000 live objects.
CHURN = churn_trace(5000, UniformSizes(1, 64), target_live=2000, seed=41)


def test_e5_checkpoints_per_flush(benchmark, quick_mode):
    result = run_and_print(benchmark, "E5", quick_mode)
    for row in result.rows:
        assert row[3] < 200  # max checkpoints per request stays far below object counts


class _LegacyScanCheckpoints(CheckpointManager):
    """The pre-index frozen space: an extent list and a linear scan."""

    def __init__(self, enforce=True):
        super().__init__(enforce)
        self._frozen = []

    def record_free(self, start, end):
        self._frozen.append(Extent(start, end - start))
        if len(self._frozen) > 64:
            self._frozen = coalesce(self._frozen)

    def is_writable(self, start, end):
        extent = Extent(start, end - start)
        return all(not extent.overlaps(frozen) for frozen in self._frozen)

    def checkpoint(self):
        self._frozen.clear()
        return super().checkpoint()

    def recover(self):
        self._frozen.clear()
        super().recover()


def _timed_replay(allocator):
    started = time.perf_counter()
    allocator.run(CHURN)
    elapsed = time.perf_counter() - started
    assert allocator.stats.requests == len(CHURN)
    return elapsed, allocator


def _deamortized():
    return DeamortizedReallocator(0.25)


def _per_move_deamortized(checkpoints):
    reference = per_move_reference(DeamortizedReallocator)
    return reference(0.25, translation=BlockTranslationLayer(checkpoints))


def _assert_same_replay(fast, slow):
    """A speed guard is only meaningful if both sides drive the same replay."""
    assert vars(fast.stats) == vars(slow.stats)
    assert fast.blocked_checkpoints == slow.blocked_checkpoints
    assert dict(fast.space.items()) == dict(slow.space.items())
    assert fast.translation._durable == slow.translation._durable


def test_indexed_frozen_space_beats_linear_scan():
    indexed = legacy = float("inf")
    for _ in range(3):
        elapsed, fast = _timed_replay(_per_move_deamortized(CheckpointManager()))
        indexed = min(indexed, elapsed)
        elapsed, slow = _timed_replay(_per_move_deamortized(_LegacyScanCheckpoints()))
        legacy = min(legacy, elapsed)
    _assert_same_replay(fast, slow)
    print(
        f"\naudited per-move deamortized replay ({len(CHURN)} requests, 2k live): "
        f"indexed={indexed:.3f}s legacy-scan={legacy:.3f}s ({legacy / indexed:.2f}x)"
    )
    record_metric("checkpoints", "indexed_frozen_space_seconds", round(indexed, 6), "seconds")
    record_metric("checkpoints", "legacy_scan_seconds", round(legacy, 6), "seconds")
    record_metric(
        "checkpoints", "legacy_over_indexed_ratio", round(legacy / indexed, 2), "ratio"
    )
    assert legacy >= 1.25 * indexed, (
        f"indexed frozen space ({indexed:.3f}s) is less than 1.25x faster than "
        f"the linear scan ({legacy:.3f}s); the checkpoint index has regressed"
    )


#: Below this many heap entries compaction is never worth the rebuild.
_HEAP_COMPACT_MIN = 64


class _HeapTrackingSpace(AddressSpace):
    """The audited space before it read its footprint from the index: a
    lazy end-heap and end counter kept on every place, move and remove, and
    a move that removes and re-adds its index entry through two calls.
    ``_track_end``/``_untrack_end`` are the address space's own end-heap
    methods from when it still had an unaudited mode, copied verbatim."""

    def __init__(self):
        super().__init__()
        self._end_counts = Counter()
        self._end_heap = []
        self._tracked_ends = 0
        self._c_compactions = None  # an audited space never counted them

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

    def place(self, name, start, length):
        super().place(name, start, length)
        self._track_end(start + length)

    def move(self, name, start):
        if name not in self._entries:
            raise KeyError(f"object {name!r} is not placed")
        old = self._entries[name]
        old_start, _, old_end, _ = old
        end = start + old_end - old_start
        clash = self._find_overlap(start, end, ignore=name)
        if clash is not None:
            raise OverlapError(f"moving {name!r} to {start} overlaps {clash!r}")
        # Remove the index entry, then re-add it under a fresh order serial.
        index = self._index
        del index[bisect_left(index, old)]
        entry = (start, self._order_seq, end, name)
        self._order_seq += 1
        insort(index, entry)
        self._entries[name] = entry
        self._untrack_end(old_end)
        self._track_end(end)
        return old_start

    def remove(self, name):
        end = self._entries[name][2]
        start = super().remove(name)
        self._untrack_end(end)
        return start

    def footprint(self):
        heap = self._end_heap
        counts = self._end_counts
        while heap and -heap[0] not in counts:
            heapq.heappop(heap)
        return -heap[0] if heap else 0


class _ParentRecordMoveTranslation(BlockTranslationLayer):
    """The translation layer with ``record_move`` as the frozen move paths
    called it, before it became the one-move case of ``record_moves``;
    copied verbatim."""

    def record_move(self, name, start, end):
        """Record that ``name`` moved to ``[start, end)``; its old span freezes."""
        old = self._volatile.get(name)
        if old is not None:
            self.checkpoints.record_free(*old)
        self._volatile[name] = (start, end)
        self._dirty.add(name)


class _ParentRelocate:
    """The per-move bookkeeping of the frozen move paths: space, stats and
    event, for a move whose size and both extents are already known."""

    def _relocate(self, name, size, old_extent, new_extent, reason):
        self.space.move(name, new_extent.start)
        self.stats.record_move(size)
        self._current_moved_volume += size
        if self._collect_events:
            move = MoveEvent(
                name=name, size=size, source=old_extent, destination=new_extent, reason=reason
            )
            self._note_move(move)


class _PerMoveReference(_ParentRelocate, DeamortizedReallocator):
    """The deamortized reallocator before the phased executor: one
    ``_move_object`` call per planned move, over ``_HeapTrackingSpace``."""

    def __init__(self):
        super().__init__(0.25, translation=_ParentRecordMoveTranslation())
        self.space = _HeapTrackingSpace()

    def _move_object(self, name, new_address, reason="move"):
        size = self._size_lookup(name)
        old = self.space.extent_of(name)
        if old.start == new_address:
            return
        new_extent = Extent(new_address, size)
        if new_extent.overlaps(old):
            raise RuntimeError(f"moving {name!r} from {old} to {new_extent} overlaps")
        self._ensure_writable(new_extent.start, new_extent.end)
        self._relocate(name, size, old, new_extent, reason)
        self.translation.record_move(name, new_extent.start, new_extent.end)
        self._record_write(name, new_extent.start, size)

    def _advance(self, update_size):
        pending = self._pending
        if pending is None:
            return
        budget = self.work_factor * update_size
        executed = 0.0
        while pending.next_item < len(pending.items) and executed <= budget:
            item = pending.items[pending.next_item]
            pending.next_item += 1
            if item[0] == "checkpoint":
                self.checkpoint()
                continue
            _tag, obj_name, obj_size, target, reason = item
            if obj_name not in self.space:
                continue
            if self.space.extent_of(obj_name).start == target:
                continue
            self._move_object(obj_name, target, reason=reason)
            executed += obj_size
            pending.moved_volume += obj_size
            pending.move_count += 1
        if pending.next_item < len(pending.items):
            return
        if not pending.installed:
            self._install_plan(pending.plan, pending.moved_volume, pending.move_count, 0)
            pending.installed = True
            self._tail_capacity = pending.new_tail_capacity
            self._tail_entries = []
            self._tail_used = 0
            self._tail_start = self._structure_end()
        while pending.log and executed <= budget:
            entry = pending.log.popleft()
            executed += self._drain_entry(entry)
        if pending.log:
            return
        self._pending = None
        if self._tail_used > self._tail_capacity and self._tail_entries:
            trigger = min(entry.size_class for entry in self._tail_entries)
            self._start_flush(trigger_class=trigger)


def test_phased_executor_beats_per_move_path():
    executor = per_move = float("inf")
    for _ in range(3):
        elapsed, fast = _timed_replay(_deamortized())
        executor = min(executor, elapsed)
        elapsed, slow = _timed_replay(_PerMoveReference())
        per_move = min(per_move, elapsed)
    _assert_same_replay(fast, slow)
    assert fast.footprint == slow.footprint
    print(
        f"\naudited deamortized replay ({len(CHURN)} requests, 2k live): "
        f"phased-executor={executor:.3f}s per-move={per_move:.3f}s "
        f"({per_move / executor:.2f}x)"
    )
    record_metric("checkpoints", "phased_executor_seconds", round(executor, 6), "seconds")
    record_metric("checkpoints", "per_move_seconds", round(per_move, 6), "seconds")
    record_metric(
        "checkpoints", "per_move_over_executor_ratio", round(per_move / executor, 2), "ratio"
    )
    assert per_move >= 1.25 * executor, (
        f"the phased executor ({executor:.3f}s) is less than 1.25x faster than "
        f"the per-move path ({per_move:.3f}s); the checkpointed move path has regressed"
    )


class _RemoveInsortSpace(AddressSpace):
    """The audited space before in-slot moves: every move walks both
    neighbours with its own entry skipped, deletes that entry and
    re-inserts it with ``insort``."""

    def move(self, name, start):
        entries = self._entries
        old = entries.get(name)
        if old is None:
            raise KeyError(f"object {name!r} is not placed")
        old_start, order, old_end, _ = old
        end = start + old_end - old_start
        clash = self._find_overlap(start, end, ignore=name)
        if clash is not None:
            raise OverlapError(f"moving {name!r} to {start} overlaps {clash!r}")
        index = self._index
        del index[bisect_left(index, old)]
        entry = (start, order, end, name)
        insort(index, entry)
        entries[name] = entry
        return old_start


class _FullCopyTranslation(_ParentRecordMoveTranslation):
    """The translation layer before the dirty set: a checkpoint copies the
    whole volatile map."""

    def checkpoint(self):
        self._durable = dict(self._volatile)
        self._dirty.clear()
        return self.checkpoints.checkpoint()


class _ParentMovePath(_ParentRelocate, DeamortizedReallocator):
    """The deamortized reallocator before in-slot moves and per-run move
    bookkeeping: ``_RemoveInsortSpace``, ``_FullCopyTranslation`` and a
    phased executor that calls ``_relocate`` and ``record_move`` per move."""

    def __init__(self):
        super().__init__(0.25, translation=_FullCopyTranslation())
        self.space = _RemoveInsortSpace()

    def _run_items(self, items, index, budget):
        lookup = self.space.get
        record_move = self.translation.record_move
        end = len(items)
        moved_volume = move_count = 0
        while index < end and moved_volume <= budget:
            item = items[index]
            index += 1
            if item[0] == "checkpoint":
                self.checkpoint()
                continue
            _tag, name, size, target, reason = item
            old = lookup(name)
            if old is None:
                continue
            start = old.start
            if start == target:
                continue
            if target < start + size and start < target + size:
                raise RuntimeError(f"moving {name!r} from {old} to {target} overlaps")
            new_extent = Extent(target, size)
            self._ensure_writable(new_extent.start, new_extent.end)
            self._relocate(name, size, old, new_extent, reason)
            record_move(name, new_extent.start, new_extent.end)
            self._record_write(name, target, size)
            moved_volume += size
            move_count += 1
        return index, moved_volume, move_count


def test_in_slot_move_path_beats_parent_move_path():
    lean = parent = float("inf")
    for _ in range(3):
        elapsed, fast = _timed_replay(_deamortized())
        lean = min(lean, elapsed)
        elapsed, slow = _timed_replay(_ParentMovePath())
        parent = min(parent, elapsed)
    _assert_same_replay(fast, slow)
    print(
        f"\naudited deamortized replay ({len(CHURN)} requests, 2k live): "
        f"in-slot={lean:.3f}s remove-insort={parent:.3f}s ({parent / lean:.2f}x)"
    )
    record_metric("checkpoints", "in_slot_move_path_seconds", round(lean, 6), "seconds")
    record_metric("checkpoints", "remove_insort_move_path_seconds", round(parent, 6), "seconds")
    record_metric(
        "checkpoints", "remove_insort_over_in_slot_ratio", round(parent / lean, 2), "ratio"
    )
    assert parent >= 1.25 * lean, (
        f"the in-slot move path ({lean:.3f}s) is less than 1.25x faster than "
        f"the remove-and-insort path ({parent:.3f}s); the checkpointed move path "
        f"has regressed"
    )


def test_span_executor_beats_per_move_bookkeeping():
    """The executor that records each span of moves at once (translation
    writes and source freezes deferred to the span's end, or dropped at its
    checkpoint) over the hinted ``move`` must beat the verbatim per-move
    executor over the bisecting ``move`` by 1.15x on the same replay."""
    span = per_move = float("inf")
    for _ in range(3):
        elapsed, fast = _timed_replay(_deamortized())
        span = min(span, elapsed)
        elapsed, slow = _timed_replay(per_move_reference(DeamortizedReallocator)(0.25))
        per_move = min(per_move, elapsed)
    _assert_same_replay(fast, slow)
    print(
        f"\naudited deamortized replay ({len(CHURN)} requests, 2k live): "
        f"span={span:.3f}s per-move={per_move:.3f}s ({per_move / span:.2f}x)"
    )
    record_metric("checkpoints", "span_executor_seconds", round(span, 6), "seconds")
    record_metric("checkpoints", "per_move_bookkeeping_seconds", round(per_move, 6), "seconds")
    record_metric(
        "checkpoints", "per_move_bookkeeping_over_span_ratio", round(per_move / span, 2), "ratio"
    )
    assert per_move >= 1.15 * span, (
        f"the span executor ({span:.3f}s) is less than 1.15x faster than the "
        f"per-move bookkeeping ({per_move:.3f}s); the checkpointed move path has regressed"
    )
