"""E5 — checkpoints needed per buffer flush (Lemma 3.3) — and two guards on
the checkpointed move path.

``_LegacyScanCheckpoints`` reinstates the pre-index checkpoint manager on top
of the current one: freed extents appended to a plain list (coalesced only
past 64 entries) and every write checked by a linear scan over that list.
An audited ``DeamortizedReallocator(0.25)`` churn replay with the indexed
runs must beat the same replay with the legacy scan by at least 1.25x.

``_PerMoveReference`` reinstates the move path that came before the phased
executor: a per-item ``_advance`` loop that calls ``_move_object`` for every
move (two extent lookups, ``Extent.overlaps``), over an audited address
space that also keeps a lazy end-heap on every place, move and remove.  The
same replay through the phased executor, with the footprint read from the
address index, must beat it by at least 1.25x.

Timings are best-of-3 with the two variants interleaved, so a load spike on
a shared CI runner hits both sides.
"""

import heapq
import time
from collections import Counter

from benchmarks.bench_artifact import record_metric
from benchmarks.conftest import run_and_print
from repro.core import DeamortizedReallocator
from repro.core.events import FlushRecord
from repro.storage import BlockTranslationLayer, CheckpointManager
from repro.storage.address_space import AddressSpace, OverlapError
from repro.storage.extent import Extent, coalesce
from repro.workloads import UniformSizes, churn_trace

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

    def record_free(self, extent):
        self._frozen.append(extent)
        if len(self._frozen) > 64:
            self._frozen = coalesce(self._frozen)

    def is_writable(self, extent):
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


def _deamortized(checkpoints=None):
    translation = BlockTranslationLayer(checkpoints) if checkpoints is not None else None
    return DeamortizedReallocator(0.25, translation=translation, audit=True)


def _assert_same_replay(fast, slow):
    """A speed guard is only meaningful if both sides drive the same replay."""
    assert vars(fast.stats) == vars(slow.stats)
    assert fast.blocked_checkpoints == slow.blocked_checkpoints
    assert dict(fast.space.items()) == dict(slow.space.items())


def test_indexed_frozen_space_beats_linear_scan():
    indexed = legacy = float("inf")
    for _ in range(3):
        elapsed, fast = _timed_replay(_deamortized())
        indexed = min(indexed, elapsed)
        elapsed, slow = _timed_replay(_deamortized(_LegacyScanCheckpoints()))
        legacy = min(legacy, elapsed)
    _assert_same_replay(fast, slow)
    print(
        f"\naudited deamortized replay ({len(CHURN)} requests, 2k live): "
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


class _HeapTrackingSpace(AddressSpace):
    """The audited space before it read its footprint from the index: a
    lazy end-heap and end counter kept on every place, move and remove, and
    a move that removes and re-adds its index entry through two calls."""

    def __init__(self):
        super().__init__(validate=True)
        self._end_counts = Counter()
        self._end_heap = []
        self._tracked_ends = 0

    def place(self, name, extent):
        super().place(name, extent)
        self._track_end(extent.end)

    def move(self, name, extent):
        if name not in self._extents:
            raise KeyError(f"object {name!r} is not placed")
        old = self._extents[name]
        clash = self._find_overlap(extent, ignore=name)
        if clash is not None:
            raise OverlapError(f"moving {name!r} to {extent} overlaps {clash!r}")
        self._index_remove(name, old)
        self._index_add(name, extent)
        self._extents[name] = extent
        self._volume += extent.length - old.length
        self._untrack_end(old.end)
        self._track_end(extent.end)
        return old

    def remove(self, name):
        extent = super().remove(name)
        self._untrack_end(extent.end)
        return extent

    def footprint(self):
        heap = self._end_heap
        counts = self._end_counts
        while heap and -heap[0] not in counts:
            heapq.heappop(heap)
        return -heap[0] if heap else 0


class _PerMoveReference(DeamortizedReallocator):
    """The deamortized reallocator before the phased executor: one
    ``_move_object`` call per planned move, over ``_HeapTrackingSpace``."""

    def __init__(self):
        super().__init__(0.25, audit=True)
        self.space = _HeapTrackingSpace()

    def _move_object(self, name, new_address, reason="move"):
        size = self._size_lookup(name)
        old = self.space.extent_of(name)
        if old.start == new_address:
            return
        new_extent = Extent(new_address, size)
        if new_extent.overlaps(old):
            raise RuntimeError(f"moving {name!r} from {old} to {new_extent} overlaps")
        self._ensure_writable(new_extent, reason)
        self._relocate(name, size, old, new_extent, reason)
        self.translation.record_move(name, new_extent)
        self._record_write(name, new_extent, moved_from=old)

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
            self._install_plan(pending.plan)
            pending.installed = True
            self._tail_capacity = pending.new_tail_capacity
            self._tail_entries = []
            self._tail_used = 0
            self._tail_start = self._structure_end()
            self._note_flush(
                FlushRecord(
                    boundary_class=pending.plan.boundary,
                    classes_flushed=tuple(pending.plan.flushed_indices),
                    moved_volume=pending.moved_volume,
                    move_count=pending.move_count,
                    checkpoints=0,
                )
            )
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
