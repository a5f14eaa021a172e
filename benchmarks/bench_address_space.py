"""Guards for the indexed address space: audited replays must stay fast.

One enforced assertion on first-fit churn replays, the guard on what the
audit costs now that every address space is audited:

* **Index vs pre-index audit.**  ``_LegacyScanSpace`` reinstates the seed's
  audit — a linear scan over every live extent per placement — on top of the
  current address space.  The indexed audit must beat it by at least 5x on a
  trace whose live set is large enough that the scan dominates (the captured
  pre-index baseline ratio; at the full 50k-live scale the gap is orders of
  magnitude, far too slow to time in CI).

``test_first_fit_replay_throughput`` times the audited replay at scale (5k
live by default, 50k with ``REPRO_BENCH_FULL=1``) for run-to-run comparison.

Two more guard the free-gap index itself:

* **Size treap vs bisect list.**  Best/Worst Fit's size order must beat the
  flat bisect list it replaced by 1.2x at 200k live gaps.
* **In-place gap updates.**  A serve-scale first-fit replay (200 live,
  sizes 1-64) must run at least 1.4x faster than the same replay over
  ``_LegacyReinsertGapIndex``, a frozen copy of the earlier index that
  deleted and re-inserted a gap in both treaps on every take and free, and
  both must place every object at the same address.

Timings are best-of-N with the two variants interleaved, so a load spike on
a shared CI runner hits both sides.
"""

import os
import random
import time
from bisect import bisect_left, insort

from benchmarks.bench_artifact import record_metric
from repro.allocators import FirstFitAllocator
from repro.storage.address_space import AddressSpace
from repro.storage.extent import Extent
from repro.storage.gap_index import (
    GapIndex,
    _Node,
    _SizeNode,
    _delete,
    _insert,
    _merge,
    _pull,
    _size_delete,
    _size_insert,
)
from repro.workloads import UniformSizes, churn_trace

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: Trace for the legacy-vs-indexed ratio: big enough for the O(n) scan to
#: dominate, small enough that the legacy replay stays CI-friendly.
LEGACY_TRACE = churn_trace(12_000, UniformSizes(1, 64), target_live=4_000, seed=31)

#: Trace for the at-scale throughput timing.
SCALE_TRACE = (
    churn_trace(150_000, UniformSizes(1, 64), target_live=50_000, seed=32)
    if FULL
    else churn_trace(20_000, UniformSizes(1, 64), target_live=5_000, seed=32)
)


class _LegacyScanSpace(AddressSpace):
    """The pre-index audit: check a placement against every live extent,
    kept as ``Extent`` objects as the seed's space kept them."""

    def __init__(self):
        super().__init__()
        self._extents = {}

    def place(self, name, start, length):
        super().place(name, start, length)
        self._extents[name] = Extent(start, length)

    def move(self, name, start):
        old = super().move(name, start)
        self._extents[name] = Extent(start, self._extents[name].length)
        return old

    def remove(self, name):
        start = super().remove(name)
        del self._extents[name]
        return start

    def _find_overlap(self, start, end, ignore=None):
        extent = Extent(start, end - start)
        for name, existing in self._extents.items():
            if name == ignore:
                continue
            if existing.overlaps(extent):
                return name
        return None


def _timed_replay(trace, space_class=None):
    allocator = FirstFitAllocator()
    if space_class is not None:
        allocator.space = space_class()
    started = time.perf_counter()
    allocator.run(trace)
    elapsed = time.perf_counter() - started
    assert allocator.stats.requests == len(trace)
    return elapsed, allocator


def test_indexed_audit_beats_the_legacy_scan_by_5x():
    indexed = legacy = float("inf")
    for _ in range(3):
        indexed = min(indexed, _timed_replay(LEGACY_TRACE)[0])
        legacy = min(legacy, _timed_replay(LEGACY_TRACE, space_class=_LegacyScanSpace)[0])
    print(
        f"\naudited first-fit replay ({len(LEGACY_TRACE)} requests, 4k live): "
        f"indexed={indexed:.3f}s legacy-scan={legacy:.3f}s ({legacy / indexed:.1f}x)"
    )
    record_metric("address_space", "indexed_audit_seconds", round(indexed, 6), "seconds")
    record_metric("address_space", "legacy_scan_seconds", round(legacy, 6), "seconds")
    record_metric(
        "address_space", "legacy_over_indexed_ratio", round(legacy / indexed, 2), "ratio"
    )
    assert legacy >= 5 * indexed, (
        f"indexed audit ({indexed:.3f}s) is less than 5x faster than the "
        f"pre-index linear scan ({legacy:.3f}s); the overlap index has regressed"
    )


def test_indexed_audit_and_legacy_scan_agree():
    """The speed guard is only meaningful if both audits accept the replay
    and produce identical results."""
    _, indexed = _timed_replay(LEGACY_TRACE)
    _, legacy = _timed_replay(LEGACY_TRACE, space_class=_LegacyScanSpace)
    assert indexed.footprint == legacy.footprint
    assert indexed.volume == legacy.volume
    indexed.space.verify_disjoint()


class _LegacyBisectGapIndex(GapIndex):
    """The pre-treap size order: a flat ``(length, start)`` bisect list.

    Both variants pay the identical address-treap cost, so the timing delta
    isolates the size structure: O(log n) treap descent vs O(log n) bisect
    probe plus an O(n) memmove per insert and delete.
    """

    def __init__(self):
        super().__init__()
        self._by_size = []

    def add(self, extent):
        node = _Node(extent.start, extent.length, self._rng.getrandbits(62))
        self._root = _insert(self._root, node)
        insort(self._by_size, (extent.length, extent.start))
        self._total += extent.length

    def _remove_known(self, start, length):
        self._root = _delete(self._root, start)
        del self._by_size[bisect_left(self._by_size, (length, start))]
        self._total -= length

    def best_fit(self, size):
        pos = bisect_left(self._by_size, (size,))
        return self._by_size[pos][1] if pos < len(self._by_size) else None

    def worst_fit(self, size):
        if not self._by_size or self._by_size[-1][0] < size:
            return None
        widest = self._by_size[-1][0]
        return self._by_size[bisect_left(self._by_size, (widest,))][1]


#: Live gap count for the size-structure guard: past the bisect/treap
#: crossover (~50k on CPython — below it the C memmove wins) by a wide
#: enough margin that the ratio is stable on shared runners.
GAP_COUNT = 400_000 if FULL else 200_000
GAP_OPS = 2_000


def _gap_churn(index_class, seed=7):
    """Build GAP_COUNT disjoint gaps, then time remove/add/best_fit churn."""
    rng = random.Random(seed)
    gaps = index_class()
    live = []
    for i in range(GAP_COUNT):
        length = rng.randrange(1, 64)
        gaps.add(Extent(i * 70, length))
        live.append((i * 70, length))
    started = time.perf_counter()
    for _ in range(GAP_OPS):
        slot = rng.randrange(len(live))
        start, _length = live[slot]
        gaps.remove(start)
        length = rng.randrange(1, 64)
        gaps.add(Extent(start, length))
        live[slot] = (start, length)
        gaps.best_fit(rng.randrange(1, 64))
    elapsed = time.perf_counter() - started
    assert len(gaps) == GAP_COUNT
    return elapsed


def test_size_treap_beats_the_bisect_list_at_scale():
    treap = legacy = float("inf")
    for _ in range(3):
        treap = min(treap, _gap_churn(GapIndex))
        legacy = min(legacy, _gap_churn(_LegacyBisectGapIndex))
    print(
        f"\ngap churn ({GAP_COUNT} live gaps, {GAP_OPS} remove/add/query ops): "
        f"treap={treap * 1000:.1f}ms bisect-list={legacy * 1000:.1f}ms "
        f"({legacy / treap:.2f}x)"
    )
    record_metric("gap_index", "size_treap_churn_seconds", round(treap, 6), "seconds")
    record_metric("gap_index", "bisect_list_churn_seconds", round(legacy, 6), "seconds")
    record_metric("gap_index", "bisect_over_treap_ratio", round(legacy / treap, 2), "ratio")
    # The measured ratio is ~2x at 200k gaps and grows with the gap count;
    # 1.2x is the lenient floor that still catches an accidental return to
    # O(n) mutations without flaking on noisy shared runners.
    assert legacy >= 1.2 * treap, (
        f"size-treap churn ({treap:.3f}s) is not faster than the legacy "
        f"bisect list ({legacy:.3f}s) at {GAP_COUNT} gaps; its O(log n) "
        "mutations have regressed"
    )


def test_first_fit_replay_throughput(benchmark):
    """Statistical timing of the scale trace for run-to-run comparison."""

    def run_once():
        _, allocator = _timed_replay(SCALE_TRACE)
        return allocator

    allocator = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert allocator.stats.requests == len(SCALE_TRACE)


def _legacy_insert(root, node):
    if root is None:
        return node
    if node.priority > root.priority:
        node.left, node.right = _legacy_split(root, node.start)
        return _pull(node)
    if node.start < root.start:
        root.left = _legacy_insert(root.left, node)
    else:
        root.right = _legacy_insert(root.right, node)
    return _pull(root)


def _legacy_split(root, start):
    if root is None:
        return None, None
    if root.start < start:
        left, right = _legacy_split(root.right, start)
        root.right = left
        return _pull(root), right
    left, right = _legacy_split(root.left, start)
    root.left = right
    return left, _pull(root)


def _legacy_delete(root, start):
    if root.start == start:
        return _merge(root.left, root.right)
    if start < root.start:
        root.left = _legacy_delete(root.left, start)
    else:
        root.right = _legacy_delete(root.right, start)
    return _pull(root)


class _LegacyReinsertGapIndex(GapIndex):
    """The earlier gap updates, frozen: every take deletes the gap node and
    inserts its remainder, every free absorbs both neighbours (up to two
    deletes) and re-inserts the merged gap, both treaps are kept whatever
    the policy, and the address treap inserts by recursive split and
    deletes by recursive merge."""

    def add(self, extent):
        counter = self._c_adds
        if counter is not None:
            counter.value += 1
        node = _Node(extent.start, extent.length, self._rng.getrandbits(62))
        self._root = _legacy_insert(self._root, node)
        size_node = _SizeNode((extent.length, extent.start), self._rng.getrandbits(62))
        self._size_root = _size_insert(self._size_root, size_node)
        self._total += extent.length

    def _remove_known(self, start, length):
        counter = self._c_removes
        if counter is not None:
            counter.value += 1
        self._root = _legacy_delete(self._root, start)
        self._size_root = _size_delete(self._size_root, (length, start))
        self._total -= length

    def take(self, start, size):
        length = self.length_at(start)
        if length is None:
            raise KeyError(f"no gap starts at address {start}")
        if length < size:
            raise ValueError(f"gap {Extent(start, length)} is smaller than the request ({size})")
        self._remove_known(start, length)
        if length > size:
            self.add(Extent(start + size, length - size))

    def release(self, start, length, high_water):
        merged = self._absorb_adjacent(Extent(start, length))
        if merged.end == high_water:
            return merged.start
        self.add(merged)
        return high_water

    def _absorb_adjacent(self, extent):
        counter = self._c_coalesces
        if counter is not None:
            counter.value += 1
        start, end = extent.start, extent.end
        predecessor = self._neighbor(extent.start, before=True)
        if predecessor is not None and predecessor.end == start:
            self._remove_known(predecessor.start, predecessor.length)
            start = predecessor.start
        successor = self._neighbor(extent.start, before=False)
        if successor is not None and successor.start == end:
            self._remove_known(successor.start, successor.length)
            end = successor.end
        return Extent(start, end - start)

    def _neighbor(self, start, before):
        node = self._root
        found = None
        while node is not None:
            if (node.start < start) if before else (node.start > start):
                found = node
                node = node.right if before else node.left
            else:
                node = node.left if before else node.right
        return Extent(found.start, found.length) if found is not None else None


#: The serve-closed workload's per-tenant churn: ~200 live objects of
#: sizes 1-64, deletes slightly less likely than inserts below that.
SERVE_TRACE = churn_trace(
    12_500, UniformSizes(1, 64), target_live=200, seed=2, delete_fraction=0.45
)


def _first_fit(legacy):
    """An audited first-fit allocator, as served; ``legacy`` swaps in the
    frozen remove-and-reinsert index."""
    allocator = FirstFitAllocator()
    if legacy:
        allocator._gaps = _LegacyReinsertGapIndex()
    return allocator


def _timed_serve_replay(legacy):
    allocator = _first_fit(legacy)
    started = time.perf_counter()
    allocator.run(SERVE_TRACE)
    return time.perf_counter() - started


def _placements(legacy):
    allocator = _first_fit(legacy)
    addresses = []
    for request in SERVE_TRACE:
        if request.is_insert:
            allocator.insert(request.name, request.size)
            addresses.append(allocator.address_of(request.name))
        else:
            allocator.delete(request.name)
    return addresses, allocator.free_extents(), allocator.high_water


def test_in_place_gap_updates_place_like_the_reinsert_path():
    assert _placements(legacy=False) == _placements(legacy=True)


def test_in_place_gap_updates_beat_the_reinsert_path_by_1_4x():
    current = legacy = float("inf")
    for _ in range(5):
        current = min(current, _timed_serve_replay(legacy=False))
        legacy = min(legacy, _timed_serve_replay(legacy=True))
    print(
        f"\nserve-scale first-fit replay ({len(SERVE_TRACE)} requests, 200 live): "
        f"in-place={current:.3f}s reinsert={legacy:.3f}s ({legacy / current:.2f}x)"
    )
    record_metric("gap_index", "in_place_replay_seconds", round(current, 6), "seconds")
    record_metric("gap_index", "reinsert_replay_seconds", round(legacy, 6), "seconds")
    record_metric("gap_index", "reinsert_over_in_place_ratio", round(legacy / current, 2), "ratio")
    assert legacy >= 1.4 * current, (
        f"first-fit replay with in-place gap updates ({current:.3f}s) is less "
        f"than 1.4x faster than the remove-and-reinsert path ({legacy:.3f}s)"
    )
