"""Property tests: the indexed substrate agrees with the seed linear scans.

Two oracles, both re-implementations of the pre-index code:

* ``_ScanFreeList`` — the flat address-ordered ``List[Extent]`` free list
  with the original O(n) gap-selection scans, used to check that every
  :class:`GapIndex`-backed policy picks the *same gap on every request*;
* a naive all-pairs overlap scan, used to check that the address-ordered
  index inside :class:`AddressSpace` detects exactly the same clashes.

A Hypothesis state machine then drives :class:`GapIndex`'s in-place
``take``/``release`` and every policy query, with and without the size
order, against a plain address-sorted list, checking the treap's key order,
heap order and aggregates after every step.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.allocators import (
    BestFitAllocator,
    FirstFitAllocator,
    NextFitAllocator,
    WorstFitAllocator,
)
from repro.storage.address_space import AddressSpace, OverlapError
from repro.storage.extent import Extent
from repro.storage.gap_index import GapIndex


# --------------------------------------------------------------- seed oracle
class _ScanFreeList:
    """The pre-index free list: flat sorted list + linear-scan policies."""

    def __init__(self, policy):
        self.policy = policy
        self.free = []  # sorted by start address
        self.high_water = 0
        self.rover = 0

    def _choose_gap(self, size):
        free = self.free
        if self.policy == "first":
            for index, gap in enumerate(free):
                if gap.length >= size:
                    return index
            return None
        if self.policy == "best":
            best = None
            best_length = None
            for index, gap in enumerate(free):
                if gap.length >= size and (best_length is None or gap.length < best_length):
                    best = index
                    best_length = gap.length
            return best
        if self.policy == "worst":
            worst = None
            worst_length = -1
            for index, gap in enumerate(free):
                if gap.length >= size and gap.length > worst_length:
                    worst = index
                    worst_length = gap.length
            return worst
        count = len(free)  # next fit
        if count == 0:
            return None
        start = min(self.rover, count - 1)
        for offset in range(count):
            index = (start + offset) % count
            if free[index].length >= size:
                self.rover = index
                return index
        return None

    def insert(self, size):
        index = self._choose_gap(size)
        if index is None:
            address = self.high_water
            self.high_water += size
        else:
            gap = self.free[index]
            address = gap.start
            if gap.length == size:
                del self.free[index]
            else:
                self.free[index] = Extent(gap.start + size, gap.length - size)
        return address

    def release(self, extent):
        lo, hi = 0, len(self.free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.free[mid].start < extent.start:
                lo = mid + 1
            else:
                hi = mid
        start, end = extent.start, extent.end
        if lo > 0 and self.free[lo - 1].end == start:
            start = self.free[lo - 1].start
            del self.free[lo - 1]
            lo -= 1
        if lo < len(self.free) and self.free[lo].start == end:
            end = self.free[lo].end
            del self.free[lo]
        if end == self.high_water:
            self.high_water = start
        else:
            self.free.insert(lo, Extent(start, end - start))


POLICIES = {
    "first": FirstFitAllocator,
    "best": BestFitAllocator,
    "worst": WorstFitAllocator,
    "next": NextFitAllocator,
}

#: A churn script: positive = insert of that size, negative = delete the
#: live object at position (-value - 1) mod len(live).
churn_scripts = st.lists(
    st.integers(min_value=-64, max_value=48).filter(lambda v: v != 0),
    min_size=1,
    max_size=300,
)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=churn_scripts)
def test_indexed_policies_agree_with_seed_scans(policy, script):
    allocator = POLICIES[policy]()
    oracle = _ScanFreeList(policy)
    live = []
    next_id = 0
    for step, action in enumerate(script):
        if action > 0 or not live:
            size = abs(action)
            next_id += 1
            allocator.insert(next_id, size)
            expected = oracle.insert(size)
            assert allocator.address_of(next_id) == expected, (
                f"step {step}: {policy} fit chose {allocator.address_of(next_id)}, "
                f"seed scan chose {expected}"
            )
            live.append((next_id, size, expected))
        else:
            name, size, address = live.pop((-action - 1) % len(live))
            allocator.delete(name)
            oracle.release(Extent(address, size))
        assert allocator.free_extents() == oracle.free
        assert allocator.high_water == oracle.high_water
        assert allocator.free_volume() == sum(gap.length for gap in oracle.free)
    allocator.space.verify_disjoint()


# ---------------------------------------------------- overlap-audit oracle
def _naive_overlap(extents, candidate, ignore=None):
    for name, existing in extents.items():
        if name == ignore:
            continue
        if existing.overlaps(candidate):
            return name
    return None


#: An audit script: (op selector, address, length) triples.
audit_scripts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=1, max_value=24),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=audit_scripts)
def test_indexed_overlap_detection_agrees_with_all_pairs_scan(script):
    space = AddressSpace(validate=True)
    mirror = {}
    next_id = 0
    for op, address, length in script:
        extent = Extent(address, length)
        if op < 5 or not mirror:  # place
            next_id += 1
            name = f"obj-{next_id}"
            if _naive_overlap(mirror, extent) is None:
                space.place(name, extent)
                mirror[name] = extent
            else:
                with pytest.raises(OverlapError):
                    space.place(name, extent)
                assert name not in space
        elif op < 8:  # move an existing object
            name = sorted(mirror)[address % len(mirror)]
            if _naive_overlap(mirror, extent, ignore=name) is None:
                space.move(name, extent)
                mirror[name] = extent
            else:
                with pytest.raises(OverlapError):
                    space.move(name, extent)
                assert space.extent_of(name) == mirror[name]
        else:  # remove
            name = sorted(mirror)[address % len(mirror)]
            assert space.remove(name) == mirror.pop(name)
        assert space.free_gaps() == _naive_gaps(mirror)
        assert space.volume() == sum(e.length for e in mirror.values())
    space.verify_disjoint()


def _naive_gaps(extents):
    gaps = []
    cursor = 0
    for extent in sorted(extents.values(), key=lambda e: e.start):
        if extent.start > cursor:
            gaps.append(Extent(cursor, extent.start - cursor))
        cursor = max(cursor, extent.end)
    return gaps


# ------------------------------------------------------- GapIndex unit tests
def test_gap_index_policy_queries():
    gaps = GapIndex()
    for start, length in [(0, 4), (10, 8), (30, 8), (50, 2)]:
        gaps.add(Extent(start, length))
    assert len(gaps) == 4
    assert gaps.total_free == 22
    assert gaps.first_fit(5) == 10
    assert gaps.first_fit(2) == 0
    assert gaps.first_fit(9) is None
    assert gaps.best_fit(2) == 50
    assert gaps.best_fit(5) == 10  # ties on length 8 break to the lower address
    assert gaps.worst_fit(1) == 10
    assert gaps.worst_fit(9) is None
    assert list(gaps) == [Extent(0, 4), Extent(10, 8), Extent(30, 8), Extent(50, 2)]


def test_gap_index_take_and_remove():
    gaps = GapIndex()
    gaps.add(Extent(10, 8))
    gaps.take(10, 3)
    assert list(gaps) == [Extent(13, 5)]
    assert gaps.total_free == 5
    gaps.take(13, 5)  # exact fit removes the gap outright
    assert len(gaps) == 0 and gaps.total_free == 0
    gaps.add(Extent(4, 2))
    with pytest.raises(ValueError):
        gaps.take(4, 3)
    # The failed take must not have touched the free list (retry contract).
    assert list(gaps) == [Extent(4, 2)] and gaps.total_free == 2
    with pytest.raises(KeyError):
        gaps.remove(99)
    with pytest.raises(KeyError):
        gaps.take(99, 1)


@pytest.mark.parametrize("size_order", [True, False])
def test_gap_index_release_merges_both_sides_and_lowers_the_mark(size_order):
    gaps = GapIndex(size_order=size_order)
    gaps.add(Extent(0, 5))
    gaps.add(Extent(8, 2))
    # Between two gaps: one node absorbs the other and the freed extent.
    assert gaps.release(Extent(5, 3), high_water=40) == 40
    assert list(gaps) == [Extent(0, 10)] and gaps.total_free == 10
    # Next to neither: a new gap.
    assert gaps.release(Extent(20, 4), high_water=40) == 40
    assert list(gaps) == [Extent(0, 10), Extent(20, 4)]
    # Growing a gap backwards and forwards in place.
    assert gaps.release(Extent(18, 2), high_water=40) == 40
    assert gaps.release(Extent(24, 6), high_water=40) == 40
    assert list(gaps) == [Extent(0, 10), Extent(18, 12)] and gaps.total_free == 22
    # A merged gap ending at the mark is dropped and lowers the mark.
    assert gaps.release(Extent(30, 10), high_water=40) == 18
    assert list(gaps) == [Extent(0, 10)] and gaps.total_free == 10
    # A free at the mark next to no gap only lowers the mark.
    assert gaps.release(Extent(14, 4), high_water=18) == 14
    assert list(gaps) == [Extent(0, 10)]
    if size_order:
        assert gaps.best_fit(1) == 0 and gaps.worst_fit(10) == 0
    else:
        with pytest.raises(RuntimeError):
            gaps.best_fit(1)
        with pytest.raises(RuntimeError):
            gaps.worst_fit(1)


def test_only_best_and_worst_fit_keep_a_size_order():
    for policy, cls in POLICIES.items():
        assert cls()._gaps._size_order == (policy in ("best", "worst")), policy
    # A bare index keeps it, so the size-treap guard measures the same structure.
    assert GapIndex()._size_order


def test_failed_insert_restores_the_free_list_and_high_water():
    """If placement raises mid-insert (e.g. an observer blows up), the free
    list and high-water mark must roll back with the address space so the
    request can be retried — on both the gap-reuse and the extend path."""

    class _Bomb:
        armed = False

        def on_request(self, record):
            pass

        def on_move(self, move):
            if self.armed:
                raise RuntimeError("boom")

        def on_flush(self, record):
            pass

        def on_checkpoint(self, count):
            pass

    bomb = _Bomb()
    allocator = FirstFitAllocator(trace=True)
    allocator.attach_observer(bomb)
    allocator.insert("a", 4)
    allocator.insert("b", 4)
    allocator.delete("a")  # gap [0, 4)
    for size in (3, 10):  # 3 reuses the gap, 10 extends the high-water mark
        gaps_before = allocator.free_extents()
        high_water_before = allocator.high_water
        bomb.armed = True
        with pytest.raises(RuntimeError):
            allocator.insert("c", size)
        bomb.armed = False
        assert allocator.free_extents() == gaps_before
        assert allocator.high_water == high_water_before
        assert "c" not in allocator
    allocator.insert("c", 3)  # the retry lands exactly where the scan would
    assert allocator.address_of("c") == 0
    allocator.space.verify_disjoint()


def test_gap_index_next_fit_matches_the_cyclic_scan():
    gaps = GapIndex()
    for start, length in [(0, 4), (10, 8), (30, 8), (50, 2), (60, 16)]:
        gaps.add(Extent(start, length))
    for rover in range(8):
        for size in (1, 2, 4, 5, 8, 9, 16, 17):
            expected = next(
                ((rank, start) for rank, start, length in gaps.scan(rover) if length >= size),
                None,
            )
            assert gaps.next_fit(size, rover) == expected, (rover, size)
    assert GapIndex().next_fit(1, 0) is None


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    starts=st.lists(st.integers(min_value=0, max_value=400), min_size=0, max_size=40, unique=True),
    rover=st.integers(min_value=0, max_value=60),
    size=st.integers(min_value=1, max_value=12),
)
def test_gap_index_next_fit_agrees_with_scan_on_random_gap_sets(starts, rover, size):
    gaps = GapIndex()
    for start in starts:
        # Lengths 1..10, disjoint and non-adjacent by construction.
        gaps.add(Extent(start * 12, (start % 10) + 1))
    expected = next(
        ((rank, start) for rank, start, length in gaps.scan(rover) if length >= size),
        None,
    )
    assert gaps.next_fit(size, rover) == expected


def test_gap_index_scan_wraps_in_address_order():
    gaps = GapIndex()
    for start in (0, 10, 20, 30):
        gaps.add(Extent(start, 2))
    assert [(r, s) for r, s, _ in gaps.scan(2)] == [(2, 20), (3, 30), (0, 0), (1, 10)]
    # A rover past the end clamps to the last gap, like the seed scan.
    assert [s for _, s, _ in gaps.scan(99)] == [30, 0, 10, 20]
    assert list(GapIndex().scan(0)) == []


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    script=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=60)),
        min_size=1,
        max_size=200,
    ),
    sizes=st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=6),
)
def test_size_treap_best_and_worst_fit_agree_with_a_sorted_list(script, sizes):
    """Pin the size-ordered treap to the flat sorted-list oracle it replaced:
    after every add/remove, best_fit is the bisect ceiling of the request and
    worst_fit is the lowest-addressed entry of the maximum length."""
    from bisect import bisect_left, insort

    gaps = GapIndex()
    oracle = []  # sorted (length, start) pairs, exactly the old _by_size list
    for add, slot in script:
        start = slot * 16  # disjoint, non-adjacent by construction
        length = (slot % 12) + 1
        if add:
            if gaps.length_at(start) is not None:
                continue
            gaps.add(Extent(start, length))
            insort(oracle, (length, start))
        else:
            if gaps.length_at(start) is None:
                continue
            gaps.remove(start)
            del oracle[bisect_left(oracle, (length, start))]
        for size in sizes:
            pos = bisect_left(oracle, (size,))
            expected_best = oracle[pos][1] if pos < len(oracle) else None
            assert gaps.best_fit(size) == expected_best, (size, oracle)
            if not oracle or oracle[-1][0] < size:
                expected_worst = None
            else:
                expected_worst = oracle[bisect_left(oracle, (oracle[-1][0],))][1]
            assert gaps.worst_fit(size) == expected_worst, (size, oracle)
    assert gaps.total_free == sum(length for length, _ in oracle)


# ------------------------------------------- in-place updates: state machine
def _size_keys(node):
    if node is None:
        return []
    return _size_keys(node.left) + [node.key] + _size_keys(node.right)


def _check_treap(node, low, high):
    """Key order, heap order and the ``count``/``max_length`` aggregates of
    every node under ``node``; returns the subtree's (count, max_length)."""
    if node is None:
        return 0, 0
    assert low < node.start < high, (low, node.start, high)
    left_count, left_max = _check_treap(node.left, low, node.start)
    right_count, right_max = _check_treap(node.right, node.start, high)
    for child in (node.left, node.right):
        assert child is None or child.priority <= node.priority
    assert node.count == left_count + right_count + 1, node.start
    assert node.max_length == max(node.length, left_max, right_max), node.start
    return node.count, node.max_length


class _GapIndexMachine(RuleBasedStateMachine):
    """Drive ``take``/``release`` and every policy query against a naive
    address-sorted ``[start, length]`` list with a high-water mark."""

    size_order = True

    def __init__(self):
        super().__init__()
        self.gaps = GapIndex(size_order=self.size_order)
        self.model = []  # [start, length] pairs in address order
        self.high_water = 0
        self.allocated = []  # (start, length) extents owned by "objects"

    @rule(size=st.integers(min_value=1, max_value=16))
    def extend(self, size):
        self.allocated.append((self.high_water, size))
        self.high_water += size

    @precondition(lambda self: self.model)
    @rule(
        pick=st.integers(min_value=0, max_value=10**6),
        size=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    )
    def take(self, pick, size):
        """Take ``size`` units (None: the whole gap) from a gap's front."""
        gap = self.model[pick % len(self.model)]
        start, length = gap
        if size is None:
            size = length
        if size > length:
            with pytest.raises(ValueError):
                self.gaps.take(start, size)
            return
        self.gaps.take(start, size)
        self.allocated.append((start, size))
        if size == length:
            self.model.remove(gap)
        else:
            gap[0], gap[1] = start + size, length - size

    @precondition(lambda self: self.allocated)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def take_where_no_gap_starts(self, pick):
        start, _length = self.allocated[pick % len(self.allocated)]
        with pytest.raises(KeyError):
            self.gaps.take(start, 1)

    @precondition(lambda self: self.allocated)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def release(self, pick):
        start, length = self.allocated.pop(pick % len(self.allocated))
        got = self.gaps.release(Extent(start, length), self.high_water)
        end = start + length
        before = [gap for gap in self.model if gap[0] + gap[1] == start]
        after = [gap for gap in self.model if gap[0] == end]
        for gap in before + after:
            self.model.remove(gap)
        if before:
            start = before[0][0]
        if after:
            end = after[0][0] + after[0][1]
        if end == self.high_water:
            self.high_water = start
        else:
            self.model.append([start, end - start])
            self.model.sort()
        assert got == self.high_water

    @rule(size=st.integers(min_value=1, max_value=40))
    def first_fit(self, size):
        expected = next((start for start, length in self.model if length >= size), None)
        assert self.gaps.first_fit(size) == expected

    @rule(size=st.integers(min_value=1, max_value=40), rover=st.integers(min_value=0, max_value=40))
    def next_fit(self, size, rover):
        expected = None
        if self.model:
            first = min(rover, len(self.model) - 1)
            for offset in range(len(self.model)):
                rank = (first + offset) % len(self.model)
                if self.model[rank][1] >= size:
                    expected = (rank, self.model[rank][0])
                    break
        assert self.gaps.next_fit(size, rover) == expected

    @rule(size=st.integers(min_value=1, max_value=40))
    def best_and_worst_fit(self, size):
        if not self.size_order:
            with pytest.raises(RuntimeError):
                self.gaps.best_fit(size)
            with pytest.raises(RuntimeError):
                self.gaps.worst_fit(size)
            return
        fitting = sorted((length, start) for start, length in self.model if length >= size)
        assert self.gaps.best_fit(size) == (fitting[0][1] if fitting else None)
        widest = max((length for length, _ in fitting), default=None)
        expected_worst = min((s for l, s in fitting if l == widest), default=None)
        assert self.gaps.worst_fit(size) == expected_worst

    @invariant()
    def index_matches_the_model(self):
        assert [[extent.start, extent.length] for extent in self.gaps] == self.model
        assert len(self.gaps) == len(self.model)
        assert self.gaps.total_free == sum(length for _, length in self.model)
        _check_treap(self.gaps._root, -1, float("inf"))
        if self.size_order:
            assert _size_keys(self.gaps._size_root) == sorted(
                (length, start) for start, length in self.model
            )
        else:
            assert self.gaps._size_root is None
        # Gaps are maximal and below the mark: disjoint, non-adjacent, and
        # never trailing.
        for (start, length), (next_start, _) in zip(self.model, self.model[1:]):
            assert start + length < next_start
        if self.model:
            assert self.model[-1][0] + self.model[-1][1] < self.high_water


class _UnorderedGapIndexMachine(_GapIndexMachine):
    size_order = False


_MACHINE_SETTINGS = settings(
    max_examples=60,
    stateful_step_count=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestGapIndexWithSizeOrder = _GapIndexMachine.TestCase
TestGapIndexWithSizeOrder.settings = _MACHINE_SETTINGS
TestGapIndexWithoutSizeOrder = _UnorderedGapIndexMachine.TestCase
TestGapIndexWithoutSizeOrder.settings = _MACHINE_SETTINGS
