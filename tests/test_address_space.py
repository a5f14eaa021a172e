"""Unit tests for the auditing address space."""

import pickle
import re
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import CostObliviousReallocator, DeamortizedReallocator
from repro.obs.telemetry import NullSink, Telemetry, use_telemetry
from repro.storage.address_space import AddressSpace, OverlapError
from repro.storage.extent import Extent


def test_place_move_remove_roundtrip():
    space = AddressSpace()
    space.place("a", 0, 10)
    space.place("b", 10, 5)
    assert space.footprint() == 15
    assert space.volume() == 15
    old = space.move("b", 20)
    assert old == 10
    assert space.extent_of("b") == Extent(20, 5)
    assert space.start_of("b") == 20 and space.start_of("missing") is None
    assert space.footprint() == 25
    removed = space.remove("a")
    assert removed == 0
    assert space.volume() == 5
    assert "a" not in space and "b" in space


def test_overlap_detection_on_place_and_move():
    space = AddressSpace()
    space.place("a", 0, 10)
    with pytest.raises(OverlapError):
        space.place("b", 5, 2)
    space.place("b", 10, 10)
    with pytest.raises(OverlapError):
        space.move("b", 9)
    # Moving over your own old position is allowed (Section 2 semantics).
    space.move("b", 15)
    assert space.extent_of("b") == Extent(15, 10)


def test_duplicate_and_missing_names():
    space = AddressSpace()
    space.place("a", 0, 1)
    with pytest.raises(KeyError):
        space.place("a", 5, 1)
    with pytest.raises(KeyError):
        space.move("missing", 0)
    with pytest.raises(KeyError):
        space.remove("missing")


def test_place_validates_the_span_and_move_its_start():
    space = AddressSpace()
    with pytest.raises(ValueError, match="start must be nonnegative"):
        space.place("a", -1, 4)
    with pytest.raises(ValueError, match="length must be positive"):
        space.place("a", 0, 0)
    assert len(space) == 0 and space.volume() == 0
    space.place("a", 0, 4)
    with pytest.raises(ValueError, match="start must be nonnegative"):
        space.move("a", -2)
    assert space.extent_of("a") == Extent(0, 4)


def test_footprint_shrinks_when_last_object_leaves():
    space = AddressSpace()
    space.place("a", 0, 10)
    space.place("b", 50, 10)
    assert space.footprint() == 60
    space.remove("b")
    assert space.footprint() == 10
    space.move("a", 100)
    assert space.footprint() == 110
    space.remove("a")
    assert space.footprint() == 0


def test_free_gaps_and_utilization():
    space = AddressSpace()
    space.place("a", 0, 5)
    space.place("b", 10, 5)
    gaps = space.free_gaps()
    assert gaps == [Extent(5, 5)]
    assert space.utilization() == pytest.approx(10 / 15)
    assert AddressSpace().utilization() == 1.0


def test_snapshot_is_a_copy():
    space = AddressSpace()
    space.place("a", 0, 5)
    snapshot = space.snapshot()
    snapshot["a"] = Extent(100, 5)
    assert space.extent_of("a") == Extent(0, 5)


# ------------------------------------------------------------ property tests
def _naive_footprint(extents):
    return max((extent.end for extent in extents.values()), default=0)


def _naive_volume(extents):
    return sum(extent.length for extent in extents.values())


#: One step of the audited-footprint property test: an op, a name slot, an
#: address and a length (``move`` keeps the object's length, as the
#: reallocators do).
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["place", "move", "remove"]),
        st.integers(0, 11),
        st.integers(0, 120),
        st.integers(1, 24),
    ),
    max_size=80,
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=_STEPS)
def test_audited_footprint_matches_naive_recomputation(steps):
    """An audited space reads its footprint from the last index entry.
    Random place/move/remove sequences, including overlapping requests the
    audit rejects, must always agree with a from-scratch recompute, and a
    rejected request must leave footprint and volume unchanged."""
    space = AddressSpace()
    mirror = {}
    for op, slot, address, length in steps:
        name = f"obj-{slot}"
        before = (space.footprint(), space.volume())
        if op == "move" and name in mirror:
            length = mirror[name].length
        extent = Extent(address, length)
        clash = op != "remove" and any(
            extent.overlaps(other) for other_name, other in mirror.items() if other_name != name
        )
        if op == "place" and name not in mirror:
            if clash:
                with pytest.raises(OverlapError):
                    space.place(name, address, length)
            else:
                space.place(name, address, length)
                mirror[name] = extent
        elif op == "move" and name in mirror:
            if clash:
                with pytest.raises(OverlapError):
                    space.move(name, address)
            else:
                assert space.move(name, address) == mirror[name].start
                mirror[name] = extent
        elif op == "remove" and name in mirror:
            assert space.remove(name) == mirror.pop(name).start
        else:
            continue
        if clash:
            assert (space.footprint(), space.volume()) == before
        assert space.footprint() == _naive_footprint(mirror)
        assert space.volume() == _naive_volume(mirror)
        assert space.snapshot() == mirror
    space.verify_disjoint()


# ------------------------------------------------------------ in-slot moves
def _parent_clash(mirror, name, extent):
    """The object a move's audit names, computed on the naive model the way
    the index probe finds it: the nearest other object starting before the
    destination, then the nearest starting at or after it.  Live extents
    are disjoint, so their starts are distinct and both are unique."""
    others = [(other.start, other.end, other_name) for other_name, other in mirror.items()
              if other_name != name]
    before = [span for span in others if span[0] < extent.start]
    after = [span for span in others if span[0] >= extent.start]
    if before and max(before)[1] > extent.start:
        return max(before)[2]
    if after and min(after)[0] < extent.end:
        return min(after)[2]
    return None


def _move_target(kind, mirror, name, offset):
    """A destination ``Extent`` of the given kind for ``name``, relative to
    its current neighbours in address order.  A move keeps the object's
    length, so no move can reach both neighbours from its own slot."""
    extent = mirror[name]
    length = extent.length
    others = sorted((other.start, other.end) for other_name, other in mirror.items()
                    if other_name != name)
    before = [span for span in others if span[0] < extent.start]
    after = [span for span in others if span[0] >= extent.start]
    pred = before[-1] if before else None
    succ = after[0] if after else None
    start = extent.start  # lands on its own start unless a kind applies
    if kind == "in_slot":
        low = pred[1] if pred else 0
        high = succ[0] if succ else low + length + 40
        room = high - low - length
        if room >= 0:
            start = low + offset % (room + 1)
    elif kind == "past_successor" and succ:
        start = succ[1] + offset % 20
    elif kind == "past_predecessor" and pred:
        start = max(0, pred[0] - length - offset % 20)
    elif kind == "clash_predecessor" and pred:
        start = max(0, pred[1] - 1 - offset % length)
    elif kind == "clash_successor" and succ:
        start = max(0, succ[0] - length + 1 + offset % length)
    elif kind == "equal_start" and others:
        start = others[offset % len(others)][0]
    return Extent(start, length)


_MOVE_KINDS = [
    "in_slot", "past_successor", "past_predecessor",
    "clash_predecessor", "clash_successor", "equal_start",
]

#: Placements to start from, then steps of an op, a name slot, an offset
#: and a length (used by ``place`` only: moves keep the object's length).
_SLOT_LAYOUT = st.lists(st.tuples(st.integers(0, 150), st.integers(1, 16)), min_size=2, max_size=10)
_SLOT_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["place", "remove"] + _MOVE_KINDS * 3),
        st.integers(0, 9),
        st.integers(0, 150),
        st.integers(1, 16),
    ),
    min_size=5,
    max_size=60,
)


def _assert_index_matches(space, mirror):
    keys = [(start, order) for start, order, _, _ in space._index]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert [(start, end, name) for start, _, end, name in space._index] == sorted(
        (extent.start, extent.end, name) for name, extent in mirror.items()
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layout=_SLOT_LAYOUT, steps=_SLOT_STEPS)
def test_moves_in_and_out_of_their_slot_match_the_naive_model(layout, steps):
    """Moves that keep their rank (rewritten in place), jump past a
    neighbour, clash with either neighbour or land on an equal start: the
    index stays sorted, ``OverlapError`` is raised exactly when the naive
    model overlaps and names the object the index probe names, a raising
    move changes nothing, and every move counts one audit probe."""
    telemetry = Telemetry(enabled=True, sink=NullSink())
    with use_telemetry(telemetry):
        space = AddressSpace()
    mirror = {}
    requests = 0
    layout_steps = [("place", slot, start, length) for slot, (start, length) in enumerate(layout)]
    for op, slot, offset, length in layout_steps + steps:
        if op == "place":
            name = f"obj-{slot}"
        elif mirror:  # moves and removes pick among the live objects
            name = sorted(mirror)[slot % len(mirror)]
        else:
            continue
        if op == "place":
            extent = Extent(offset, length)
            if name in mirror or _parent_clash(mirror, name, extent) is not None:
                continue
            space.place(name, offset, length)
            mirror[name] = extent
        elif op == "remove":
            assert space.remove(name) == mirror.pop(name).start
        else:
            extent = _move_target(op, mirror, name, offset)
            naive = any(
                extent.overlaps(other) for other_name, other in mirror.items()
                if other_name != name
            )
            expected = _parent_clash(mirror, name, extent)
            assert (expected is not None) == naive
            before = (list(space._index), space.snapshot(), space.footprint(), space.volume())
            if naive:
                with pytest.raises(OverlapError, match=re.escape(f"overlaps {expected!r} at")):
                    space.move(name, extent.start)
                after = (list(space._index), space.snapshot(), space.footprint(), space.volume())
                assert after == before
            else:
                assert space.move(name, extent.start) == mirror[name].start
                mirror[name] = extent
        if op != "remove":
            requests += 1
        _assert_index_matches(space, mirror)
        assert space.footprint() == _naive_footprint(mirror)
        assert space.volume() == _naive_volume(mirror)
    assert telemetry.counter("address_space.audit_probes").value == requests
    space.verify_disjoint()


class _ProbeCountingSpace(AddressSpace):
    def __init__(self):
        super().__init__()
        self.walks = 0

    def _find_overlap(self, start, end, ignore=None):
        self.walks += 1
        return super()._find_overlap(start, end, ignore)


def test_a_move_that_keeps_its_rank_skips_the_index_walk():
    space = _ProbeCountingSpace()
    for name, start in (("a", 0), ("b", 20), ("c", 40)):
        space.place(name, start, 5)
    walks = space.walks
    space.move("b", 27)  # still between a and c
    space.move("a", 2)  # first entry, before b
    space.move("c", 60)  # last entry, after b
    assert space.walks == walks
    with pytest.raises(OverlapError, match="overlaps 'c'"):
        space.move("b", 58)  # keeps its rank, clashes with c
    with pytest.raises(OverlapError, match="overlaps 'a'"):
        space.move("b", 6)  # keeps its rank, clashes with a
    assert space.walks == walks
    with pytest.raises(OverlapError, match="overlaps 'c'"):
        space.move("b", 62)  # jumps past c and clashes with it
    space.move("b", 70)  # jumps past c
    assert space.walks == walks + 2
    assert [name for _, _, _, name in space._index] == ["a", "c", "b"]


def test_unpickles_the_layout_that_mapped_names_to_extents():
    """A pickle of the older layout (a name -> ``Extent`` map beside an
    ``_order`` serial map) comes back as a map of index entries, in the
    same name order, that keeps working."""
    extents = {"b": Extent(10, 5), "a": Extent(0, 4), "c": Extent(20, 2)}
    order = {name: serial for serial, name in enumerate(extents)}
    legacy = AddressSpace.__new__(AddressSpace)
    legacy.__dict__.update(
        _validate=True,
        _extents=extents,
        _volume=11,
        _index=sorted((e.start, order[name], e.end, name) for name, e in extents.items()),
        _order=order,
        _order_seq=3,
        _c_probes=None,
        _c_compactions=None,
    )
    space = pickle.loads(pickle.dumps(legacy))
    assert "_extents" not in vars(space) and "_order" not in vars(space)
    assert list(space.items()) == list(extents.items())
    assert space.footprint() == 22 and space.volume() == 11
    assert space.move("a", 30) == 0
    space.place("d", 0, 4)
    assert space.start_of("a") == 30 and space.footprint() == 34
    space.verify_disjoint()


def _unaudited_snapshot(layout, extents):
    """A space as an unaudited ``AddressSpace(validate=False)`` pickled it:
    no address index, an end-heap instead, and its names either as index
    entries (``entries``) or, before that, as extents (``extents``)."""
    ends = Counter(extent.end for extent in extents.values())
    legacy = AddressSpace.__new__(AddressSpace)
    legacy.__dict__.update(
        _validate=False,
        _volume=sum(extent.length for extent in extents.values()),
        _index=[],
        _order_seq=len(extents),
        _c_probes=None,
        _c_compactions=None,
        _end_counts=ends,
        _end_heap=sorted(-end for end in ends),
        _tracked_ends=len(extents),
    )
    if layout == "entries":
        legacy._entries = {
            name: (e.start, serial, e.end, name)
            for serial, (name, e) in enumerate(extents.items())
        }
    else:
        legacy.__dict__.update(_extents=extents, _order={})
    return pickle.dumps(legacy)


@pytest.mark.parametrize("layout", ["entries", "extents"])
def test_an_unaudited_snapshot_restores_as_an_audited_space(layout):
    """The unaudited mode is gone: its snapshot comes back indexed and
    audited, without its end-heap, and answers from the index."""
    extents = {"b": Extent(10, 5), "a": Extent(0, 4), "c": Extent(20, 2)}
    space = pickle.loads(_unaudited_snapshot(layout, extents))
    for stale in ("_validate", "_end_heap", "_end_counts", "_tracked_ends", "_c_compactions"):
        assert stale not in vars(space)
    assert list(space.items()) == list(extents.items())
    assert [name for _, _, _, name in space._index] == ["a", "b", "c"]
    assert space.footprint() == 22 and space.volume() == 11
    assert space.free_gaps() == [Extent(4, 6), Extent(15, 5)]
    with pytest.raises(OverlapError, match="overlaps 'b'"):
        space.place("d", 12, 2)
    space.place("d", 4, 6)
    assert space.move("c", 30) == 20 and space.footprint() == 32
    space.verify_disjoint()


@pytest.mark.parametrize("layout", ["entries", "extents"])
def test_an_overlapping_unaudited_snapshot_is_refused(layout):
    overlapping = {"a": Extent(0, 10), "b": Extent(5, 10)}
    with pytest.raises(OverlapError, match="'a' at .* overlaps 'b'"):
        pickle.loads(_unaudited_snapshot(layout, overlapping))


@pytest.mark.parametrize("build", [
    lambda: CostObliviousReallocator(0.25, audit=False),
    lambda: DeamortizedReallocator(0.25, audit=False),
], ids=["cost_oblivious", "deamortized"])
def test_the_ignored_audit_keyword_still_builds_an_audited_space(build):
    """perfbench builds these two with ``audit=False``; the keyword is
    accepted and ignored, so the space still refuses an overlap."""
    allocator = build()
    allocator.space.place("x", 0, 8)
    with pytest.raises(OverlapError):
        allocator.space.place("y", 4, 8)


# ------------------------------------------------------- index-position hint
#: Sweep steps: ``("sweep", rank, direction, count, shift)`` moves ``count``
#: index neighbours from ``rank`` on, in ``direction``, each by ``shift``
#: (small shifts keep the rank, larger ones clash or jump a neighbour);
#: ``place``/``remove`` shift the positions under the hint; ``pickle``
#: round-trips the space mid-sweep.
_HINT_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("sweep"),
            st.integers(0, 30),
            st.sampled_from([1, -1]),
            st.integers(1, 12),
            st.integers(-14, 14),
        ),
        st.tuples(st.just("place"), st.integers(0, 400), st.integers(1, 6)),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("pickle")),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gaps=st.lists(st.integers(0, 8), min_size=3, max_size=30), steps=_HINT_STEPS)
def test_sweeps_through_the_position_hint_match_the_naive_model(gaps, steps):
    """Ascending and descending sweeps, rank-changing and refused moves,
    and placements and removals that shift the index under the hint: the
    index always equals the sorted entries, ``OverlapError`` is raised
    exactly when the naive model overlaps, and every move counts one
    audit probe."""
    telemetry = Telemetry(enabled=True, sink=NullSink())
    with use_telemetry(telemetry):
        space = AddressSpace()
    mirror = {}
    cursor = 0
    for serial, gap in enumerate(gaps):
        cursor += gap
        space.place(serial, cursor, 4)
        mirror[serial] = Extent(cursor, 4)
        cursor += 4
    moves = 0
    serial = len(gaps)
    for step in steps:
        if step[0] == "sweep":
            _, rank, direction, count, shift = step
            for _ in range(count):
                if not mirror or not 0 <= rank < len(mirror):
                    break
                name = sorted(mirror, key=lambda n: mirror[n].start)[rank]
                extent = Extent(max(0, mirror[name].start + shift), mirror[name].length)
                naive = any(
                    extent.overlaps(other) for other_name, other in mirror.items()
                    if other_name != name
                )
                moves += 1
                if naive:
                    with pytest.raises(OverlapError):
                        space.move(name, extent.start)
                else:
                    assert space.move(name, extent.start) == mirror[name].start
                    mirror[name] = extent
                rank += direction
        elif step[0] == "place":
            extent = Extent(step[1], step[2])
            if not any(extent.overlaps(other) for other in mirror.values()):
                space.place(serial, extent.start, extent.length)
                mirror[serial] = extent
                serial += 1
        elif step[0] == "remove" and mirror:
            name = sorted(mirror)[step[1] % len(mirror)]
            assert space.remove(name) == mirror.pop(name).start
        elif step[0] == "pickle":
            probes = space._c_probes
            space = pickle.loads(pickle.dumps(space))
            space._c_probes = probes  # the counter is the test's, not the snapshot's
        assert space._index == sorted(space._entries.values())
        assert space.snapshot() == mirror
    assert telemetry.counter("address_space.audit_probes").value == moves + len(gaps) + (
        serial - len(gaps)
    )
    space.verify_disjoint()


def test_a_sweep_of_in_slot_moves_bisects_once(monkeypatch):
    """Each move of a sweep finds its entry through the hint; only the
    first moves of a sweep, and a move after the index shifted under the
    hint, bisect."""
    from repro.storage import address_space

    calls = []

    def counting_bisect(index, entry, *args):
        calls.append(entry[-1])
        return bisect_left(index, entry, *args)

    monkeypatch.setattr(address_space, "bisect_left", counting_bisect)
    space = AddressSpace()
    for serial in range(10):
        space.place(serial, 10 * serial, 4)
    calls.clear()
    for serial in range(10):  # ascending, each keeps its rank
        space.move(serial, 10 * serial + 3)
    assert calls == [0]
    for serial in reversed(range(10)):  # descending
        space.move(serial, 10 * serial + 1)
    assert calls == [0, 9, 8]  # the reversal costs two bisects
    space.remove(0)  # every position shifts down by one under the hint
    calls.clear()
    space.move(1, 10)
    space.move(2, 22)
    assert calls == [1]  # the stale hint misses once, then the sweep goes on


def test_a_space_pickled_before_the_hint_restores():
    """A snapshot from before the hint carries no hint fields: the class
    defaults stand in, and the first move bisects."""
    space = AddressSpace()
    space.place("a", 0, 4)
    space.place("b", 10, 4)
    state = dict(vars(space))
    assert "_hint_pos" not in state  # set only by a move
    legacy = AddressSpace.__new__(AddressSpace)
    legacy.__dict__.update(state)
    restored = pickle.loads(pickle.dumps(legacy))
    assert restored.move("a", 5) == 0 and restored.move("b", 12) == 10
    assert restored._index == sorted(restored._entries.values())
    moved = pickle.loads(pickle.dumps(restored))  # mid-sweep, hint included
    assert moved._hint_pos == 1 and moved.move("a", 6) == 5
    assert moved.snapshot() == {"a": Extent(6, 4), "b": Extent(12, 4)}
