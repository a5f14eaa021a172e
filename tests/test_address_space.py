"""Unit tests for the auditing address space."""

import pickle
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


def test_unvalidated_space_skips_overlap_checks_but_keeps_accounting():
    space = AddressSpace(validate=False)
    space.place("a", 0, 10)
    space.place("b", 5, 10)  # no error in fast mode
    assert space.volume() == 20
    with pytest.raises(OverlapError):
        space.verify_disjoint()


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


def test_end_heap_is_compacted_on_delete_heavy_churn():
    """A long insert/delete churn trace must not grow the lazy footprint
    heap without bound: stale entries are compacted away once they exceed
    2x the live ones, so the heap stays proportional to the live set.
    Only an unaudited space keeps the heap; an audited one reads its
    footprint from the address index."""
    space = AddressSpace(validate=False)
    for round_number in range(5000):
        # Two live objects at a time, with ever-changing end addresses so
        # every round pushes fresh heap entries and strands the old ones.
        space.place("a", round_number, 1)
        space.place("b", round_number + 5, 1)
        assert space.footprint() == round_number + 6
        space.remove("a")
        space.remove("b")
    assert space.footprint() == 0
    assert len(space._end_heap) <= 128  # bounded, not the 10k pushes made
    # The compacted heap keeps answering correctly as objects come back.
    space.place("c", 7, 3)
    assert space.footprint() == 10


def test_end_heap_compaction_preserves_duplicate_end_counts():
    """Several live extents sharing one end address survive compaction:
    the end stays in the heap until the last of them is removed."""
    space = AddressSpace(validate=False)
    for index in range(3):
        space.place(("dup", index), 90, 10)  # all end at 100
    # Churn enough distinct ends to trigger at least one compaction.
    for round_number in range(200):
        space.place("tmp", 200 + round_number, 5)
        space.remove("tmp")
    for index in range(3):
        assert space.footprint() == 100
        space.remove(("dup", index))
    assert space.footprint() == 0


# ------------------------------------------------------------ property tests
def _naive_footprint(extents):
    return max((extent.end for extent in extents.values()), default=0)


def _naive_volume(extents):
    return sum(extent.length for extent in extents.values())


@pytest.mark.parametrize("seed", range(5))
def test_incremental_footprint_and_volume_match_naive_recomputation(seed):
    """Random place/move/remove sequences: the lazy-heap footprint and the
    running volume counter must always agree with a from-scratch recompute."""
    import random

    rng = random.Random(seed)
    space = AddressSpace(validate=False)  # overlaps allowed: stresses the heap
    mirror = {}
    next_id = 0
    for step in range(400):
        ops = ["place"]
        if mirror:
            ops += ["move", "remove", "remove"]
        op = rng.choice(ops)
        if op == "place":
            name = f"obj-{next_id}"
            next_id += 1
            extent = Extent(rng.randint(0, 500), rng.randint(1, 64))
            space.place(name, extent.start, extent.length)
            mirror[name] = extent
        elif op == "move":
            name = rng.choice(list(mirror))
            extent = Extent(rng.randint(0, 500), mirror[name].length)
            assert space.move(name, extent.start) == mirror[name].start
            mirror[name] = extent
        else:
            name = rng.choice(list(mirror))
            removed = space.remove(name)
            assert removed == mirror.pop(name).start
        assert space.footprint() == _naive_footprint(mirror), f"step {step}"
        assert space.volume() == _naive_volume(mirror), f"step {step}"
        assert len(space) == len(mirror)
    # Drain everything: the footprint must collapse back to zero.
    for name in list(mirror):
        space.remove(name)
        del mirror[name]
        assert space.footprint() == _naive_footprint(mirror)
    assert space.footprint() == 0 and space.volume() == 0


def test_audited_space_keeps_no_end_heap():
    space = AddressSpace()
    space.place("a", 0, 4)
    assert not hasattr(space, "_end_heap") and not hasattr(space, "_end_counts")
    assert hasattr(AddressSpace(validate=False), "_end_heap")


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


@pytest.mark.parametrize("validate", [True, False])
def test_unpickles_the_layout_that_mapped_names_to_extents(validate):
    """A pickle of the older layout (a name -> ``Extent`` map beside an
    ``_order`` serial map, which an unaudited space left empty) comes back
    as a map of index entries, in the same name order, that keeps working."""
    extents = {"b": Extent(10, 5), "a": Extent(0, 4), "c": Extent(20, 2)}
    legacy = AddressSpace.__new__(AddressSpace)
    legacy.__dict__.update(
        _validate=validate,
        _extents=extents,
        _volume=11,
        _index=[],
        _order={},
        _order_seq=0,
        _c_probes=None,
        _c_compactions=None,
    )
    if validate:
        legacy._order = {name: order for order, name in enumerate(extents)}
        legacy._order_seq = 3
        legacy._index = sorted(
            (e.start, legacy._order[name], e.end, name) for name, e in extents.items()
        )
    else:
        legacy.__dict__.update(
            _end_counts=Counter({15: 1, 4: 1, 22: 1}), _end_heap=[-22, -15, -4], _tracked_ends=3
        )
    space = pickle.loads(pickle.dumps(legacy))
    assert "_extents" not in vars(space) and "_order" not in vars(space)
    assert list(space.items()) == list(extents.items())
    assert space.footprint() == 22 and space.volume() == 11
    assert space.move("a", 30) == 0
    space.place("d", 0, 4)
    assert space.start_of("a") == 30 and space.footprint() == 34
    space.verify_disjoint()
