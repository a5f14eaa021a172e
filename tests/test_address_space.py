"""Unit tests for the auditing address space."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.address_space import AddressSpace, OverlapError
from repro.storage.extent import Extent


def test_place_move_remove_roundtrip():
    space = AddressSpace()
    space.place("a", Extent(0, 10))
    space.place("b", Extent(10, 5))
    assert space.footprint() == 15
    assert space.volume() == 15
    old = space.move("b", Extent(20, 5))
    assert old == Extent(10, 5)
    assert space.footprint() == 25
    removed = space.remove("a")
    assert removed == Extent(0, 10)
    assert space.volume() == 5
    assert "a" not in space and "b" in space


def test_overlap_detection_on_place_and_move():
    space = AddressSpace()
    space.place("a", Extent(0, 10))
    with pytest.raises(OverlapError):
        space.place("b", Extent(5, 2))
    space.place("b", Extent(10, 10))
    with pytest.raises(OverlapError):
        space.move("b", Extent(9, 5))
    # Moving over your own old position is allowed (Section 2 semantics).
    space.move("b", Extent(15, 10))
    assert space.extent_of("b") == Extent(15, 10)


def test_duplicate_and_missing_names():
    space = AddressSpace()
    space.place("a", Extent(0, 1))
    with pytest.raises(KeyError):
        space.place("a", Extent(5, 1))
    with pytest.raises(KeyError):
        space.move("missing", Extent(0, 1))
    with pytest.raises(KeyError):
        space.remove("missing")


def test_footprint_shrinks_when_last_object_leaves():
    space = AddressSpace()
    space.place("a", Extent(0, 10))
    space.place("b", Extent(50, 10))
    assert space.footprint() == 60
    space.remove("b")
    assert space.footprint() == 10
    space.move("a", Extent(100, 10))
    assert space.footprint() == 110
    space.remove("a")
    assert space.footprint() == 0


def test_unvalidated_space_skips_overlap_checks_but_keeps_accounting():
    space = AddressSpace(validate=False)
    space.place("a", Extent(0, 10))
    space.place("b", Extent(5, 10))  # no error in fast mode
    assert space.volume() == 20
    with pytest.raises(OverlapError):
        space.verify_disjoint()


def test_free_gaps_and_utilization():
    space = AddressSpace()
    space.place("a", Extent(0, 5))
    space.place("b", Extent(10, 5))
    gaps = space.free_gaps()
    assert gaps == [Extent(5, 5)]
    assert space.utilization() == pytest.approx(10 / 15)
    assert AddressSpace().utilization() == 1.0


def test_snapshot_is_a_copy():
    space = AddressSpace()
    space.place("a", Extent(0, 5))
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
        space.place("a", Extent(round_number, 1))
        space.place("b", Extent(round_number + 5, 1))
        assert space.footprint() == round_number + 6
        space.remove("a")
        space.remove("b")
    assert space.footprint() == 0
    assert len(space._end_heap) <= 128  # bounded, not the 10k pushes made
    # The compacted heap keeps answering correctly as objects come back.
    space.place("c", Extent(7, 3))
    assert space.footprint() == 10


def test_end_heap_compaction_preserves_duplicate_end_counts():
    """Several live extents sharing one end address survive compaction:
    the end stays in the heap until the last of them is removed."""
    space = AddressSpace(validate=False)
    for index in range(3):
        space.place(("dup", index), Extent(90, 10))  # all end at 100
    # Churn enough distinct ends to trigger at least one compaction.
    for round_number in range(200):
        space.place("tmp", Extent(200 + round_number, 5))
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
            space.place(name, extent)
            mirror[name] = extent
        elif op == "move":
            name = rng.choice(list(mirror))
            extent = Extent(rng.randint(0, 500), mirror[name].length)
            space.move(name, extent)
            mirror[name] = extent
        else:
            name = rng.choice(list(mirror))
            removed = space.remove(name)
            assert removed == mirror.pop(name)
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
    space.place("a", Extent(0, 4))
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
                    space.place(name, extent)
            else:
                space.place(name, extent)
                mirror[name] = extent
        elif op == "move" and name in mirror:
            if clash:
                with pytest.raises(OverlapError):
                    space.move(name, extent)
            else:
                assert space.move(name, extent) == mirror[name]
                mirror[name] = extent
        elif op == "remove" and name in mirror:
            assert space.remove(name) == mirror.pop(name)
        else:
            continue
        if clash:
            assert (space.footprint(), space.volume()) == before
        assert space.footprint() == _naive_footprint(mirror)
        assert space.volume() == _naive_volume(mirror)
        assert space.snapshot() == mirror
    space.verify_disjoint()
