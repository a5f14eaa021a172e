"""Unit tests for the Section 2 cost-oblivious reallocator."""

import pytest

from repro.core import (
    AllocationError,
    CheckpointedReallocator,
    CostObliviousReallocator,
    DeamortizedReallocator,
    check_invariants,
    render_layout,
)
from repro.core.invariants import InvariantViolation
from repro.core.size_classes import size_class_of
from repro.costs import ConstantCost, LinearCost
from repro.storage.address_space import OverlapError
from tests.conftest import random_churn


def test_epsilon_validation():
    with pytest.raises(ValueError):
        CostObliviousReallocator(epsilon=0.0)
    with pytest.raises(ValueError):
        CostObliviousReallocator(epsilon=0.75)
    CostObliviousReallocator(epsilon=0.5)  # upper boundary allowed


def test_single_insert_creates_one_region_at_the_origin():
    realloc = CostObliviousReallocator(epsilon=0.5)
    realloc.insert("a", 12)
    assert realloc.address_of("a") == 0
    assert realloc.volume == 12
    assert realloc.region_indices() == [size_class_of(12)]
    check_invariants(realloc)


def test_duplicate_insert_and_unknown_delete_rejected():
    realloc = CostObliviousReallocator()
    realloc.insert("a", 4)
    with pytest.raises(AllocationError):
        realloc.insert("a", 4)
    with pytest.raises(AllocationError):
        realloc.delete("missing")
    with pytest.raises(AllocationError):
        realloc.insert("b", 0)


def test_growing_size_classes_are_appended_in_order():
    realloc = CostObliviousReallocator(epsilon=0.5)
    for exponent in range(6):
        realloc.insert(f"o{exponent}", 2**exponent)
        check_invariants(realloc)
    indices = realloc.region_indices()
    assert indices == sorted(indices)
    # Regions are laid out left to right by class.
    starts = [realloc.region(i).start for i in indices]
    assert starts == sorted(starts)


def test_small_insert_lands_in_a_buffer_without_moves():
    realloc = CostObliviousReallocator(epsilon=0.5)
    realloc.insert("big", 100)
    record = realloc.insert("small", 1)
    assert record.move_count == 0
    assert record.flush is None
    placement = realloc._placement["small"]
    assert placement[0] == "buffer"
    check_invariants(realloc)


def test_flush_empties_buffers_and_restores_invariant_2_4():
    realloc = CostObliviousReallocator(epsilon=0.5, trace=True)
    moving_flush = None
    index = 0
    while moving_flush is None and index < 400:
        record = realloc.insert(index, 4 + (index % 5))
        if record.flush is not None and record.flush.move_count > 0:
            moving_flush = record.flush
        index += 1
        check_invariants(realloc)
    assert moving_flush is not None, "expected a flush that relocates objects"
    assert moving_flush.moved_volume >= moving_flush.move_count
    # After a flush the flushed buffers are empty again (Invariant 2.4); the
    # invariant checker verifies segment contents and capacities.
    check_invariants(realloc)


def test_delete_leaves_hole_and_records_dummy_request():
    realloc = CostObliviousReallocator(epsilon=0.5)
    realloc.insert("big", 64)
    realloc.insert("other", 64)
    footprint_before = realloc.footprint
    record = realloc.delete("big")
    # The hole is not reused immediately; the footprint cannot grow.
    assert realloc.footprint <= footprint_before
    assert realloc.volume == 64
    assert record.op == "delete"
    check_invariants(realloc)


def test_deleting_a_buffered_object_consumes_no_extra_space():
    realloc = CostObliviousReallocator(epsilon=0.5)
    realloc.insert("big", 200)
    realloc.insert("tiny", 1)  # goes to a buffer
    region = realloc.region(realloc.region_indices()[-1])
    used_before = realloc.buffered_volume()
    realloc.delete("tiny")
    assert realloc.buffered_volume() == used_before  # slot became a record
    assert "tiny" not in realloc
    check_invariants(realloc)


def test_footprint_bound_holds_throughout_random_churn():
    realloc = CostObliviousReallocator(epsilon=0.5)
    live = random_churn(realloc, steps=1500, seed=3)
    assert realloc.volume == sum(live.values())
    assert realloc.stats.max_footprint_ratio <= 1.5 + 1e-9
    check_invariants(realloc)


@pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.125])
def test_reserved_space_respects_lemma_2_5_bound(epsilon):
    realloc = CostObliviousReallocator(epsilon=epsilon)
    import random

    rng = random.Random(7)
    live = {}
    next_id = 0
    for _ in range(1200):
        if live and rng.random() < 0.5:
            name = rng.choice(list(live))
            realloc.delete(name)
            del live[name]
        else:
            next_id += 1
            size = rng.randint(1, 80)
            realloc.insert(next_id, size)
            live[next_id] = size
        if realloc.volume:
            assert realloc.reserved_space <= (1 + epsilon) * realloc.volume + 1e-9


def test_cost_ratio_is_bounded_and_cost_oblivious():
    realloc = CostObliviousReallocator(epsilon=0.25)
    random_churn(realloc, steps=3000, seed=11)
    linear = realloc.stats.cost_ratio(LinearCost())
    constant = realloc.stats.cost_ratio(ConstantCost())
    # O((1/eps) log(1/eps)) with eps'=eps/12ish: generous numeric cap.
    assert 0 < linear < 60
    assert 0 < constant < 60


def test_objects_never_overlap_even_during_flushes():
    realloc = CostObliviousReallocator(epsilon=0.5)
    random_churn(realloc, steps=800, seed=13, max_size=200)
    realloc.space.verify_disjoint()


def test_moves_only_touch_equal_or_larger_classes():
    """A flush triggered by a class-c object only moves objects of class >= b
    where b <= c — smaller objects are never dragged along (Section 2)."""
    realloc = CostObliviousReallocator(epsilon=0.5, trace=True)
    random_churn(realloc, steps=1000, seed=17, max_size=128)
    for record in realloc.history:
        if record.flush is None:
            continue
        boundary = record.flush.boundary_class
        trigger_class = size_class_of(record.size)
        assert boundary <= trigger_class
        for move in record.moves:
            if move.is_reallocation:
                assert size_class_of(move.size) >= boundary


def test_empty_reallocator_reports_zero_footprint():
    realloc = CostObliviousReallocator()
    assert realloc.footprint == 0
    assert realloc.volume == 0
    assert realloc.reserved_space == 0
    assert render_layout(realloc) == "(empty layout)"


def test_structure_shrinks_to_zero_after_all_deletions():
    realloc = CostObliviousReallocator(epsilon=0.5)
    for index in range(50):
        realloc.insert(index, 1 + index % 9)
    for index in range(50):
        realloc.delete(index)
    assert realloc.volume == 0
    assert realloc.num_objects == 0
    assert realloc.reserved_space == 0
    check_invariants(realloc)


def test_invariant_checker_detects_corruption():
    realloc = CostObliviousReallocator(epsilon=0.5)
    for index in range(30):
        realloc.insert(index, 4)
    # Corrupt the structure deliberately: shrink a payload capacity.
    some_class = realloc.region_indices()[0]
    realloc.region(some_class).payload_capacity = 0
    with pytest.raises(InvariantViolation):
        check_invariants(realloc)


def test_render_layout_mentions_every_region():
    realloc = CostObliviousReallocator(epsilon=0.5)
    for index, size in enumerate([1, 3, 9, 30, 100]):
        realloc.insert(index, size)
    picture = render_layout(realloc)
    for cls in realloc.region_indices():
        assert f"class {cls:>2}" in picture


def _fail_placement_once(realloc, target):
    """Make the next placement made for ``target`` raise, as an audit clash
    (or a checkpoint fault on the way to the write) would."""
    place = realloc._place_object

    def failing(name, size, address, reason="place"):
        if reason != target:
            return place(name, size, address, reason)
        del realloc._place_object
        raise OverlapError(f"injected fault placing {name!r}")

    realloc._place_object = failing


@pytest.mark.parametrize(
    "cls,reason",
    [
        (CostObliviousReallocator, "insert:buffer"),
        (CheckpointedReallocator, "insert:buffer"),
        (CheckpointedReallocator, "insert:overfill"),
        (DeamortizedReallocator, "insert:buffer"),
        (DeamortizedReallocator, "insert:tail"),
    ],
    ids=lambda value: getattr(value, "name", value),
)
def test_an_insert_whose_placement_raises_leaks_no_slot(cls, reason):
    realloc = cls(epsilon=0.5)
    realloc.insert("big", 200)
    _fail_placement_once(realloc, reason)
    for name in range(1000):
        used = (realloc.buffered_volume(), getattr(realloc, "tail_used", 0))
        try:
            realloc.insert(name, 4)
        except OverlapError:
            break
    else:
        pytest.fail(f"no {reason} placement in 1000 inserts")
    assert name not in realloc and name not in realloc._placement
    assert (realloc.buffered_volume(), getattr(realloc, "tail_used", 0)) == used
    check_invariants(realloc)
    realloc.insert(name, 4)
    assert realloc._placement[name]
    check_invariants(realloc)


@pytest.mark.parametrize("after_trigger_moved", [False, True], ids=["first-move", "mid-flush"])
def test_an_overfill_whose_flush_raises_leaves_a_delete_record(after_trigger_moved):
    """A Section 3.2 overfill insert is placed and given its slot before its
    flush; when that flush raises, the object is freed as a delete would
    free it: its slot becomes a delete record, and its placement and
    translation entry are dropped wherever the flush had moved it."""
    realloc = CheckpointedReallocator(epsilon=0.5)
    realloc.insert("big", 200)
    move = realloc.space.move
    inserting = []
    trigger_moved = []

    def failing(name, extent):
        if trigger_moved or not after_trigger_moved:
            del realloc.space.move
            raise OverlapError(f"injected fault moving {name!r}")
        if name == inserting[-1]:
            trigger_moved.append(extent)
        return move(name, extent)

    realloc.space.move = failing
    for name in range(1000):
        used = realloc.buffered_volume()
        inserting.append(name)
        try:
            realloc.insert(name, 4)
        except OverlapError:
            break
    else:
        pytest.fail("no flush in 1000 inserts")
    assert bool(trigger_moved) == after_trigger_moved
    assert name not in realloc and name not in realloc.space
    assert name not in realloc._placement and name not in realloc.translation
    record = realloc.region(realloc.region_indices()[-1]).buffer[-1]
    assert record.is_delete_record and record.size == 4
    # The record keeps the slot's space consumed until the next flush.
    assert realloc.buffered_volume() == used + 4
    realloc.insert(name, 4)
    assert realloc._placement[name]
    check_invariants(realloc)


def test_a_run_whose_move_raises_still_counts_the_moves_it_made():
    """The shared move loop updates the stats once per run, also when a
    move of the run raises: the moves before it happened and are charged."""
    realloc = CostObliviousReallocator(epsilon=0.5)
    realloc.insert("a", 8)
    realloc.insert("b", 8)
    b_start = realloc.address_of("b")
    moves, volume = realloc.stats.total_moves, realloc.stats.total_moved_volume
    far = realloc.footprint + 100
    items = [("move", "a", 8, far, "test"), ("move", "b", 8, far + 4, "test")]
    with pytest.raises(OverlapError):
        realloc._run_items(items, 0, float("inf"))
    assert realloc.address_of("a") == far and realloc.address_of("b") == b_start
    assert realloc.stats.total_moves == moves + 1
    assert realloc.stats.total_moved_volume == volume + 8
