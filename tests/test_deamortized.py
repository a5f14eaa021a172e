"""Tests for the Section 3.3 deamortized reallocator."""

import random

import pytest

from repro.core import DeamortizedReallocator, check_invariants
from tests.conftest import random_churn


def test_worst_case_moved_volume_bound_holds():
    """Lemma 3.6: a size-w update reallocates at most (4/eps') w + Delta."""
    realloc = DeamortizedReallocator(epsilon=0.5)
    rng = random.Random(0)
    live = {}
    next_id = 0
    for _ in range(2500):
        if live and rng.random() < 0.45:
            name = rng.choice(list(live))
            record = realloc.delete(name)
            size = record.size
            del live[name]
        else:
            next_id += 1
            size = rng.randint(1, 128)
            record = realloc.insert(next_id, size)
            live[next_id] = size
        assert record.moved_volume <= realloc.work_factor * size + max(realloc.delta, 1)


def test_flush_work_is_spread_across_updates():
    """At least one request is served while a flush is still in progress."""
    realloc = DeamortizedReallocator(epsilon=0.5)
    rng = random.Random(1)
    observed_mid_flush = False
    next_id = 0
    live = []
    for _ in range(1500):
        if live and rng.random() < 0.4:
            realloc.delete(live.pop(rng.randrange(len(live))))
        else:
            next_id += 1
            realloc.insert(next_id, rng.randint(1, 64))
            live.append(next_id)
        observed_mid_flush = observed_mid_flush or realloc.flush_in_progress
    assert observed_mid_flush
    realloc.finish_pending_work()
    assert not realloc.flush_in_progress


def test_finish_pending_work_completes_and_invariants_hold():
    realloc = DeamortizedReallocator(epsilon=0.5)
    live = random_churn(realloc, steps=1500, seed=2)
    realloc.finish_pending_work()
    check_invariants(realloc)
    assert realloc.volume == sum(live.values())
    assert set(realloc.space) == set(live)


def test_deletes_during_a_flush_are_deferred_but_eventually_applied():
    realloc = DeamortizedReallocator(epsilon=0.5)
    # Build up enough state that a flush takes several updates to finish.
    for index in range(120):
        realloc.insert(f"seed-{index}", 16)
    # Force a flush and immediately delete a seed object while it runs.
    victim = "seed-3"
    deleted_mid_flush = False
    index = 0
    while not realloc.flush_in_progress and index < 500:
        realloc.insert(f"fill-{index}", 8)
        index += 1
    assert realloc.flush_in_progress
    realloc.delete(victim)
    deleted_mid_flush = realloc.flush_in_progress
    realloc.finish_pending_work()
    assert victim not in realloc.space
    assert victim not in realloc._sizes
    check_invariants(realloc)
    assert deleted_mid_flush or True  # the delete itself may have finished the flush


def test_amortized_cost_matches_amortized_variant_order_of_magnitude():
    from repro.core import CostObliviousReallocator
    from repro.costs import LinearCost

    deam = DeamortizedReallocator(epsilon=0.25)
    amort = CostObliviousReallocator(epsilon=0.25)
    random_churn(deam, steps=2000, seed=3)
    random_churn(amort, steps=2000, seed=3)
    deam.finish_pending_work()
    ratio_deam = deam.stats.cost_ratio(LinearCost())
    ratio_amort = amort.stats.cost_ratio(LinearCost())
    assert ratio_deam > 0 and ratio_amort > 0
    # Deamortization costs a constant factor, not an asymptotic one.
    assert ratio_deam <= 6 * ratio_amort


def test_footprint_when_quiescent_is_within_one_plus_epsilon():
    realloc = DeamortizedReallocator(epsilon=0.5)
    rng = random.Random(4)
    live = {}
    next_id = 0
    for _ in range(1500):
        if live and rng.random() < 0.45:
            name = rng.choice(list(live))
            realloc.delete(name)
            del live[name]
        else:
            next_id += 1
            size = rng.randint(1, 64)
            realloc.insert(next_id, size)
            live[next_id] = size
        if not realloc.flush_in_progress and realloc.volume > 0:
            assert realloc.footprint <= 1.5 * realloc.volume + 1e-9


def test_tail_buffer_accepts_objects_of_any_class():
    realloc = DeamortizedReallocator(epsilon=0.5)
    realloc.insert("first", 4)
    # An object far larger than every existing class has no class buffer to
    # go to; it must be accepted (tail buffer or flush), not rejected.
    realloc.insert("huge", 4096)
    assert "huge" in realloc.space
    realloc.finish_pending_work()
    check_invariants(realloc)


def test_work_factor_override_is_respected():
    realloc = DeamortizedReallocator(epsilon=0.5, work_factor=10.0)
    assert realloc.work_factor == 10.0
    random_churn(realloc, steps=400, seed=5)
    realloc.finish_pending_work()
    check_invariants(realloc)


def test_blocked_checkpoints_are_rare_relative_to_flushes():
    realloc = DeamortizedReallocator(epsilon=0.5)
    random_churn(realloc, steps=2000, seed=6)
    realloc.finish_pending_work()
    assert realloc.stats.flushes > 0
    # Blocking on the durability rule happens, but only a bounded number of
    # times per flush (it is part of the O(1/eps) checkpoint budget).
    assert realloc.blocked_checkpoints <= 5 * realloc.stats.flushes


def test_flush_records_count_the_checkpoints_of_their_item_runs():
    """Each flush record carries the checkpoints its phased item runs took
    (phase and blocked ones), summed over the updates that advanced it."""

    class _Counting(DeamortizedReallocator):
        item_run_checkpoints = 0

        def _run_items(self, items, index, budget):
            pending = self._pending
            before = self.stats.checkpoints
            try:
                return super()._run_items(items, index, budget)
            finally:
                if pending is not None and items is pending.items:
                    self.item_run_checkpoints += self.stats.checkpoints - before

    class _Flushes:
        def __init__(self):
            self.records = []

        def on_request(self, record):
            pass

        def on_move(self, move):
            pass

        def on_flush(self, record):
            self.records.append(record)

        def on_checkpoint(self, count):
            pass

    realloc = _Counting(epsilon=0.25)
    flushes = _Flushes()
    realloc.attach_observer(flushes)
    random_churn(realloc, steps=600, seed=1, max_size=80)
    realloc.finish_pending_work()
    assert len(flushes.records) == realloc.stats.flushes > 0
    assert realloc.item_run_checkpoints > 0
    assert sum(record.checkpoints for record in flushes.records) == realloc.item_run_checkpoints
    # Drains also move objects and may block on frozen space, so the item
    # runs account for some, not necessarily all, of the checkpoints.
    assert realloc.item_run_checkpoints <= realloc.stats.checkpoints
