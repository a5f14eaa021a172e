"""Property-based tests: the paper's invariants under arbitrary request mixes.

Hypothesis drives random (but reproducible) insert/delete sequences against
each reallocator variant and checks, after every request, the structural
invariants (Invariant 2.2–2.4), the footprint bound, and disjointness of all
placements.  These are the strongest correctness tests in the suite.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    CheckpointedReallocator,
    CostObliviousReallocator,
    DeamortizedReallocator,
    check_invariants,
)
from tests.conftest import random_churn, with_frozen_space_oracle

# A request script is a list of (op_choice, size) pairs; op_choice picks
# insert vs delete (deletes are ignored when nothing is live).
request_scripts = st.lists(
    st.tuples(st.integers(0, 99), st.integers(1, 96)),
    min_size=1,
    max_size=220,
)


def _run_script(realloc, script, delete_bias=45, check_every=1):
    live = []
    next_id = 0
    for step, (op_choice, size) in enumerate(script):
        if live and op_choice < delete_bias:
            victim = live.pop(op_choice % len(live))
            realloc.delete(victim)
        else:
            next_id += 1
            realloc.insert(next_id, size)
            live.append(next_id)
        if step % check_every == 0:
            check_invariants(realloc)
            if realloc.volume > 0:
                assert realloc.bounded_space() <= realloc.space_bound(realloc.volume) + (
                    realloc.delta + realloc.log_volume()
                    if getattr(realloc, "flush_in_progress", False)
                    else 0
                ) + 1e-9
    return live


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=request_scripts)
def test_amortized_variant_preserves_invariants(script):
    realloc = CostObliviousReallocator(epsilon=0.5)
    live = _run_script(realloc, script)
    assert realloc.num_objects == len(live)
    assert realloc.stats.max_footprint_ratio <= 1.5 + 1e-9


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=request_scripts)
def test_checkpointed_variant_preserves_invariants(script):
    realloc = with_frozen_space_oracle(CheckpointedReallocator)(epsilon=0.5)
    _run_script(realloc, script)
    assert realloc.checkpoints.violations == 0
    assert realloc.oracle_violations == []
    assert realloc.stats.max_footprint_ratio <= 1.5 + 1e-9


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=request_scripts)
def test_deamortized_variant_preserves_invariants(script):
    realloc = with_frozen_space_oracle(DeamortizedReallocator)(epsilon=0.5)
    live = _run_script(realloc, script)
    realloc.finish_pending_work()
    check_invariants(realloc)
    assert realloc.oracle_violations == []
    assert realloc.num_objects == len(live)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=request_scripts, epsilon=st.sampled_from([0.5, 0.25, 0.125]))
def test_footprint_bound_scales_with_epsilon(script, epsilon):
    realloc = CostObliviousReallocator(epsilon=epsilon)
    _run_script(realloc, script)
    if realloc.volume > 0:
        assert realloc.reserved_space <= (1 + epsilon) * realloc.volume + 1e-9


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=request_scripts)
def test_deamortized_worst_case_bound(script):
    """Lemma 3.6: no request reallocates more than (4/eps') w + Delta volume."""
    realloc = DeamortizedReallocator(epsilon=0.5)
    live = []
    next_id = 0
    for op_choice, size in script:
        if live and op_choice < 45:
            victim = live.pop(op_choice % len(live))
            record = realloc.delete(victim)
            request_size = record.size
        else:
            next_id += 1
            record = realloc.insert(next_id, size)
            request_size = size
            live.append(next_id)
        bound = realloc.work_factor * request_size + max(realloc.delta, 1)
        assert record.moved_volume <= bound + 1e-9


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=request_scripts)
def test_all_variants_agree_on_the_live_set(script):
    """Different variants must end with identical live objects and volumes."""
    variants = [
        CostObliviousReallocator(epsilon=0.25),
        CheckpointedReallocator(epsilon=0.25),
        DeamortizedReallocator(epsilon=0.25),
    ]
    for realloc in variants:
        live = _run_script(realloc, script, check_every=10**9)
        if hasattr(realloc, "finish_pending_work"):
            realloc.finish_pending_work()
    volumes = {realloc.volume for realloc in variants}
    counts = {realloc.num_objects for realloc in variants}
    assert len(volumes) == 1
    assert len(counts) == 1


# ------------------------------------------------- at most two moves a flush
_CHURNS = [(epsilon, seed) for epsilon in (0.1, 0.25, 0.5) for seed in range(4)]


@pytest.mark.parametrize("epsilon,seed", _CHURNS)
def test_amortized_flush_moves_each_object_at_most_twice(epsilon, seed):
    """Section 2: a flush moves every object at most twice (out of the way,
    then to its final slot), which is what charges a flush's cost to the
    buffered updates.  Checked on every flushing request's moves."""
    realloc = CostObliviousReallocator(epsilon=epsilon, trace=True)
    random_churn(realloc, steps=800, seed=seed, max_size=80)
    flushes = [record for record in realloc.history if record.flush is not None]
    assert flushes
    most = 0
    for record in flushes:
        moves = Counter(move.name for move in record.moves if move.is_reallocation)
        most = max(most, max(moves.values(), default=0))
    assert 0 < most <= 2


def _plan_recording(cls):
    class PlanRecording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.plans = []

        def _flush_items(self, plan, trigger_size):
            items, overflow_end = super()._flush_items(plan, trigger_size)
            self.plans.append(items)
            return items, overflow_end

    return PlanRecording


@pytest.mark.parametrize(
    "cls",
    [CostObliviousReallocator, CheckpointedReallocator, DeamortizedReallocator],
    ids=lambda cls: cls.name,
)
@pytest.mark.parametrize("epsilon,seed", _CHURNS)
def test_phased_flush_plans_move_each_object_at_most_twice(cls, epsilon, seed):
    """Every flush plan keeps the two-moves bound: every buffered object
    goes to the overflow area and back, every payload object is packed (the
    Section 3 plan packs it right) and then unpacked, and nothing else is
    planned."""
    realloc = _plan_recording(cls)(epsilon=epsilon)
    random_churn(realloc, steps=800, seed=seed, max_size=80)
    assert realloc.plans
    most = 0
    for items in realloc.plans:
        moves = Counter(item[1] for item in items if item[0] == "move")
        most = max(most, max(moves.values(), default=0))
    assert 0 < most <= 2
