"""Differential tests: the span executor against the per-move executor.

The checkpointed reallocators record moves in the translation map and
freeze their sources a span at a time (see
``CheckpointedReallocator._run_items``), and ``AddressSpace.move`` tries an
index-position hint before it bisects.  Neither may change any state a
caller can see.  Each test drives one churn through a reallocator and
through ``per_move_reference`` of the same class (the verbatim per-move
executor over the bisecting space), and compares the two after every
request: layout, stats, blocked checkpoints, the checkpoint manager's
state, the volatile and durable maps and the dirty set (plus the recovery
shadows and the traced history where they are kept).
"""

import hashlib
import random

import pytest

from repro.core import CheckpointedReallocator, DeamortizedReallocator
from repro.faults import FaultPlan, FaultRule, inject
from tests.per_move_reference import per_move_reference


def _state(realloc):
    translation = realloc.translation
    return [
        dict(realloc.space.items()),
        vars(realloc.stats),
        realloc.blocked_checkpoints,
        realloc.checkpoints.to_state(),
        translation._volatile,
        translation._durable,
        translation._dirty,
        realloc._shadow,
    ]


def _requests(realloc, ops, seed, steps, crash_every=None):
    """Run a churn, recording the ops it chose in ``ops`` (or replaying the
    ones already there); yields each request's outcome."""
    rng = random.Random(seed)
    next_id = 0
    for step in range(steps):
        if step < len(ops):
            op = ops[step]
        else:
            live = sorted(name for name in realloc.space if name in realloc)
            if live and rng.random() < 0.45:
                op = ("delete", rng.choice(live))
            else:
                next_id += 1
                op = ("insert", next_id, rng.randint(1, 64))
            ops.append(op)
        try:
            if op[0] == "insert":
                realloc.insert(op[1], op[2])
            else:
                realloc.delete(op[1])
            outcome = None
        except Exception as error:  # a fault: both sides must raise alike
            outcome = type(error).__name__
        if crash_every and step % crash_every == crash_every - 1:
            realloc.translation.crash()
        yield outcome


def _digests(realloc, ops, seed, steps, plan):
    """The state after every request, hashed, with ``plan`` armed (the fault
    injector is global, so the two sides cannot run interleaved)."""
    digests = []
    with inject(plan):
        for outcome in _requests(realloc, ops, seed, steps):
            text = repr([
                sorted(part.items() if isinstance(part, dict) else part)
                if isinstance(part, (dict, set)) else part
                for part in _state(realloc)
            ])
            digests.append(hashlib.sha256(f"{text}{outcome}".encode()).hexdigest())
    return digests


def _assert_same_run(cls, epsilon, seed, steps, plan=None, crash_every=None, **kwargs):
    ops = []
    reference = per_move_reference(cls)(epsilon=epsilon, **kwargs)
    fast = cls(epsilon=epsilon, **kwargs)
    if plan is None:
        runs = zip(
            _requests(reference, ops, seed, steps, crash_every),
            _requests(fast, ops, seed, steps, crash_every),
        )
        for step, (expected, actual) in enumerate(runs):
            assert expected == actual, f"outcome differs at request {step}: {ops[step]}"
            assert _state(reference) == _state(fast), f"state differs after request {step}: {ops[step]}"
    else:
        expected = _digests(reference, ops, seed, steps, plan)
        actual = _digests(fast, ops, seed, steps, plan)
        for step, (want, got) in enumerate(zip(expected, actual)):
            assert want == got, f"state differs after request {step}: {ops[step]}"
    assert fast.trace == reference.trace
    if fast.trace:
        assert fast.history == reference.history
    # The run really exercised the span bookkeeping.
    assert fast.stats.total_moves > 0 and fast.stats.checkpoints > 0
    return fast


@pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.5])
@pytest.mark.parametrize(
    "cls", [CheckpointedReallocator, DeamortizedReallocator], ids=lambda cls: cls.name
)
def test_span_executor_matches_the_per_move_executor(cls, epsilon):
    blocked = 0
    for seed, (trace, track_recovery) in enumerate(
        [(False, False), (True, False), (False, True), (True, True)]
    ):
        realloc = _assert_same_run(
            cls, epsilon, seed, 400, trace=trace, track_recovery=track_recovery
        )
        blocked += realloc.blocked_checkpoints
    # Destinations did land on a span's old spans, so the exact check ran.
    assert blocked > 0


@pytest.mark.parametrize(
    "cls", [CheckpointedReallocator, DeamortizedReallocator], ids=lambda cls: cls.name
)
@pytest.mark.parametrize("after", [3, 40, 111])
def test_a_failing_checkpoint_leaves_the_per_move_state(cls, after):
    """A ``checkpoint.persist`` fault in the middle of a flush: the span's
    sources must be frozen, as the per-move path froze them, before the
    fault escapes."""
    plan = FaultPlan([FaultRule("checkpoint.persist", after=after)])
    _assert_same_run(cls, 0.25, 7, 300, plan=plan)


@pytest.mark.parametrize(
    "cls", [CheckpointedReallocator, DeamortizedReallocator], ids=lambda cls: cls.name
)
def test_moves_after_a_translation_crash_match_the_per_move_state(cls):
    """After ``translation.crash()`` the volatile map holds the durable
    spans, not the objects' places; the next moves freeze what the map
    says, as the per-move path does."""
    _assert_same_run(cls, 0.25, 8, 400, crash_every=37)
