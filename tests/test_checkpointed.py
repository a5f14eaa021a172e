"""Tests for the Section 3.2 checkpointed reallocator."""

import random

import pytest

from repro.core import CheckpointedReallocator, DeamortizedReallocator, check_invariants
from repro.storage import BlockTranslationLayer
from tests.conftest import random_churn, with_frozen_space_oracle


def test_moves_never_overlap_their_source():
    """The non-overlapping constraint of Section 3: every relocation targets
    addresses disjoint from the object's previous location."""
    realloc = CheckpointedReallocator(epsilon=0.5, trace=True)
    random_churn(realloc, steps=800, seed=1, max_size=100)
    for record in realloc.history:
        for move in record.moves:
            if move.is_reallocation:
                assert not move.source.overlaps(move.destination)


def test_no_write_ever_lands_on_frozen_space():
    """Every placement and move destination is checked by brute force
    against every extent freed since the last checkpoint, without asking
    the checkpoint manager (see ``with_frozen_space_oracle``), and the
    oracle sees every one of them."""
    for cls in (CheckpointedReallocator, DeamortizedReallocator):
        for epsilon in (0.1, 0.25, 0.5):
            realloc = with_frozen_space_oracle(cls)(epsilon=epsilon)
            random_churn(realloc, steps=1200, seed=2, max_size=80)
            if hasattr(realloc, "finish_pending_work"):
                realloc.finish_pending_work()
            assert realloc.checkpoints.violations == 0
            assert realloc.oracle_violations == [], (cls.name, epsilon)
            # Every placement and every move reaches the oracle's space.
            assert realloc.oracle_writes == realloc.stats.inserts + realloc.stats.total_moves
            assert realloc.stats.total_moves > 0
            assert realloc.oracle_checkpoints == realloc.stats.checkpoints > 0


@pytest.mark.parametrize(
    "cls", [CheckpointedReallocator, DeamortizedReallocator], ids=lambda cls: cls.name
)
def test_brute_force_oracle_catches_unchecked_writes(cls):
    """The oracle is not vacuous: with the frozen-space check switched off,
    the writes that would have blocked on a checkpoint are flagged."""

    class Unchecked(with_frozen_space_oracle(cls)):
        def _ensure_writable(self, start, end):
            pass

    realloc = Unchecked(epsilon=0.25)
    random_churn(realloc, steps=1200, seed=2, max_size=80)
    assert realloc.oracle_violations


def test_a_log_insert_onto_frozen_space_blocks_for_a_checkpoint():
    """A deamortized log insert can land on space that a move vacated since
    the last checkpoint; this churn reaches that once.  The placement must
    block for a checkpoint first, so the brute-force oracle sees no write
    onto frozen space (it does when placements skip the check)."""
    blocked = []

    class Probe(with_frozen_space_oracle(DeamortizedReallocator)):
        def _place_object(self, name, size, address, reason="place"):
            if not self.checkpoints.is_writable(address, address + size):
                blocked.append(reason)
            super()._place_object(name, size, address, reason)

    realloc = Probe(epsilon=0.1)
    random_churn(realloc, steps=1500, seed=0, max_size=64)
    assert blocked == ["insert:log"]
    assert realloc.oracle_violations == [] and realloc.oracle_writes > 0


def test_checkpoints_per_request_stay_bounded():
    """Lemma 3.3: a flush needs O(1/eps) checkpoints.  With eps = 0.5 the
    constant works out to a few dozen at most; assert a generous cap that
    would still catch an O(n) regression."""
    realloc = CheckpointedReallocator(epsilon=0.5)
    random_churn(realloc, steps=1500, seed=3, max_size=64)
    assert realloc.stats.max_request_checkpoints <= 40
    assert realloc.stats.flushes > 0


@pytest.mark.parametrize("epsilon", [0.5, 0.25])
def test_footprint_bound_matches_amortized_variant(epsilon):
    realloc = CheckpointedReallocator(epsilon=epsilon)
    random_churn(realloc, steps=1200, seed=4, max_size=64)
    assert realloc.stats.max_footprint_ratio <= 1 + epsilon + 1e-9
    check_invariants(realloc)


def test_transient_footprint_includes_additive_delta_only():
    """Lemma 3.1: during a flush the space is (1+O(eps))V + O(Delta)."""
    realloc = CheckpointedReallocator(epsilon=0.25)
    rng = random.Random(5)
    live = {}
    next_id = 0
    peak_volume = 0
    for _ in range(1200):
        if live and rng.random() < 0.45:
            name = rng.choice(list(live))
            realloc.delete(name)
            del live[name]
        else:
            next_id += 1
            size = rng.randint(1, 256)
            realloc.insert(next_id, size)
            live[next_id] = size
        peak_volume = max(peak_volume, realloc.volume)
    bound = (1 + 3 * 0.25) * peak_volume + 2 * realloc.delta
    assert realloc.stats.max_transient_footprint <= bound


def test_flush_records_carry_checkpoint_counts():
    realloc = CheckpointedReallocator(epsilon=0.5, trace=True)
    random_churn(realloc, steps=600, seed=6)
    flush_records = [r.flush for r in realloc.history if r.flush is not None]
    assert flush_records, "expected at least one flush"
    assert all(f.checkpoints >= 1 for f in flush_records)


def test_translation_layer_tracks_every_live_object():
    realloc = CheckpointedReallocator(epsilon=0.5)
    live = random_churn(realloc, steps=700, seed=7)
    assert set(realloc.translation) == set(live)
    for name in live:
        assert realloc.translation.lookup(name) == realloc.space.extent_of(name)


def test_crash_recovery_after_every_checkpoint_is_consistent():
    realloc = CheckpointedReallocator(epsilon=0.5, track_recovery=True)
    rng = random.Random(8)
    live = {}
    next_id = 0
    for step in range(400):
        if live and rng.random() < 0.45:
            name = rng.choice(list(live))
            realloc.delete(name)
            del live[name]
        else:
            next_id += 1
            size = rng.randint(1, 64)
            realloc.insert(next_id, size)
            live[next_id] = size
        if step % 50 == 49:
            realloc.checkpoint()
            # Durable data must be reachable no matter when we crash.
            realloc.crash_and_recover()


def test_shared_translation_layer_can_be_injected():
    layer = BlockTranslationLayer()
    realloc = CheckpointedReallocator(epsilon=0.5, translation=layer)
    realloc.insert("a", 8)
    assert "a" in layer
    assert realloc.checkpoints is layer.checkpoints


def test_system_initiated_checkpoints_are_counted():
    realloc = CheckpointedReallocator(epsilon=0.5)
    realloc.insert("a", 8)
    before = realloc.stats.checkpoints
    realloc.checkpoint()
    realloc.checkpoint()
    assert realloc.stats.checkpoints == before + 2


def test_move_sharing_an_address_with_its_source_is_refused():
    """Section 3's non-overlapping moves: a destination that shares even one
    address with the object's current extent is refused before anything is
    written, on either side of the source."""
    realloc = CheckpointedReallocator(epsilon=0.5)
    realloc.insert("a", 8)
    realloc._move_object("a", realloc.footprint + 16)
    start = realloc.address_of("a")
    layout = realloc.space.snapshot()
    for target in (start + 7, start + 1, start - 7):
        with pytest.raises(RuntimeError, match="non-overlapping"):
            realloc._move_object("a", target)
    assert realloc.space.snapshot() == layout
    assert realloc.stats.total_moves == 1
    assert realloc.translation.lookup("a") == layout["a"]
