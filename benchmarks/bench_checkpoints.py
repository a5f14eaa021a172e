"""E5 — checkpoints needed per buffer flush (Lemma 3.3) — and the frozen-space
index guard.

``_LegacyScanCheckpoints`` reinstates the pre-index checkpoint manager on top
of the current one: freed extents appended to a plain list (coalesced only
past 64 entries) and every write checked by a linear scan over that list.
An audited ``DeamortizedReallocator(0.25)`` churn replay with the indexed
runs must beat the same replay with the legacy scan by at least 1.25x.
Timings are best-of-3 with the two variants interleaved, so a load spike on
a shared CI runner hits both sides.
"""

import time

from benchmarks.bench_artifact import record_metric
from benchmarks.conftest import run_and_print
from repro.core import DeamortizedReallocator
from repro.storage import BlockTranslationLayer, CheckpointManager
from repro.storage.extent import coalesce
from repro.workloads import UniformSizes, churn_trace

#: The replay workload's churn shape: sizes 1-64, about 2,000 live objects.
CHURN = churn_trace(5000, UniformSizes(1, 64), target_live=2000, seed=41)


def test_e5_checkpoints_per_flush(benchmark, quick_mode):
    result = run_and_print(benchmark, "E5", quick_mode)
    for row in result.rows:
        assert row[3] < 200  # max checkpoints per request stays far below object counts


class _LegacyScanCheckpoints(CheckpointManager):
    """The pre-index frozen space: an extent list and a linear scan."""

    def __init__(self, enforce=True):
        super().__init__(enforce)
        self._frozen = []

    def record_free(self, extent):
        self._frozen.append(extent)
        if len(self._frozen) > 64:
            self._frozen = coalesce(self._frozen)

    def is_writable(self, extent):
        return all(not extent.overlaps(frozen) for frozen in self._frozen)

    def checkpoint(self):
        self._frozen.clear()
        return super().checkpoint()

    def recover(self):
        self._frozen.clear()
        super().recover()


def _timed_replay(checkpoints=None):
    translation = BlockTranslationLayer(checkpoints) if checkpoints is not None else None
    allocator = DeamortizedReallocator(0.25, translation=translation, audit=True)
    started = time.perf_counter()
    allocator.run(CHURN)
    elapsed = time.perf_counter() - started
    assert allocator.stats.requests == len(CHURN)
    return elapsed, allocator


def test_indexed_frozen_space_beats_linear_scan():
    indexed = legacy = float("inf")
    for _ in range(3):
        elapsed, fast = _timed_replay()
        indexed = min(indexed, elapsed)
        elapsed, slow = _timed_replay(_LegacyScanCheckpoints())
        legacy = min(legacy, elapsed)
    # The guard is only meaningful if both managers drive the same replay.
    assert vars(fast.stats) == vars(slow.stats)
    assert fast.blocked_checkpoints == slow.blocked_checkpoints
    assert dict(fast.space.items()) == dict(slow.space.items())
    print(
        f"\naudited deamortized replay ({len(CHURN)} requests, 2k live): "
        f"indexed={indexed:.3f}s legacy-scan={legacy:.3f}s ({legacy / indexed:.2f}x)"
    )
    record_metric("checkpoints", "indexed_frozen_space_seconds", round(indexed, 6), "seconds")
    record_metric("checkpoints", "legacy_scan_seconds", round(legacy, 6), "seconds")
    record_metric(
        "checkpoints", "legacy_over_indexed_ratio", round(legacy / indexed, 2), "ratio"
    )
    assert legacy >= 1.25 * indexed, (
        f"indexed frozen space ({indexed:.3f}s) is less than 1.25x faster than "
        f"the linear scan ({legacy:.3f}s); the checkpoint index has regressed"
    )
