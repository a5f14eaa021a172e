"""Micro-benchmarks for the simulation engine's instrumentation overhead.

Guards the zero-observer fast path against regression: replaying a trace
with no observers must skip all ``RequestRecord``/``MoveEvent`` construction
and therefore beat the fully-observed replay.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py --benchmark-only

The ``observed`` variants attach a history observer (every record retained),
a bounded footprint-series observer, and a RAM device model — the heaviest
realistic instrumentation load.
"""

import time

import pytest

from benchmarks.bench_artifact import record_metric
from repro.allocators import FirstFitAllocator
from repro.core import CostObliviousReallocator
from repro.engine import (
    DeviceObserver,
    EngineSession,
    FootprintSeriesObserver,
    HistoryObserver,
)
from repro.storage.devices import MainMemoryDevice
from repro.workloads import UniformSizes, churn_trace

TRACE = churn_trace(4000, UniformSizes(1, 64), target_live=150, seed=101)

# Audited (the default): the indexed overlap check is cheap enough that the
# fast-path guard runs in the same configuration the experiments ship.
ALLOCATORS = [
    ("first-fit", FirstFitAllocator),
    ("cost-oblivious", lambda: CostObliviousReallocator(epsilon=0.25)),
]


def _full_observers():
    return [
        HistoryObserver(),
        FootprintSeriesObserver(max_points=256),
        DeviceObserver(MainMemoryDevice()),
    ]


@pytest.mark.parametrize("name,factory", ALLOCATORS, ids=[n for n, _ in ALLOCATORS])
@pytest.mark.parametrize("mode", ["zero-observers", "fully-observed"])
def test_engine_replay_overhead(benchmark, name, factory, mode):
    def run_once():
        allocator = factory()
        observers = _full_observers() if mode == "fully-observed" else []
        EngineSession(allocator, observers).run(TRACE)
        return allocator

    allocator = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert allocator.stats.requests == len(TRACE)


@pytest.mark.parametrize("name,factory", ALLOCATORS, ids=[n for n, _ in ALLOCATORS])
def test_zero_observer_run_is_not_slower_than_fully_observed(name, factory):
    """The enforced guard: if the zero-observer replay ever stops being at
    least as fast as the fully-observed one, the fast path has regressed.
    In practice the gap is ~2x; the rounds are interleaved (so a load spike
    on a shared CI runner hits both variants) and best-of-5 is compared
    with generous slack, which keeps the assertion far from timer noise."""

    def timed(observer_factory):
        allocator = factory()
        engine = EngineSession(allocator, observer_factory())
        started = time.perf_counter()
        engine.run(TRACE)
        return time.perf_counter() - started

    bare = float("inf")
    observed = float("inf")
    for _ in range(5):
        bare = min(bare, timed(list))
        observed = min(observed, timed(_full_observers))
    record_metric("engine", f"{name}_zero_observer_best_seconds", round(bare, 6), "seconds")
    record_metric("engine", f"{name}_fully_observed_best_seconds", round(observed, 6), "seconds")
    assert bare <= observed * 1.25, (
        f"zero-observer replay ({bare:.4f}s) is not faster than the "
        f"fully-observed replay ({observed:.4f}s) for {name}"
    )


@pytest.mark.parametrize("name,factory", ALLOCATORS, ids=[n for n, _ in ALLOCATORS])
def test_disabled_telemetry_overhead_within_2_percent(name, factory):
    """The ISSUE guard: with telemetry importable but *disabled*, the
    zero-observer engine replay must stay within 2% of replaying the raw
    allocator directly (no engine wrapper).  The disabled path is a handful
    of attribute-is-None checks and shared no-op spans — constant per run,
    not per request.  Single timings of a ~50ms replay swing several percent
    on a loaded runner, so the assertion is on the *minimum paired ratio*
    over 9 back-to-back rounds: noise moves individual ratios both ways,
    but only genuine per-request overhead can hold every pair above 2%."""
    from repro.obs import Telemetry, use_telemetry

    def engine_run() -> float:
        allocator = factory()
        engine = EngineSession(allocator, [])
        started = time.perf_counter()
        engine.run(TRACE)
        return time.perf_counter() - started

    def raw_run() -> float:
        allocator = factory()
        started = time.perf_counter()
        allocator.run(TRACE)
        if hasattr(allocator, "finish_pending_work"):
            allocator.finish_pending_work()
        return time.perf_counter() - started

    # Force telemetry off for the measurement even if REPRO_TELEMETRY is
    # set in the environment; the allocators are constructed inside the
    # block so their counter bindings see the disabled session.
    with use_telemetry(Telemetry()):
        best_ratio = float("inf")
        engine_best = float("inf")
        raw_best = float("inf")
        for _ in range(9):
            raw = raw_run()
            measured = engine_run()
            best_ratio = min(best_ratio, measured / raw)
            raw_best = min(raw_best, raw)
            engine_best = min(engine_best, measured)
    record_metric(
        "engine", f"{name}_telemetry_off_engine_seconds", round(engine_best, 6), "seconds"
    )
    record_metric(
        "engine", f"{name}_raw_replay_seconds", round(raw_best, 6), "seconds"
    )
    record_metric(
        "engine", f"{name}_telemetry_off_best_overhead_ratio", round(best_ratio, 4), "ratio"
    )
    assert best_ratio <= 1.02, (
        f"engine replay with telemetry disabled is more than 2% slower than "
        f"the raw allocator replay in every one of 9 paired rounds for "
        f"{name} (best ratio {best_ratio:.4f})"
    )


@pytest.mark.parametrize("name,factory", ALLOCATORS, ids=[n for n, _ in ALLOCATORS])
def test_zero_observer_stats_match_fully_observed(name, factory):
    """Correctness guard: both paths must produce identical aggregates."""
    bare = factory()
    EngineSession(bare, []).run(TRACE)
    observed = factory()
    EngineSession(observed, _full_observers()).run(TRACE)
    assert bare.stats.max_footprint_ratio == observed.stats.max_footprint_ratio
    assert bare.stats.total_moved_volume == observed.stats.total_moved_volume
    assert bare.stats.allocated_sizes == observed.stats.allocated_sizes
    assert bare.stats.moved_sizes == observed.stats.moved_sizes
