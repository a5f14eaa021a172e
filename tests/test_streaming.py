"""Streaming replay equivalence: a trace replayed from disk one request at a
time must be indistinguishable — metric for metric, table row for table row —
from the same trace replayed out of memory.

The battery replays a fixed-seed churn trace through ``run_trace`` and
through the observers behind the E1/E3/E7/E8 experiment tables, once with
the in-memory :class:`Trace` and once with a :class:`TraceFileSource` over
the compressed, multi-block binary v3 file, and requires byte-identical
results.
"""

from dataclasses import asdict

import pytest

from repro.allocators import FirstFitAllocator, LoggingCompactingReallocator
from repro.core import CostObliviousReallocator, DeamortizedReallocator
from repro.costs import ConstantCost, LinearCost, RotatingDiskCost
from repro.engine import EngineSession
from repro.harness.runners import (
    _ReservedSpaceObserver,
    _WorstCaseBoundObserver,
    _WorstRequestCostObserver,
    _WorstRequestObserver,
)
from repro.metrics import run_trace
from repro.workloads import TraceFileSource, UniformSizes, churn_trace, iter_trace, save_trace

COSTS = (LinearCost(), ConstantCost(), RotatingDiskCost())


@pytest.fixture(scope="module")
def trace_and_source(tmp_path_factory):
    trace = churn_trace(3000, UniformSizes(1, 64), target_live=150, seed=11)
    path = tmp_path_factory.mktemp("stream") / "churn.v3z"
    save_trace(trace, path, version=3, compress=True, block_records=1000)
    return trace, TraceFileSource(path)


ALLOCATOR_FACTORIES = [
    ("cost-oblivious", lambda: CostObliviousReallocator(epsilon=0.25)),
    ("deamortized", lambda: DeamortizedReallocator(epsilon=0.25)),
    ("first-fit", FirstFitAllocator),
    ("logging-compacting", LoggingCompactingReallocator),
]


def metrics_dict(metrics):
    out = asdict(metrics)
    out.pop("elapsed_seconds")
    return out


@pytest.mark.parametrize(
    "name,factory", ALLOCATOR_FACTORIES, ids=[n for n, _ in ALLOCATOR_FACTORIES]
)
def test_streaming_run_trace_metrics_identical(trace_and_source, name, factory):
    trace, source = trace_and_source
    in_memory = run_trace(factory(), trace, cost_functions=COSTS, sample_every=50)
    streamed = run_trace(factory(), source, cost_functions=COSTS, sample_every=50)
    assert metrics_dict(in_memory) == metrics_dict(streamed)


def test_e1_reserved_space_table_identical(trace_and_source):
    trace, source = trace_and_source

    def rows(replayable):
        out = []
        for epsilon in (0.5, 0.25):
            allocator = CostObliviousReallocator(epsilon=epsilon)
            watcher = _ReservedSpaceObserver()
            run_trace(allocator, replayable, observers=[watcher])
            out.append(
                (
                    epsilon,
                    watcher.footprint_ratio,
                    watcher.reserved_ratio,
                    allocator.stats.amortized_moves_per_insert,
                )
            )
        return out

    assert repr(rows(trace)) == repr(rows(source))


def test_e3_worst_request_table_identical(trace_and_source):
    trace, source = trace_and_source

    def rows(replayable):
        out = []
        for _, factory in ALLOCATOR_FACTORIES:
            allocator = factory()
            watcher = _WorstRequestObserver()
            metrics = run_trace(allocator, replayable, observers=[watcher], cost_functions=COSTS)
            out.append(
                (
                    allocator.describe(),
                    watcher.worst_moves,
                    round(metrics.max_footprint_ratio, 6),
                    {k: round(v, 6) for k, v in metrics.cost_ratios.items()},
                )
            )
        return out

    assert repr(rows(trace)) == repr(rows(source))


def test_e7_worst_case_bound_table_identical(trace_and_source):
    trace, source = trace_and_source

    def rows(replayable):
        out = []
        for cls in (CostObliviousReallocator, DeamortizedReallocator):
            allocator = cls(epsilon=0.25)
            watcher = _WorstCaseBoundObserver(0.25)
            run_trace(allocator, replayable, observers=[watcher])
            out.append(
                (
                    cls.__name__,
                    watcher.worst_moved,
                    watcher.worst_bound,
                    watcher.violations,
                    allocator.stats.amortized_moved_volume_per_request,
                )
            )
        return out

    assert repr(rows(trace)) == repr(rows(source))


def test_e8_worst_request_cost_table_identical(trace_and_source):
    trace, source = trace_and_source

    def rows(replayable):
        allocator = CostObliviousReallocator(epsilon=0.5)
        watcher = _WorstRequestCostObserver(COSTS)
        run_trace(allocator, replayable, observers=[watcher], finish_pending=False)
        return (watcher.worst_moved, watcher.worst_moves, watcher.worst_cost)

    assert repr(rows(trace)) == repr(rows(source))


def test_engine_accepts_bare_request_iterator(trace_and_source):
    """A one-shot generator (no label, no len) replays fine; the request
    count comes from what the allocator served."""
    trace, source = trace_and_source
    run = EngineSession(FirstFitAllocator()).run(iter_trace(source.path))
    assert run.requests == len(trace)
    assert run.label == "trace"


def test_engine_run_label_comes_from_source(trace_and_source):
    trace, source = trace_and_source
    run = EngineSession(FirstFitAllocator()).run(source)
    assert run.label == trace.label
    assert run.requests == len(trace)


def test_streaming_replay_serves_every_request_without_a_trace(trace_and_source):
    """The allocator end state after a streaming replay matches the
    in-memory replay exactly."""
    trace, source = trace_and_source
    streamed, materialized = FirstFitAllocator(), FirstFitAllocator()
    EngineSession(streamed).run(source)
    EngineSession(materialized).run(trace)
    assert streamed.stats.requests == materialized.stats.requests == len(trace)
    assert streamed.footprint == materialized.footprint
    assert streamed.volume == materialized.volume
    assert streamed.stats.max_footprint_ratio == materialized.stats.max_footprint_ratio
