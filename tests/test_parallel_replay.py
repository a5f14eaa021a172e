"""Sharded parallel replay: exact merges, shard planning, and fallbacks.

The exact-merge battery is the heart: for ``merge_exact`` observers
(trace analytics, per-class occupancy) a sharded replay must be
*byte-identical* to a serial one — same ``export()``, same rendered
result — across block sizes, shard counts, and shard-boundary
placements.  The in-process battery drives the merge machinery directly
(ShardContext + ``iter_range`` + ``merge``) so hypothesis can afford many
examples; a handful of end-to-end tests then cross the real process pool
(``analyze_trace_parallel``, ``run_trace(jobs=N)``, campaign cells).
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from benchmarks.legacy_codec import save_legacy_trace
from repro.allocators import FirstFitAllocator
from repro.campaign import CampaignSpec, SpecError, run_campaign
from repro.core import CostObliviousReallocator, DeamortizedReallocator, check_invariants
from repro.engine import (
    EngineSession,
    FootprintSeriesObserver,
    GapHistogramObserver,
    PerClassOccupancyObserver,
    SerialFallbackWarning,
    ShardContext,
    TraceAnalyticsObserver,
    analyze_trace_parallel,
    planned_stride,
    replay_unshardable_reason,
    run_replay_sharded,
    shard_plan,
    unmergeable_observers,
)
from repro.metrics import run_trace
from repro.workloads import (
    TraceFileSource,
    UniformSizes,
    churn_trace,
    read_block_index,
    save_trace,
)


@pytest.fixture(scope="module")
def v3_trace(tmp_path_factory):
    """A 2000-request churn trace saved as v3 with 128-record blocks."""
    base = tmp_path_factory.mktemp("par")
    trace = churn_trace(2000, UniformSizes(1, 64), target_live=60, seed=21)
    path = base / "churn.v3"
    save_trace(trace, path, version=3, block_records=128)
    return {"trace": trace, "path": path}


def make_v3(tmp_path, requests, block_records, seed=3):
    trace = churn_trace(requests, UniformSizes(1, 32), target_live=40, seed=seed)
    path = tmp_path / f"t{requests}b{block_records}.v3"
    save_trace(trace, path, version=3, block_records=block_records)
    return trace, path


# ------------------------------------------------------------- planned_stride
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(total=st.integers(0, 5000), max_points=st.integers(1, 64))
def test_planned_stride_matches_the_live_adaptive_sampler(total, max_points):
    """``planned_stride`` must predict exactly the stride the serial
    adaptive sampler ends on (sample-at-stride, double when over budget)."""
    stride = 1
    kept = 0
    for index in range(total):
        if index % stride == 0:
            kept += 1
        if kept > max_points:
            stride *= 2
            kept = sum(1 for i in range(0, index + 1, stride))
    assert planned_stride(total, max_points) == stride
    assert planned_stride(total, max_points, every=7) == 7


# ----------------------------------------------------------------- shard_plan
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    records=st.lists(st.integers(1, 50), min_size=1, max_size=40),
    jobs=st.integers(1, 12),
)
def test_shard_plan_partitions_the_block_list(records, jobs):
    """Contiguous, covering, non-empty, at most ``jobs`` shards."""

    class FakeBlock:
        def __init__(self, n):
            self.records = n

    class FakeIndex:
        def __init__(self, counts):
            self.blocks = [FakeBlock(n) for n in counts]

    plan = shard_plan(FakeIndex(records), jobs)
    assert 1 <= len(plan) <= min(jobs, len(records))
    assert plan[0][0] == 0
    assert plan[-1][1] == len(records)
    for (_, stop), (start, _) in zip(plan, plan[1:]):
        assert stop == start
    assert all(stop > start for start, stop in plan)


# -------------------------------------------------- in-process exact merging
def serial_analytics(trace, **kwargs):
    observer = TraceAnalyticsObserver(**kwargs)
    for request in trace:
        observer.observe(request)
    return observer


def sharded_analytics_in_process(path, shards, **kwargs):
    """Drive the shard/merge machinery without a process pool."""
    index = read_block_index(path)
    plan = shard_plan(index, shards)
    parts = []
    for shard, (start, stop) in enumerate(plan):
        observer = TraceAnalyticsObserver(**kwargs)
        first = index.blocks[start]
        observer.begin_shard(
            ShardContext(
                shard=shard,
                shards=len(plan),
                start_index=first.start,
                records=sum(b.records for b in index.blocks[start:stop]),
                total_records=index.total_records,
                entry_live=index.entry_snapshot(start) if start else [],
            )
        )
        for request in index.iter_range(start, stop):
            observer.observe(request)
        parts.append(observer)
    merged = parts[0]
    for other in parts[1:]:
        merged.merge(other)
    return merged


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 500),
    requests=st.integers(2, 400),
    block_records=st.sampled_from([1, 3, 7, 16, 64]),
    shards=st.integers(2, 6),
)
def test_analytics_merge_is_byte_identical_to_serial(
    tmp_path_factory, seed, requests, block_records, shards
):
    trace = churn_trace(requests, UniformSizes(1, 32), target_live=25, seed=seed)
    path = tmp_path_factory.mktemp("merge") / "t.v3"
    save_trace(trace, path, version=3, block_records=block_records)
    serial = serial_analytics(trace, max_points=32)
    merged = sharded_analytics_in_process(path, shards, max_points=32)
    assert merged.export() == serial.export()
    assert merged.result().to_dict() == serial.result().to_dict()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 200),
    requests=st.integers(2, 300),
    shards=st.integers(2, 4),
)
def test_per_class_occupancy_merge_is_byte_identical(
    tmp_path_factory, seed, requests, shards
):
    trace = churn_trace(requests, UniformSizes(1, 64), target_live=30, seed=seed)
    path = tmp_path_factory.mktemp("occ") / "t.v3"
    save_trace(trace, path, version=3, block_records=16)

    serial = PerClassOccupancyObserver(max_points=16)
    EngineSession(FirstFitAllocator(), [serial]).run(trace)

    index = read_block_index(path)
    plan = shard_plan(index, shards)
    parts = []
    for shard, (start, stop) in enumerate(plan):
        observer = PerClassOccupancyObserver(max_points=16)
        first = index.blocks[start]
        context = ShardContext(
            shard=shard,
            shards=len(plan),
            start_index=first.start,
            records=sum(b.records for b in index.blocks[start:stop]),
            total_records=index.total_records,
            entry_live=index.entry_snapshot(start) if start else [],
        )
        allocator = FirstFitAllocator()
        if context.entry_live:
            from repro.workloads import Request

            allocator.run(
                Request.insert(name, size) for name, size in context.entry_live
            )
        observer.begin_shard(context)
        EngineSession(allocator, [observer]).run(index.iter_range(start, stop))
        parts.append(observer)
    merged = parts[0]
    for other in parts[1:]:
        merged.merge(other)
    assert merged.export() == serial.export()


# --------------------------------------------------------- process-pool paths
def test_analyze_trace_parallel_is_byte_identical(v3_trace):
    serial = serial_analytics(v3_trace["trace"])
    for jobs in (2, 3):
        merged = analyze_trace_parallel(v3_trace["path"], jobs=jobs)
        assert merged is not None
        assert merged.export() == serial.export()
        assert merged.result().to_dict() == serial.result().to_dict()


def test_analyze_trace_parallel_declines_unshardable_inputs(tmp_path, v3_trace):
    assert analyze_trace_parallel(v3_trace["path"], jobs=1) is None
    trace, single = make_v3(tmp_path, 50, 128)  # one block
    assert analyze_trace_parallel(single, jobs=4) is None
    v2 = tmp_path / "t.v2"
    save_legacy_trace(trace, v2)
    assert analyze_trace_parallel(v2, jobs=4) is None


def test_run_trace_sharded_matches_serial_stream_metrics(v3_trace):
    """Stream-derived metrics (request counts, volumes) are exact under
    sharding; per-shard allocator maxima may differ and are not compared."""
    serial = run_trace(FirstFitAllocator(), TraceFileSource(v3_trace["path"]))
    sharded = run_trace(
        FirstFitAllocator(), TraceFileSource(v3_trace["path"]), jobs=3
    )
    assert sharded.requests == serial.requests
    assert sharded.final_volume == serial.final_volume
    assert sharded.final_footprint >= sharded.final_volume


def test_run_trace_sharded_folds_allocator_stats(v3_trace):
    serial_allocator = FirstFitAllocator()
    run_trace(serial_allocator, TraceFileSource(v3_trace["path"]))
    sharded_allocator = FirstFitAllocator()
    result = run_trace(sharded_allocator, TraceFileSource(v3_trace["path"]), jobs=2)
    assert result.requests == 2000
    assert sharded_allocator.stats.requests >= 2000  # + snapshot-free seeding? no: exact
    assert sharded_allocator.stats.inserts == serial_allocator.stats.inserts
    assert sharded_allocator.stats.deletes == serial_allocator.stats.deletes


@pytest.mark.parametrize(
    "make",
    [lambda: CostObliviousReallocator(0.25), lambda: DeamortizedReallocator(0.25)],
    ids=["cost_oblivious", "deamortized"],
)
def test_run_trace_sharded_leaves_the_allocator_consistent(make, v3_trace):
    """The caller's allocator ends in the last shard's final state: it holds
    the live objects the metrics report and still satisfies the paper's
    invariants, so it can keep serving requests like a serial run's."""
    allocator = make()
    metrics = run_trace(allocator, TraceFileSource(v3_trace["path"]), jobs=3)
    assert metrics.final_volume > 0
    assert allocator.volume == metrics.final_volume
    assert allocator.footprint == metrics.final_footprint
    assert allocator.stats.requests == metrics.requests == 2000
    check_invariants(allocator)
    allocator.insert("after-the-replay", 7)
    assert allocator.volume == metrics.final_volume + 7
    check_invariants(allocator)


def test_run_trace_unmergeable_observer_warns_and_falls_back(v3_trace):
    with pytest.warns(SerialFallbackWarning, match="FootprintSeriesObserver"):
        metrics = run_trace(
            FirstFitAllocator(),
            TraceFileSource(v3_trace["path"]),
            observers=[FootprintSeriesObserver(max_points=8)],
            jobs=2,
        )
    assert metrics.requests == 2000


def test_run_trace_materialised_trace_warns_and_falls_back(v3_trace):
    with pytest.warns(SerialFallbackWarning, match="on-disk"):
        metrics = run_trace(FirstFitAllocator(), v3_trace["trace"], jobs=2)
    assert metrics.requests == 2000


def test_run_trace_v2_file_warns_with_convert_hint(tmp_path, v3_trace):
    v2 = tmp_path / "t.v2"
    save_legacy_trace(v3_trace["trace"], v2)
    with pytest.warns(SerialFallbackWarning, match="--format v3"):
        metrics = run_trace(FirstFitAllocator(), TraceFileSource(v2), jobs=2)
    assert metrics.requests == 2000


# ------------------------------------------------------------------ fallbacks
def test_replay_unshardable_reason_cases(tmp_path, v3_trace):
    source = TraceFileSource(v3_trace["path"])
    mergeable = [GapHistogramObserver()]
    assert replay_unshardable_reason(source, mergeable) is None

    reason = replay_unshardable_reason(source, [FootprintSeriesObserver()])
    assert "FootprintSeriesObserver" in reason

    reason = replay_unshardable_reason(v3_trace["trace"], mergeable)
    assert "on-disk" in reason

    _, single = make_v3(tmp_path, 40, 128)
    reason = replay_unshardable_reason(TraceFileSource(single), mergeable)
    assert "single block" in reason


def test_unmergeable_observers_lists_the_blockers():
    names = unmergeable_observers(
        [GapHistogramObserver(), FootprintSeriesObserver(), TraceAnalyticsObserver()]
    )
    assert names == ["FootprintSeriesObserver"]


def test_run_replay_sharded_returns_none_on_unpicklable_payload(v3_trace):
    class Unpicklable(GapHistogramObserver):
        def __init__(self):
            super().__init__()
            self._handle = open(v3_trace["path"], "rb")  # cannot pickle

    observer = Unpicklable()
    try:
        result = run_replay_sharded(
            FirstFitAllocator(), TraceFileSource(v3_trace["path"]), [observer], jobs=2
        )
        assert result is None
    finally:
        observer._handle.close()


# ------------------------------------------------------------------- campaign
def replay_spec(path, jobs, stream=True):
    workload = {"kind": "replay", "path": str(path), "stream": stream}
    if jobs != 1:
        workload["jobs"] = jobs
    return CampaignSpec.from_dict(
        {
            "name": "par",
            "seed": 3,
            "workloads": [workload],
            "allocators": ["first_fit"],
            "costs": ["linear"],
            "devices": ["ram"],
        }
    )


def test_campaign_cell_replays_sharded(v3_trace):
    serial = run_campaign(replay_spec(v3_trace["path"], jobs=1))
    with warnings.catch_warnings():
        # The device observer is mergeable, so a plain cell must actually
        # shard — any serial fallback is a regression, not a warning.
        warnings.simplefilter("error", SerialFallbackWarning)
        sharded = run_campaign(replay_spec(v3_trace["path"], jobs=2))
    (serial_record,) = serial.records
    (sharded_record,) = sharded.records
    assert sharded_record["status"] == "ok"
    assert sharded_record["requests"] == serial_record["requests"] == 2000
    assert sharded_record["final_volume"] == serial_record["final_volume"]
    # Device writes are stream-derived (one per insert), hence exact.
    assert (
        sharded_record["device_units_written"]
        == serial_record["device_units_written"]
    )


def test_campaign_replay_jobs_requires_stream(v3_trace):
    from repro.campaign import build_workload

    (cell,) = replay_spec(v3_trace["path"], jobs=2, stream=False).expand()
    with pytest.raises(SpecError, match="'stream': true"):
        build_workload(cell.workload, seed=cell.seed)


def test_campaign_pool_workers_fall_back_without_deadlock(v3_trace):
    """Campaign jobs=2 x replay jobs=2 would nest process pools; the replay
    layer detects the sweep worker and silently replays serially."""
    raw = replay_spec(v3_trace["path"], jobs=2).to_dict()
    raw["allocators"] = ["first_fit", "best_fit"]  # two cells, two workers
    spec = CampaignSpec.from_dict(raw)

    def sharded(record):
        spans = record["telemetry"]["spans"]
        return any(span["name"].startswith("parallel.") for span in spans)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SerialFallbackWarning)
        in_process = run_campaign(spec, jobs=1, telemetry=True)
        pooled = run_campaign(spec, jobs=2, telemetry=True)
    assert pooled.jobs == 2
    assert all(sharded(record) for record in in_process.records)
    for record in pooled.records:
        assert record["status"] == "ok"
        assert record["requests"] == 2000
        assert not sharded(record)
