"""The observer toolkit: gap histograms, per-class occupancy, trace recording.

Covers the observers standalone (export structure, bounded sampling, final
samples cross-checked against allocator state), the trace-recorder round
trip (engine run -> v3 file -> replay reproduces identical stats and the
E1/E3/E7/E8 experiment tables), and their campaign/CLI integration
(per-cell attachment, ``{cell}`` path binding, ``repro sweep report``).
"""

import json
from dataclasses import asdict

import pytest

from repro.allocators import FirstFitAllocator, LoggingCompactingReallocator
from repro.campaign import CampaignSpec, SpecError, load_results, run_campaign, write_results
from repro.cli import main
from repro.core import CostObliviousReallocator, DeamortizedReallocator
from repro.costs import ConstantCost, LinearCost, RotatingDiskCost
from repro.engine import (
    EngineSession,
    GapHistogramObserver,
    PerClassOccupancyObserver,
    TraceRecorderObserver,
)
from repro.harness.runners import (
    _ReservedSpaceObserver,
    _WorstCaseBoundObserver,
    _WorstRequestCostObserver,
    _WorstRequestObserver,
)
from repro.metrics import run_trace
from repro.workloads import (
    TraceFileSource,
    UniformSizes,
    churn_trace,
    load_trace,
    trace_info,
)

COSTS = (LinearCost(), ConstantCost(), RotatingDiskCost())


# ------------------------------------------------------------- gap histogram
def test_gap_histogram_final_sample_matches_free_extents():
    trace = churn_trace(400, target_live=40, seed=8)
    observer = GapHistogramObserver(every=1)
    allocator = FirstFitAllocator()
    EngineSession(allocator, [observer]).run(trace)
    export = export_of(observer)
    assert export["requests_seen"] == len(trace)
    # every=1: the last sample is the state after the final request.
    expected = {}
    for extent in allocator.free_extents():
        exponent = extent.length.bit_length() - 1
        expected[exponent] = expected.get(exponent, 0) + 1
    exponents = [low.bit_length() - 1 for low, _ in export["buckets"]]
    last = dict(zip(exponents, export["counts"][-1]))
    assert {e: c for e, c in last.items() if c} == expected
    assert export["free_volume"][-1] == allocator.free_volume()
    assert export["total_gaps"][-1] == len(allocator.free_extents())


def test_gap_histogram_falls_back_to_address_space_gaps():
    trace = churn_trace(300, target_live=30, seed=3)
    observer = GapHistogramObserver(every=1)
    allocator = CostObliviousReallocator(epsilon=0.5)
    assert not hasattr(allocator, "free_extents")
    EngineSession(allocator, [observer]).run(trace)
    export = export_of(observer)
    gaps = allocator.space.free_gaps()
    assert export["total_gaps"][-1] == len(gaps)
    assert export["free_volume"][-1] == sum(gap.length for gap in gaps)


def test_gap_histogram_sampling_is_bounded():
    trace = churn_trace(3000, target_live=50, seed=5)
    observer = GapHistogramObserver(max_points=16)
    EngineSession(FirstFitAllocator(), [observer]).run(trace)
    export = export_of(observer)
    assert 2 <= len(export["indices"]) <= 16
    assert len(export["counts"]) == len(export["indices"])
    assert all(len(row) == len(export["buckets"]) for row in export["counts"])


def export_of(observer):
    export = observer.export()
    # Every export must survive the JSON round trip campaign artifacts take.
    return json.loads(json.dumps(export))


# ------------------------------------------------------- per-class occupancy
def test_per_class_occupancy_conserves_live_volume():
    trace = churn_trace(500, UniformSizes(1, 200), target_live=60, seed=12)
    observer = PerClassOccupancyObserver(every=1)
    allocator = FirstFitAllocator()
    EngineSession(allocator, [observer]).run(trace)
    export = export_of(observer)
    assert sum(export["volume"][-1]) == allocator.volume
    assert sum(export["count"][-1]) == allocator.num_objects
    # Classes are power-of-two aligned and every row matches their width.
    for low, high in export["classes"]:
        assert high == 2 * low - 1
    assert all(len(row) == len(export["classes"]) for row in export["volume"])


def test_per_class_occupancy_bounded_and_observer_registry():
    from repro.engine import OBSERVER_KINDS, build_observer

    for kind in ("gap_histogram", "per_class_occupancy", "trace_recorder", "trace_analytics"):
        assert kind in OBSERVER_KINDS
    observer = build_observer({"kind": "per_class_occupancy", "max_points": 8})
    trace = churn_trace(2000, target_live=40, seed=2)
    EngineSession(FirstFitAllocator(), [observer]).run(trace)
    assert 2 <= len(observer.indices) <= 8
    with pytest.raises(ValueError, match="bad parameters"):
        build_observer({"kind": "gap_histogram", "nope": 1})


# ------------------------------------------------------------ trace recorder
ALLOCATOR_FACTORIES = [
    ("cost-oblivious", lambda: CostObliviousReallocator(epsilon=0.25)),
    ("deamortized", lambda: DeamortizedReallocator(epsilon=0.25)),
    ("first-fit", FirstFitAllocator),
    ("logging-compacting", LoggingCompactingReallocator),
]


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """A live engine run streamed to a v3 file by the recorder observer."""
    trace = churn_trace(3000, UniformSizes(1, 64), target_live=150, seed=11)
    path = tmp_path_factory.mktemp("recorder") / "recorded.v3z"
    recorder = TraceRecorderObserver(str(path), compress=True, label=trace.label)
    EngineSession(FirstFitAllocator(), [recorder]).run(trace)
    assert recorder.requests_written == len(trace)
    assert recorder.file_bytes > 0
    assert recorder.export()["path"] == str(path)
    return trace, TraceFileSource(path)


def metrics_dict(metrics):
    out = asdict(metrics)
    out.pop("elapsed_seconds")
    return out


def test_recorded_file_carries_the_same_requests(recorded_trace):
    trace, source = recorded_trace
    loaded = load_trace(source.path)
    assert [(r.op, r.name, r.size) for r in loaded] == [
        (r.op, str(r.name), r.size if r.is_insert else 0) for r in trace
    ]
    assert source.label == trace.label


@pytest.mark.parametrize(
    "name,factory", ALLOCATOR_FACTORIES, ids=[n for n, _ in ALLOCATOR_FACTORIES]
)
def test_recorded_replay_reproduces_identical_stats(recorded_trace, name, factory):
    trace, source = recorded_trace
    original = run_trace(factory(), trace, cost_functions=COSTS, sample_every=50)
    replayed = run_trace(factory(), source, cost_functions=COSTS, sample_every=50)
    assert metrics_dict(original) == metrics_dict(replayed)


def test_recorded_replay_reproduces_e1_e3_e7_e8_tables(recorded_trace):
    trace, source = recorded_trace

    def e1_rows(replayable):
        out = []
        for epsilon in (0.5, 0.25):
            allocator = CostObliviousReallocator(epsilon=epsilon)
            watcher = _ReservedSpaceObserver()
            run_trace(allocator, replayable, observers=[watcher])
            out.append(
                (epsilon, watcher.footprint_ratio, watcher.reserved_ratio,
                 allocator.stats.amortized_moves_per_insert)
            )
        return out

    def e3_rows(replayable):
        out = []
        for _, factory in ALLOCATOR_FACTORIES:
            allocator = factory()
            watcher = _WorstRequestObserver()
            metrics = run_trace(allocator, replayable, observers=[watcher], cost_functions=COSTS)
            out.append(
                (allocator.describe(), watcher.worst_moves,
                 round(metrics.max_footprint_ratio, 6),
                 {k: round(v, 6) for k, v in metrics.cost_ratios.items()})
            )
        return out

    def e7_rows(replayable):
        out = []
        for cls in (CostObliviousReallocator, DeamortizedReallocator):
            allocator = cls(epsilon=0.25)
            watcher = _WorstCaseBoundObserver(0.25)
            run_trace(allocator, replayable, observers=[watcher])
            out.append(
                (cls.__name__, watcher.worst_moved, watcher.worst_bound, watcher.violations,
                 allocator.stats.amortized_moved_volume_per_request)
            )
        return out

    def e8_rows(replayable):
        allocator = CostObliviousReallocator(epsilon=0.5)
        watcher = _WorstRequestCostObserver(COSTS)
        run_trace(allocator, replayable, observers=[watcher], finish_pending=False)
        return (watcher.worst_moved, watcher.worst_moves, watcher.worst_cost)

    for rows in (e1_rows, e3_rows, e7_rows, e8_rows):
        assert repr(rows(trace)) == repr(rows(source))


def test_recorder_aborts_cleanly_when_the_replay_raises(tmp_path):
    from repro.engine import Observer

    class _Bomb(Observer):
        def on_request(self, record):
            if record.index >= 50:
                raise RuntimeError("boom")

    path = tmp_path / "partial.v3"
    recorder = TraceRecorderObserver(str(path))
    engine = EngineSession(FirstFitAllocator(), [recorder, _Bomb()])
    with pytest.raises(RuntimeError, match="boom"):
        engine.run(churn_trace(500, target_live=30, seed=1))
    # The partial v3 file has no END trailer: reading it fails loudly
    # instead of silently yielding a prefix.
    with pytest.raises(ValueError, match="truncated"):
        load_trace(path)


def test_recorder_rejects_empty_path():
    with pytest.raises(ValueError, match="path"):
        TraceRecorderObserver("")


def test_abort_of_one_observer_does_not_starve_the_others(tmp_path):
    """A raising on_abort must neither hide the replay error nor prevent
    later observers from releasing their resources."""
    from repro.core.base import AllocationError
    from repro.engine import Observer

    class _ExplodingCleanup(Observer):
        def on_request(self, record):
            pass

        def on_abort(self, allocator, error):
            raise OSError("disk full")

    path = tmp_path / "after.v3"
    recorder = TraceRecorderObserver(str(path))
    engine = EngineSession(FirstFitAllocator(), [_ExplodingCleanup(), recorder])
    with pytest.raises(AllocationError):
        engine.run([churn_trace(10, target_live=5, seed=1)[0]] * 2)  # duplicate insert
    # The recorder, listed after the exploding observer, still aborted.
    with pytest.raises(ValueError, match="truncated"):
        load_trace(path)


def test_campaign_rejects_a_recorder_path_shared_by_cells(tmp_path, capsys):
    """Without the {cell} placeholder every cell would truncate the same
    file; the sweep refuses up front instead of silently destroying data."""
    shared = CampaignSpec.from_dict(
        {
            "name": "shared",
            "workloads": [{"kind": "churn", "requests": 100, "target_live": 20}],
            "allocators": ["first_fit", "best_fit"],
            "observers": [{"kind": "trace_recorder", "path": str(tmp_path / "rec.v3")}],
        }
    )
    with pytest.raises(SpecError, match="shared by 2 cells"):
        run_campaign(shared, jobs=1)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(shared.to_dict()), encoding="utf-8")
    assert main(["sweep", str(spec_path), "--quiet"]) == 2
    assert "{cell}" in capsys.readouterr().err
    # The distributed path refuses the spec too, before writing a payload.
    queue_dir = tmp_path / "q"
    assert main(["sweep", "enqueue", str(spec_path), str(queue_dir)]) == 2
    assert "{cell}" in capsys.readouterr().err
    assert not (queue_dir / "queue").exists()
    # A single-cell spec may record to a fixed path.
    single = CampaignSpec.from_dict(
        {
            "name": "single",
            "workloads": [{"kind": "churn", "requests": 100, "target_live": 20}],
            "allocators": ["first_fit"],
            "observers": [{"kind": "trace_recorder", "path": str(tmp_path / "one.v3")}],
        }
    )
    result = run_campaign(single, jobs=1)
    assert result.records[0]["status"] == "ok"


# ------------------------------------------------------ campaign integration
def observer_spec(tmp_path, jobs_placeholder=True):
    recorder_path = str(tmp_path / ("rec-{cell}.v3" if jobs_placeholder else "rec.v3"))
    return CampaignSpec.from_dict(
        {
            "name": "toolkit",
            "seed": 5,
            "workloads": [{"kind": "churn", "requests": 300, "target_live": 40}],
            "allocators": [{"kind": "cost_oblivious", "epsilon": 0.5}, "first_fit"],
            "costs": ["linear"],
            "observers": [
                {"kind": "footprint_series", "max_points": 16},
                {"kind": "gap_histogram", "max_points": 16},
                {"kind": "per_class_occupancy", "max_points": 16},
                {"kind": "trace_recorder", "path": recorder_path},
            ],
        }
    )


def test_campaign_cells_attach_the_toolkit_and_record_per_cell(tmp_path):
    spec = observer_spec(tmp_path)
    spec.validate()
    result = run_campaign(spec, jobs=2)
    assert [record["status"] for record in result.records] == ["ok", "ok"]
    for record in result.records:
        assert record["gap_histogram"]["counts"]
        assert record["per_class_occupancy"]["volume"]
        recorded = record["trace_recorder"]
        assert recorded["path"].endswith(f"rec-{record['index']}.v3")
        assert recorded["requests"] == record["requests"]
        assert len(load_trace(recorded["path"])) == record["requests"]
    # Both cells replay the same workload: the recorded traces are identical.
    first, second = (load_trace(r["trace_recorder"]["path"]) for r in result.records)
    assert [(r.op, r.name, r.size) for r in first] == [(r.op, r.name, r.size) for r in second]
    # The CSV flattens the new exports.
    paths = write_results(result, tmp_path / "out")
    import csv as csv_module

    with open(paths["csv"], newline="", encoding="utf-8") as handle:
        rows = list(csv_module.reader(handle))
    header = rows[0]
    for column in ("gap_histogram", "per_class_occupancy", "trace_recorder"):
        index = header.index(column)
        assert all(row[index] for row in rows[1:])


def test_trace_analytics_observer_attaches_per_cell(tmp_path):
    spec = CampaignSpec.from_dict(
        {
            "name": "cellstats",
            "seed": 2,
            "workloads": [{"kind": "churn", "requests": 200, "target_live": 30}],
            "allocators": ["first_fit"],
            "observers": [{"kind": "trace_analytics", "max_points": 32}],
        }
    )
    result = run_campaign(spec, jobs=1)
    (record,) = result.records
    assert record["status"] == "ok"
    analytics = record["trace_analytics"]
    assert analytics["requests"] == record["requests"]
    assert analytics["inserted_volume"] == record["inserted_volume"]
    assert len(analytics["volume_series"]["volume"]) <= 32


# --------------------------------------------------------------- sweep report
def test_cli_sweep_report_renders_tables_and_charts(tmp_path, capsys):
    spec = observer_spec(tmp_path)
    out_dir = tmp_path / "out"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    assert main(["sweep", str(spec_path), "--out", str(out_dir), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["sweep", "report", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "Campaign 'toolkit'" in out and "(recorded)" in out
    assert "footprint over" in out
    assert "free gaps per power-of-two length bucket over time" in out
    assert "live volume per power-of-two size class over time" in out
    # --cell filters the charts but keeps the summary table.
    assert main(["sweep", "report", str(out_dir), "--cell", "no-such-cell"]) == 0
    filtered = capsys.readouterr().out
    assert "Campaign 'toolkit'" in filtered and "footprint over" not in filtered


def test_cli_sweep_report_requires_a_directory(tmp_path, capsys):
    assert main(["sweep", "report"]) == 2
    assert "artifact directory" in capsys.readouterr().err
    assert main(["sweep", "report", str(tmp_path / "absent")]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_cli_sweep_rejects_stray_positional(tmp_path, capsys):
    spec = observer_spec(tmp_path)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    assert main(["sweep", str(spec_path), str(tmp_path)]) == 2
    assert "sweep report" in capsys.readouterr().err


def test_spec_validation_covers_the_new_kinds():
    with pytest.raises(SpecError, match="unknown observer"):
        CampaignSpec.from_dict(
            {
                "name": "bad",
                "workloads": ["churn"],
                "allocators": ["first_fit"],
                "observers": ["histogram_of_gaps"],
            }
        ).validate()
    with pytest.raises(SpecError, match="bad parameters"):
        CampaignSpec.from_dict(
            {
                "name": "bad",
                "workloads": ["churn"],
                "allocators": ["first_fit"],
                "observers": [{"kind": "trace_recorder"}],
            }
        ).validate()


def test_recorder_writes_v3_by_default_and_refuses_read_only_versions(tmp_path):
    trace = churn_trace(100, target_live=10, seed=1)
    path = tmp_path / "rec.v3"
    recorder = TraceRecorderObserver(str(path))
    EngineSession(FirstFitAllocator(), [recorder]).run(trace)
    assert recorder.export()["version"] == 3
    assert trace_info(path).version == 3
    for version in (0, 2):
        legacy = TraceRecorderObserver(str(tmp_path / f"rec.v{version}"), version=version)
        with pytest.raises(ValueError, match="read-only.*version=3"):
            EngineSession(FirstFitAllocator(), [legacy]).run(trace)
        assert not (tmp_path / f"rec.v{version}").exists()
