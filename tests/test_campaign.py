"""Tests for the campaign engine: spec expansion, execution, analytics, CLI."""

import csv
import json

import pytest

from benchmarks.legacy_codec import save_legacy_trace
from repro.campaign import (
    CampaignSpec,
    SpecError,
    build_workload,
    campaign_to_dict,
    document_table,
    load_results,
    run_campaign,
    write_results,
)
from repro.campaign.executor import RECORD_VERSION
from repro.cli import main
from repro.engine import analyze_source
from repro.workloads import churn_trace, grow_then_shrink_trace, save_trace


def small_spec(**overrides):
    raw = {
        "name": "unit",
        "seed": 5,
        "workloads": [
            {"kind": "churn", "requests": 300, "target_live": 40},
            {"kind": "grow_shrink", "requests": 200},
        ],
        "allocators": [{"kind": "cost_oblivious", "epsilon": 0.5}, "first_fit"],
        "costs": ["linear", "constant"],
        "devices": ["ram"],
    }
    raw.update(overrides)
    return CampaignSpec.from_dict(raw)


def comparable(records):
    """Strip timing/resource (non-deterministic) fields and the token of
    the worker that ran the cell from cell records."""
    stripped = []
    for record in records:
        copy = {
            k: v
            for k, v in record.items()
            if k not in ("elapsed_seconds", "resources", "telemetry", "profile", "worker")
        }
        stripped.append(copy)
    return stripped


# ----------------------------------------------------------------- spec layer
def test_expansion_is_the_full_cross_product():
    cells = small_spec().expand()
    assert len(cells) == 2 * 2 * 2 * 1
    assert [cell.index for cell in cells] == list(range(8))
    assert len({cell.cell_id for cell in cells}) == 8


def test_cell_seed_depends_only_on_the_workload_axis():
    cells = small_spec().expand()
    by_workload = {}
    for cell in cells:
        by_workload.setdefault(json.dumps(cell.workload, sort_keys=True), set()).add(cell.seed)
    assert all(len(seeds) == 1 for seeds in by_workload.values())
    assert len({next(iter(s)) for s in by_workload.values()}) == 2


def test_spec_rejects_unknown_keys_and_empty_axes():
    with pytest.raises(SpecError, match="unknown spec keys"):
        CampaignSpec.from_dict({"workloads": ["churn"], "allocators": ["first_fit"], "x": 1})
    with pytest.raises(SpecError, match="at least one workload"):
        CampaignSpec.from_dict({"allocators": ["first_fit"]})
    with pytest.raises(SpecError, match="at least one allocator"):
        CampaignSpec.from_dict({"workloads": ["churn"]})


def test_validate_flags_unknown_kinds_eagerly():
    spec = small_spec(allocators=["first_fit", "no_such_allocator"])
    with pytest.raises(SpecError, match="no_such_allocator"):
        spec.validate()
    small_spec().validate()


@pytest.mark.parametrize("kind", ["first_fit", "cost_oblivious", "deamortized"])
@pytest.mark.parametrize("audit", [True, False])
def test_an_allocator_entry_with_audit_is_refused(kind, audit):
    """Every allocator is audited; the removed ``audit`` key is refused by
    name, also for the two classes that still accept the keyword."""
    spec = small_spec(allocators=[{"kind": kind, "audit": audit}])
    with pytest.raises(SpecError, match="'audit' parameter was removed"):
        spec.validate()


def test_build_workload_is_deterministic_for_a_seed():
    entry = {"kind": "churn", "requests": 120, "target_live": 20}
    first = build_workload(entry, seed=9)
    second = build_workload(entry, seed=9)
    assert [(r.op, r.name, r.size) for r in first] == [(r.op, r.name, r.size) for r in second]
    assert first.metadata["workload"] == entry
    assert first.metadata["seed"] == 9


# ------------------------------------------------------------------ execution
def test_serial_campaign_smoke():
    result = run_campaign(small_spec(), jobs=1)
    assert len(result.records) == 8
    assert all(record["status"] == "ok" for record in result.records)
    assert all(record["requests"] > 0 for record in result.records)
    # The same execution charged under two cost functions keeps every
    # non-cost metric identical.
    by_pair = {}
    for record in result.records:
        key = (json.dumps(record["workload"]), json.dumps(record["allocator"]))
        by_pair.setdefault(key, []).append(record)
    for pair_records in by_pair.values():
        footprints = {record["max_footprint_ratio"] for record in pair_records}
        assert len(footprints) == 1


def test_parallel_run_equals_serial_run():
    spec = small_spec()
    serial = run_campaign(spec, jobs=1)
    parallel = run_campaign(spec, jobs=2)
    assert parallel.jobs == 2
    assert comparable(parallel.records) == comparable(serial.records)


def test_crashing_cell_is_isolated():
    spec = small_spec(allocators=[{"kind": "cost_oblivious", "epsilon": 0.5}, "kaboom"])
    result = run_campaign(spec, jobs=2)
    assert len(result.records) == 8
    assert len(result.error_records) == 4
    assert len(result.ok_records) == 4
    for record in result.error_records:
        assert "kaboom" in record["error"]
        assert record["allocator"]["kind"] == "kaboom"
    # The table renders error rows instead of raising.
    assert "ERROR" in document_table(campaign_to_dict(result)).to_text()


def test_artifacts_round_trip(tmp_path):
    result = run_campaign(small_spec(), jobs=1)
    paths = write_results(result, tmp_path / "out")
    document = load_results(paths["results"])
    assert document["cells"] == 8
    assert document["ok"] == 8
    assert len(document["records"]) == 8
    assert document["spec"]["name"] == "unit"
    with open(paths["csv"], newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + 8
    header = rows[0]
    assert "cost_ratio" in header and "max_footprint_ratio" in header
    assert not (tmp_path / "out" / "missing").exists()


def test_load_results_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
    with pytest.raises(ValueError, match="not a repro campaign results file"):
        load_results(path)


# ------------------------------------------------------------------ analytics
def test_analyze_trace_conserves_volume():
    trace = churn_trace(400, target_live=50, seed=2)
    analytics = analyze_source(trace)
    died = sum(bucket["volume"] for bucket in analytics.death_groups)
    assert died + analytics.immortal_volume == analytics.inserted_volume
    assert analytics.peak_volume == trace.peak_volume()
    assert analytics.inserts == trace.num_inserts
    assert analytics.deletes == trace.num_deletes
    assert analytics.delta == trace.delta
    assert sum(bucket["count"] for bucket in analytics.histogram) == analytics.inserts


def test_analyze_trace_lifetimes_grow_shrink():
    trace = grow_then_shrink_trace(50, seed=1, order="fifo")
    analytics = analyze_source(trace)
    assert analytics.immortal_objects == 0
    # FIFO deletion: every object lives exactly `num_objects` requests.
    assert analytics.lifetimes["p50"] == 50
    assert analytics.lifetimes["max"] == 50


def test_analyze_empty_trace():
    from repro.workloads import Trace

    analytics = analyze_source(Trace([], label="empty"))
    assert analytics.requests == 0
    assert analytics.peak_volume == 0
    assert analytics.turnover == 0


# ------------------------------------------------------------------------ CLI
def write_spec(tmp_path, **overrides):
    raw = {
        "name": "cli",
        "seed": 1,
        "workloads": [{"kind": "churn", "requests": 150, "target_live": 25}],
        "allocators": ["first_fit", {"kind": "cost_oblivious", "epsilon": 0.5}],
        "costs": ["linear"],
    }
    raw.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_cli_sweep_writes_artifacts(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(spec_path), "--jobs", "2", "--out", str(out_dir), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert "Campaign 'cli'" in captured.out
    document = load_results(out_dir / "results.json")
    assert document["cells"] == 2
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "spec.json").exists()


def test_cli_sweep_missing_spec_fails_cleanly(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "nope.json")]) == 2
    assert "cannot load spec" in capsys.readouterr().err


def test_cli_sweep_all_cells_failing_returns_error(tmp_path, capsys):
    spec_path = write_spec(tmp_path, allocators=["kaboom"])
    assert main(["sweep", str(spec_path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    document = load_results(tmp_path / "out" / "results.json")
    assert document["errors"] == 1


def test_cli_sweep_partial_failure_exits_nonzero(tmp_path, capsys):
    spec_path = write_spec(tmp_path, allocators=["first_fit", "kaboom"])
    assert main(["sweep", str(spec_path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    document = load_results(tmp_path / "out" / "results.json")
    assert document["ok"] == 1 and document["errors"] == 1


def test_cli_trace_analyze(tmp_path, capsys):
    trace = churn_trace(200, target_live=30, seed=3, label="cli trace")
    path = tmp_path / "t.trace"
    save_trace(trace, path, metadata={"seed": 3})
    assert main(["trace", "analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Trace analytics" in out
    assert "Death-time grouping" in out
    assert "metadata" in out


def test_cli_trace_analyze_missing_file(tmp_path, capsys):
    assert main(["trace", "analyze", str(tmp_path / "nope")]) == 2
    assert "repro trace analyze" in capsys.readouterr().err


# ---------------------------------------------------------------- observers
def test_spec_observers_produce_bounded_footprint_series(tmp_path):
    spec = small_spec(observers=[{"kind": "footprint_series", "max_points": 32}])
    result = run_campaign(spec, jobs=1)
    assert all(record["status"] == "ok" for record in result.records)
    for record in result.records:
        series = record["footprint_series"]
        assert 2 <= len(series["footprint"]) <= 32
        assert len(series["footprint"]) == len(series["volume"]) == len(series["indices"])
        assert series["requests_seen"] == record["requests"]
    # The series survives the artifact round trip, and the CSV carries it.
    paths = write_results(result, tmp_path / "out")
    document = load_results(paths["results"])
    for record in document["records"]:
        assert "footprint_series" in record
    with open(paths["csv"], newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("footprint_series")
    for row in rows[1:]:
        assert row[column]  # space-separated, non-empty series
        assert all(cell.isdigit() for cell in row[column].split())


def test_spec_observers_are_validated_and_not_part_of_cell_id():
    spec = small_spec(observers=["no_such_observer"])
    with pytest.raises(SpecError, match="unknown observer"):
        spec.validate()
    with_observers = small_spec(observers=["footprint_series"]).expand()
    without = small_spec().expand()
    assert [c.cell_id for c in with_observers] == [c.cell_id for c in without]


def test_parallel_observer_run_equals_serial_run():
    spec = small_spec(observers=[{"kind": "footprint_series", "max_points": 16}])
    serial = run_campaign(spec, jobs=1)
    parallel = run_campaign(spec, jobs=2)
    assert comparable(parallel.records) == comparable(serial.records)


# ------------------------------------------------------------------- resume
def test_run_campaign_resumes_from_completed_records():
    from repro.campaign import completed_records
    from repro.campaign.artifacts import campaign_to_dict

    spec = small_spec()
    first = run_campaign(spec, jobs=1)
    document = campaign_to_dict(first)
    # Pretend the sweep died halfway: keep only the first half of the records.
    document["records"] = document["records"][: len(document["records"]) // 2]
    completed = completed_records(document)
    assert len(completed) == 4

    second = run_campaign(spec, jobs=1, completed=completed)
    assert len(second.records) == 8
    assert second.metadata["resumed"] == 4
    resumed = [r for r in second.records if r.get("resumed")]
    assert {r["cell_id"] for r in resumed} == set(completed)
    # Re-run cells and reused cells together reproduce the full first run.
    stripped = [{k: v for k, v in record.items() if k != "resumed"} for record in second.records]
    assert comparable(stripped) == comparable(first.records)


def test_resume_reruns_failed_cells():
    from repro.campaign import completed_records
    from repro.campaign.artifacts import campaign_to_dict

    broken = small_spec(allocators=[{"kind": "cost_oblivious", "epsilon": 0.5}, "kaboom"])
    first = run_campaign(broken, jobs=1)
    completed = completed_records(campaign_to_dict(first))
    assert len(completed) == 4  # error cells are not "completed"

    fixed = small_spec(allocators=[{"kind": "cost_oblivious", "epsilon": 0.5}, "first_fit"])
    second = run_campaign(fixed, jobs=1, completed=completed)
    assert second.metadata["resumed"] == 4
    assert all(record["status"] == "ok" for record in second.records)


def test_cli_sweep_resume_finishes_half_completed_sweep(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(spec_path), "--out", str(out_dir), "--quiet"]) == 0
    # Truncate results.json to simulate a sweep that died after one cell.
    document = load_results(out_dir / "results.json")
    document["records"] = document["records"][:1]
    (out_dir / "results.json").write_text(json.dumps(document), encoding="utf-8")

    capsys.readouterr()
    assert main(["sweep", str(spec_path), "--resume", str(out_dir), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "resumed: 1 cell(s)" in out
    document = load_results(out_dir / "results.json")  # artifacts default to DIR
    assert document["cells"] == 2 and document["ok"] == 2
    assert document["resumed"] == 1
    assert sum(1 for r in document["records"] if r.get("resumed")) == 1


def test_cli_sweep_resume_missing_results_fails_cleanly(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    assert main(["sweep", str(spec_path), "--resume", str(tmp_path / "absent")]) == 2
    assert "cannot resume" in capsys.readouterr().err


def test_resume_reruns_cells_missing_requested_observer_exports():
    from repro.campaign import completed_records
    from repro.campaign.artifacts import campaign_to_dict

    plain = small_spec()
    completed = completed_records(campaign_to_dict(run_campaign(plain, jobs=1)))
    assert len(completed) == 8
    # The resumed sweep now requests a footprint series the old records lack:
    # nothing can be reused, every cell re-runs and gains the series.
    with_series = small_spec(observers=[{"kind": "footprint_series", "max_points": 16}])
    result = run_campaign(with_series, jobs=1, completed=completed)
    assert result.metadata["resumed"] == 0
    assert all("footprint_series" in record for record in result.records)


def test_cli_sweep_resume_rejects_seed_mismatch(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(spec_path), "--out", str(out_dir), "--quiet"]) == 0
    other_spec = write_spec(tmp_path, seed=99)
    assert main(["sweep", str(other_spec), "--resume", str(out_dir), "--quiet"]) == 2
    assert "campaign seed differs" in capsys.readouterr().err


def test_cli_sweep_resume_with_changed_observers_reruns_all_cells(tmp_path, capsys):
    spec_path = write_spec(tmp_path, observers=[{"kind": "footprint_series", "max_points": 16}])
    out_dir = tmp_path / "out"
    assert main(["sweep", str(spec_path), "--out", str(out_dir), "--quiet"]) == 0
    resampled = write_spec(tmp_path, observers=[{"kind": "footprint_series", "max_points": 64}])
    assert main(["sweep", str(resampled), "--resume", str(out_dir), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert "observer configuration changed" in captured.err
    document = load_results(out_dir / "results.json")
    assert document["resumed"] == 0  # nothing reused under stale instrumentation
    assert document["spec"]["observers"] == [{"kind": "footprint_series", "max_points": 64}]


def test_resume_reruns_records_from_older_release():
    from repro.campaign import completed_records
    from repro.campaign.artifacts import campaign_to_dict

    spec = small_spec()
    document = campaign_to_dict(run_campaign(spec, jobs=1))
    # Simulate a results.json written before records were version-stamped.
    for record in document["records"]:
        record.pop("record_version", None)
        record.pop("observers", None)
    result = run_campaign(spec, jobs=1, completed=completed_records(document))
    assert result.metadata["resumed"] == 0  # stale semantics: nothing reused
    assert all(r["record_version"] == RECORD_VERSION for r in result.records)


# ----------------------------------------------------------- streaming cells
def test_replay_workload_streams_from_v2_file(tmp_path):
    """A replay workload with "stream": true replays the on-disk trace
    without materialising it and produces a record identical to the
    materialised cell (modulo the workload entry and timing)."""
    trace = churn_trace(600, target_live=60, seed=13, label="recorded")
    path = tmp_path / "recorded.v2z"
    save_legacy_trace(trace, path, compress=True)
    spec = small_spec(
        workloads=[
            {"kind": "replay", "path": str(path)},
            {"kind": "replay", "path": str(path), "stream": True},
        ],
        allocators=[{"kind": "cost_oblivious", "epsilon": 0.5}],
        costs=["linear"],
    )
    result = run_campaign(spec, jobs=1)
    assert [r["status"] for r in result.records] == ["ok", "ok"]
    materialised, streamed = result.records
    ignore = {"index", "cell_id", "workload", "elapsed_seconds", "resources", "seed"}
    assert {k: v for k, v in materialised.items() if k not in ignore} == {
        k: v for k, v in streamed.items() if k not in ignore
    }
    assert streamed["requests"] == len(trace)
    assert streamed["trace_label"] == "recorded"
    assert streamed["delta"] == trace.delta
    assert streamed["inserted_volume"] == trace.total_inserted_volume


def test_streamed_replay_workload_builds_a_source(tmp_path):
    from repro.workloads import Trace, TraceFileSource

    trace = churn_trace(100, target_live=20, seed=1)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3)
    entry = {"kind": "replay", "path": str(path), "stream": True}
    built = build_workload(entry, seed=9)
    assert isinstance(built, TraceFileSource)
    assert not isinstance(built, Trace)
    # provenance stamping works on sources too
    assert built.metadata["workload"] == entry
    assert built.metadata["seed"] == 9


# ----------------------------------------------------- crash-safe artifacts
def test_atomic_write_keeps_the_old_file_when_the_writer_dies(tmp_path):
    from repro.campaign import atomic_write

    path = tmp_path / "results.json"
    atomic_write(path, lambda handle: handle.write('{"ok": true}'))
    assert json.loads(path.read_text(encoding="utf-8")) == {"ok": True}

    def dying_writer(handle):
        handle.write('{"ok": fal')  # a partial document...
        raise RuntimeError("killed mid-stream")  # ...then the process dies

    with pytest.raises(RuntimeError):
        atomic_write(path, dying_writer)
    # The published file never saw the partial write.
    assert json.loads(path.read_text(encoding="utf-8")) == {"ok": True}


def test_write_results_is_atomic_under_mid_stream_death(tmp_path, monkeypatch):
    spec = small_spec()
    result = run_campaign(spec)
    out = tmp_path / "out"
    write_results(result, out)
    before = load_results(out / "results.json")

    # Kill the next write partway through the JSON dump: the record list
    # contains an object the serializer chokes on after emitting a prefix.
    result.records.append({"cell_id": "late", "status": "ok", "boom": object()})
    with pytest.raises(TypeError):
        write_results(result, out)
    assert load_results(out / "results.json") == before  # old artifact intact


def test_load_results_raises_artifact_error_on_truncated_json(tmp_path):
    from repro.campaign import ArtifactError

    spec = small_spec()
    out = tmp_path / "out"
    write_results(run_campaign(spec), out)
    path = out / "results.json"
    full = path.read_text(encoding="utf-8")
    path.write_text(full[: len(full) // 2], encoding="utf-8")
    with pytest.raises(ArtifactError, match="truncated or corrupt"):
        load_results(path)
    with pytest.raises(ArtifactError, match=str(path).replace("\\", "\\\\")):
        load_results(path)  # the message names the offending path


def test_cli_surfaces_corrupt_artifacts_as_exit_2(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", str(spec_path), "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    path = out / "results.json"
    full = path.read_text(encoding="utf-8")
    path.write_text(full[: len(full) // 2], encoding="utf-8")
    assert main(["sweep", "report", str(out)]) == 2
    assert "truncated or corrupt" in capsys.readouterr().err
    assert main(["sweep", str(spec_path), "--resume", str(out), "--quiet"]) == 2
    assert "truncated or corrupt" in capsys.readouterr().err


# ------------------------------------------------------- interrupt handling
def test_interrupt_mid_campaign_keeps_completed_cells():
    """Ctrl-C after the first of 4 cells must not discard its record."""
    spec = small_spec(costs=["linear"])  # 4 cells
    calls = []

    def interrupt_after_first(done, total, record):
        calls.append(record["cell_id"])
        if done == 1:
            raise KeyboardInterrupt

    result = run_campaign(spec, progress=interrupt_after_first)
    assert len(result.records) == 1
    assert result.metadata["interrupted"] is True
    assert result.metadata["ok"] == 1

    # The artifact carries the stamp, and a resume completes the other 3.
    from repro.campaign import campaign_to_dict, completed_records

    document = campaign_to_dict(result)
    assert document["interrupted"] is True
    resumed = run_campaign(spec, completed=completed_records(document))
    assert len(resumed.records) == 4
    assert resumed.metadata["resumed"] == 1
    assert resumed.metadata["interrupted"] is False
    assert "interrupted" not in campaign_to_dict(resumed)
    assert sum(1 for r in resumed.records if r.get("resumed")) == 1
    baseline = run_campaign(spec)
    strip = lambda records: comparable(
        [{k: v for k, v in r.items() if k != "resumed"} for r in records]
    )
    assert strip(resumed.records) == strip(baseline.records)


def test_cli_interrupted_sweep_writes_artifact_and_resume_finishes(
    tmp_path, capsys, monkeypatch
):
    """Kill the sweep after cell 1 of 4: the artifact holds 1 record and is
    stamped interrupted (exit 130); --resume reruns exactly the missing 3."""
    import repro.campaign.queue as queue_module

    spec_path = write_spec(
        tmp_path,
        workloads=[
            {"kind": "churn", "requests": 150, "target_live": 25},
            {"kind": "grow_shrink", "requests": 120},
        ],
    )
    out = tmp_path / "out"
    real_run_cell = queue_module.run_cell
    ran = []

    def run_one_then_die(payload):
        if ran:
            raise KeyboardInterrupt
        ran.append(payload["cell_id"])
        return real_run_cell(payload)

    monkeypatch.setattr(queue_module, "run_cell", run_one_then_die)
    assert main(["sweep", str(spec_path), "--out", str(out), "--quiet"]) == 130
    captured = capsys.readouterr()
    assert "interrupted: 1 record(s) saved" in captured.err
    assert f"--resume {out}" in captured.err
    document = load_results(out / "results.json")
    assert document["interrupted"] is True
    assert document["cells"] == 1 and document["ok"] == 1

    monkeypatch.setattr(queue_module, "run_cell", real_run_cell)
    assert main(["sweep", str(spec_path), "--resume", str(out), "--quiet"]) == 0
    assert "resumed: 1 cell(s)" in capsys.readouterr().out
    document = load_results(out / "results.json")
    assert document["cells"] == 4 and document["ok"] == 4
    assert "interrupted" not in document


def test_cli_resume_folds_journal_records_after_a_hard_crash(tmp_path, capsys):
    """A crash that never reached the artifact writer leaves the finished
    records only in the journal; --resume must still not re-run them."""
    from repro.campaign.queue import journal_dir, read_journal

    spec_path = write_spec(tmp_path)
    out, crashed = tmp_path / "out", tmp_path / "crashed"
    assert main(["sweep", str(spec_path), "--out", str(out), "--quiet"]) == 0
    # Build the crash scene: a valid (older, empty) artifact plus a journal
    # holding one finished record that never made it into results.json.
    assert main(["sweep", str(spec_path), "--out", str(crashed), "--quiet"]) == 0
    document = load_results(crashed / "results.json")
    survivor = document["records"][0]
    document["records"] = []
    document["cells"] = document["ok"] = 0
    (crashed / "results.json").write_text(json.dumps(document), encoding="utf-8")
    journal_path = journal_dir(crashed) + "/crashed-worker.jsonl"
    import os

    os.makedirs(journal_dir(crashed), exist_ok=True)
    with open(journal_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(survivor) + "\n")
    capsys.readouterr()
    assert main(["sweep", str(spec_path), "--resume", str(crashed), "--quiet"]) == 0
    assert "resumed: 1 cell(s)" in capsys.readouterr().out
    merged = load_results(crashed / "results.json")
    assert merged["cells"] == 2 and merged["ok"] == 2
    restored = next(r for r in merged["records"] if r["cell_id"] == survivor["cell_id"])
    assert restored.get("resumed") is True
