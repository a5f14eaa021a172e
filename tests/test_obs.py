"""Tests for the telemetry substrate: spans, counters, resources, reports."""

import json
import os
import sys
import threading

import pytest

from repro.allocators import FirstFitAllocator
from repro.cli import main
from repro.engine import EngineSession, TraceRecorderObserver
from repro.obs import (
    NULL_COUNTER,
    NULL_SPAN,
    JsonlSink,
    MemorySink,
    Telemetry,
    configure_telemetry,
    format_bytes,
    format_count,
    format_duration,
    format_rate,
    get_telemetry,
    load_events,
    obs_report,
    reset_telemetry,
    resource_record,
    snapshot_resources,
    use_telemetry,
    validate_events,
)
from repro.storage.address_space import AddressSpace
from repro.storage.gap_index import GapIndex
from repro.workloads import UniformSizes, churn_trace

TRACE = churn_trace(400, UniformSizes(1, 32), target_live=40, seed=9)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with the default disabled session."""
    reset_telemetry()
    yield
    reset_telemetry()


# ------------------------------------------------------------------ formatting
def test_format_duration_tiers():
    assert format_duration(0.000002) == "2us"
    assert format_duration(0.0042) == "4.2ms"
    assert format_duration(1.5) == "1.50s"
    assert format_duration(95.0) == "1m35.0s"


def test_format_bytes_binary_tiers():
    assert format_bytes(512) == "512B"
    assert format_bytes(2048) == "2.0KiB"
    assert format_bytes(3 * 1024 * 1024) == "3.0MiB"


def test_format_count_and_rate():
    assert format_count(999) == "999"
    assert format_count(1500) == "1.5k"
    assert format_count(2_000_000) == "2.0M"
    assert format_rate(1500) == "1.5k/s"


# ---------------------------------------------------------------- off == no-op
def test_disabled_session_hands_out_shared_singletons():
    telemetry = Telemetry()
    assert telemetry.span("x") is NULL_SPAN
    assert telemetry.counter("x") is NULL_COUNTER
    NULL_COUNTER.add(5)
    assert NULL_COUNTER.value == 0
    telemetry.add("x", 3)
    telemetry.gauge("x", 3)
    telemetry.event("x")
    assert telemetry.counter_values() == {}
    assert telemetry.gauge_values() == {}


def test_disabled_replay_creates_no_registry_and_no_file(tmp_path):
    """The structural half of the <=2% guard: a replay with telemetry off
    must leave zero observable telemetry state behind."""
    telemetry = get_telemetry()
    assert not telemetry.enabled
    allocator = FirstFitAllocator()
    EngineSession(allocator, []).run(TRACE)
    assert telemetry.counter_values() == {}
    assert telemetry.gauge_values() == {}
    # Hot classes bind no counter objects at all while off.
    assert AddressSpace()._c_probes is None
    assert GapIndex()._c_queries is None
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------------- spans
def test_span_nesting_builds_slash_paths():
    sink = MemorySink()
    telemetry = Telemetry(enabled=True, sink=sink)
    with telemetry.span("outer"):
        with telemetry.span("inner", kind="unit"):
            pass
    paths = [(e["path"], e["depth"]) for e in sink.events if e["ev"] == "span"]
    assert paths == [("outer/inner", 1), ("outer", 0)]
    inner = sink.events[0]
    assert inner["attrs"] == {"kind": "unit"}
    assert inner["dur"] >= 0


def test_span_exception_safety_records_error_and_unwinds_stack():
    sink = MemorySink()
    telemetry = Telemetry(enabled=True, sink=sink)
    with pytest.raises(RuntimeError):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                raise RuntimeError("boom")
    spans = {e["name"]: e for e in sink.events if e["ev"] == "span"}
    assert spans["inner"]["error"] == "RuntimeError"
    assert spans["outer"]["error"] == "RuntimeError"
    assert telemetry._stack == []
    # The session is still usable afterwards, at depth zero.
    with telemetry.span("after"):
        pass
    assert sink.events[-1]["path"] == "after"


def test_concurrent_threads_keep_their_own_span_ancestry():
    """Two threads inside their spans at once: neither is the other's
    parent, and one thread's exit leaves the other's stack intact."""
    sink = MemorySink()
    telemetry = Telemetry(enabled=True, sink=sink)
    both_inside = threading.Barrier(2, timeout=10)
    errors = []

    def tenant(name):
        try:
            with telemetry.span(name):
                both_inside.wait()  # both spans open together…
                both_inside.wait()  # …and neither exits before both checked in
        except threading.BrokenBarrierError as error:
            errors.append(error)

    threads = [threading.Thread(target=tenant, args=(n,)) for n in ("tenant.a", "tenant.b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert not errors
    spans = sorted(
        (e["name"], e["path"], e["depth"]) for e in sink.events if e["ev"] == "span"
    )
    assert spans == [("tenant.a", "tenant.a", 0), ("tenant.b", "tenant.b", 0)]
    assert telemetry._stack == []


def test_flush_emits_deltas_and_resets_counters():
    sink = MemorySink()
    telemetry = Telemetry(enabled=True, sink=sink)
    telemetry.add("hits", 3)
    telemetry.flush()
    telemetry.add("hits", 2)
    telemetry.flush()
    values = [e["value"] for e in sink.events if e["ev"] == "counter"]
    assert values == [3, 2]
    assert telemetry.counter_values() == {"hits": 0}


# ------------------------------------------------------------------- sinks
def test_jsonl_sink_round_trips_through_load_and_validate(tmp_path):
    path = tmp_path / "t.jsonl"
    telemetry = configure_telemetry(path=path)
    try:
        with telemetry.span("work", step=1):
            telemetry.add("ops", 7)
        telemetry.gauge("rate", 3.5)
        telemetry.event("milestone", note="done")
    finally:
        telemetry.close()
        reset_telemetry()
    events = load_events(path)
    assert validate_events(events) == []
    kinds = [e["ev"] for e in events]
    assert kinds[0] == "meta"
    assert "span" in kinds and "counter" in kinds and "gauge" in kinds
    assert {e["name"] for e in events if e["ev"] == "counter"} == {"ops"}


@pytest.mark.parametrize("sink_kind", ["jsonl", "memory"])
def test_sinks_keep_every_line_whole_under_concurrent_emitters(tmp_path, sink_kind):
    """Threads emitting spans into one sink (the serve tier's event loop
    and snapshot thread) must never tear or lose a line."""
    threads, spans = 8, 300
    path = tmp_path / "threads.jsonl"
    sink = JsonlSink(path) if sink_kind == "jsonl" else MemorySink()
    telemetry = Telemetry(enabled=True, sink=sink)
    padding = "x" * 2000  # long lines: more bytes per write to tear
    barrier = threading.Barrier(threads)

    def emitter(thread):
        barrier.wait(timeout=30)
        for index in range(spans):
            with telemetry.span("batch", thread=thread, index=index, pad=padding):
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=emitter, args=(t,)) for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    sink.close()
    if sink_kind == "jsonl":
        with open(path, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
    else:
        events = sink.events
    assert validate_events(events) == []
    seen = sorted((e["attrs"]["thread"], e["attrs"]["index"]) for e in events)
    assert seen == [(t, i) for t in range(threads) for i in range(spans)]


def test_validate_events_flags_schema_violations():
    problems = validate_events(
        [
            {"ev": "span", "name": "x", "t": 0.0},  # missing path/depth/...
            {"ev": "nope", "name": "x", "t": 0.0},
            {"ev": "counter", "name": 3, "t": "later", "value": 1},
        ]
    )
    assert len(problems) >= 4


# ------------------------------------------------------- engine instrumentation
def test_enabled_replay_populates_engine_and_substrate_counters():
    telemetry = Telemetry(enabled=True)
    with use_telemetry(telemetry):
        allocator = FirstFitAllocator()
        EngineSession(allocator, []).run(TRACE)
    counters = telemetry.counter_values()
    assert counters["engine.requests"] == len(TRACE)
    assert counters["engine.replays"] == 1
    assert counters["gap_index.policy_queries"] > 0
    assert counters["address_space.audit_probes"] > 0
    assert telemetry.gauge_values()["engine.requests_per_sec"] > 0


def test_engine_abort_emits_abort_event():
    def poisoned():
        yield from TRACE[: len(TRACE) // 2]
        raise RuntimeError("trace went bad")

    sink = MemorySink()
    telemetry = Telemetry(enabled=True, sink=sink)
    with use_telemetry(telemetry):
        with pytest.raises(RuntimeError):
            EngineSession(FirstFitAllocator(), []).run(poisoned())
    aborts = [e for e in sink.events if e["ev"] == "abort"]
    assert len(aborts) == 1
    assert aborts[0]["name"] == "engine.replay"
    assert aborts[0]["error_type"] == "RuntimeError"
    assert "trace went bad" in aborts[0]["error"]


def test_trace_io_counters_and_recorder_write_seconds(tmp_path):
    path = tmp_path / "rec.v3"
    telemetry = Telemetry(enabled=True)
    with use_telemetry(telemetry):
        recorder = TraceRecorderObserver(str(path))
        EngineSession(FirstFitAllocator(), [recorder]).run(TRACE)
    counters = telemetry.counter_values()
    assert counters["trace_io.encode_records"] == len(TRACE)
    assert counters["trace_io.encode_bytes"] == os.path.getsize(path)
    assert counters["trace_recorder.requests"] == len(TRACE)
    assert counters["trace_recorder.write_seconds"] >= 0
    assert recorder.export()["write_seconds"] == round(recorder.write_seconds, 6)


def test_recorder_export_omits_write_seconds_when_telemetry_is_off(tmp_path):
    recorder = TraceRecorderObserver(str(tmp_path / "rec.v3"))
    EngineSession(FirstFitAllocator(), [recorder]).run(TRACE)
    assert "write_seconds" not in recorder.export()


# ----------------------------------------------------------------- resources
def test_resource_record_shapes_and_bounds():
    before = snapshot_resources()
    sum(range(200_000))
    record = resource_record(before, snapshot_resources())
    assert set(record) == {
        "cpu_user_seconds",
        "cpu_system_seconds",
        "cpu_seconds",
        "max_rss_kb",
        "gc_collections",
        "gc_collected",
        "gc_uncollectable",
    }
    assert record["cpu_seconds"] >= 0
    assert record["max_rss_kb"] > 0


# ------------------------------------------------------------- campaign + CLI
SPEC = {
    "name": "obs",
    "seed": 3,
    "workloads": [{"kind": "churn", "requests": 200, "target_live": 25}],
    "allocators": ["first_fit", {"kind": "cost_oblivious", "epsilon": 0.5}],
    "costs": ["linear"],
    "devices": ["ram"],
}


def _write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_records_resources_per_cell(tmp_path, jobs):
    spec = _write_spec(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", str(spec), "--jobs", jobs, "--out", str(out), "--quiet"]) == 0
    document = json.loads((out / "results.json").read_text())
    for record in document["records"]:
        resources = record["resources"]
        assert resources["cpu_seconds"] >= 0
        assert resources["max_rss_kb"] > 0
        # Telemetry was off: no per-cell capture, no profile dumps.
        assert "telemetry" not in record
        assert "profile" not in record


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_telemetry_writes_valid_jsonl_and_reports(tmp_path, capsys, jobs):
    spec = _write_spec(tmp_path)
    out = tmp_path / "out"
    assert (
        main(
            [
                "sweep",
                str(spec),
                "--jobs",
                jobs,
                "--telemetry",
                "--profile",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        == 0
    )
    assert str(out / "telemetry.jsonl") in capsys.readouterr().out

    events = load_events(out / "telemetry.jsonl")
    assert validate_events(events) == []
    cells = {e.get("cell") for e in events if "cell" in e}
    assert len(cells) == 2
    assert any(e["ev"] == "span" and "cell" in e for e in events)
    assert any(e["ev"] == "counter" and "cell" in e for e in events)
    assert any(e["ev"] == "resources" for e in events)
    assert any(e["ev"] == "span" and e["name"] == "sweep.run" for e in events)
    # Each freshly run cell is re-emitted exactly once.
    done = [e["attrs"]["cell"] for e in events if e["name"] == "cell.done"]
    assert sorted(done) == sorted(cells)

    document = json.loads((out / "results.json").read_text())
    for record in document["records"]:
        assert record["telemetry"]["counters"]["engine.requests"] == 200
        assert record["telemetry"]["spans"]
        assert os.path.exists(record["profile"])

    # repro obs report renders span trees, resources, and counter totals.
    assert main(["obs", "report", str(out / "telemetry.jsonl"), "--check"]) == 0
    rendered = capsys.readouterr().out
    assert "top spans by total time" in rendered
    assert "counter totals" in rendered
    assert "--- cell " in rendered
    assert "peak rss" in rendered

    # ... and the sweep report gains the per-cell resource view.
    assert main(["sweep", "report", str(out), "--telemetry"]) == 0
    rendered = capsys.readouterr().out
    assert "per-cell resources" in rendered
    assert "--- telemetry " in rendered


def test_obs_report_check_rejects_malformed_logs(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ev": "span", "name": "x", "t": 0.0}\n')
    assert main(["obs", "report", str(bad), "--check"]) == 1
    assert main(["obs", "report", str(tmp_path / "missing.jsonl")]) == 2


def test_obs_report_renders_cell_filter(tmp_path):
    events = [
        {"ev": "meta", "name": "session", "t": 0.0, "attrs": {"pid": 1}},
        {"ev": "span", "name": "cell", "t": 1.0, "path": "cell", "depth": 0,
         "start": 0.0, "dur": 1.0, "cell": "a"},
        {"ev": "span", "name": "cell", "t": 2.0, "path": "cell", "depth": 0,
         "start": 0.0, "dur": 1.0, "cell": "b"},
    ]
    full = obs_report(events)
    assert "--- cell a ---" in full and "--- cell b ---" in full
    only_a = obs_report(events, cell_filter="a")
    assert "--- cell a ---" in only_a and "--- cell b ---" not in only_a


# -------------------------------------------------------------- bench artifacts
def test_bench_artifact_write_and_format(tmp_path, monkeypatch):
    from benchmarks import bench_artifact

    monkeypatch.setenv("REPRO_BENCH_ARTIFACT_DIR", str(tmp_path))
    bench_artifact.reset_metrics()
    try:
        bench_artifact.record_metric("unit", "elapsed_seconds", 1.25, "seconds")
        bench_artifact.record_metric("unit", "throughput", 4000, "requests/s")
        paths = bench_artifact.write_artifacts()
        assert paths == [str(tmp_path / "BENCH_unit.json")]
        document = json.loads((tmp_path / "BENCH_unit.json").read_text())
        assert document["format"] == "repro-bench-artifact"
        assert document["version"] == 1
        assert document["bench"] == "unit"
        assert document["metrics"]["elapsed_seconds"] == {
            "value": 1.25,
            "unit": "seconds",
        }
        assert document["env"]["python"]
    finally:
        bench_artifact.reset_metrics()
