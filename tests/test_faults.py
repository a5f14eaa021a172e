"""Tests for deterministic fault injection, retry/backoff, and hardening.

Unit-level coverage of ``repro.faults`` (plans, the injector, the retry
policy, the injectable lease clock) plus the queue/artifact hardening that
rides on it: torn journal lines never corrupt neighbours, a worker that
cannot journal gives its cell back, leases survive clock skew within the
tolerance, and a crash between journal and dequeue costs nothing (the
merge dedups).  The end-to-end chaos schedules live in test_chaos.py.
"""

import errno
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    claim_cell,
    enqueue_campaign,
    merge_queue,
    read_journal,
    work_queue,
)
from repro.campaign.artifacts import atomic_write
from repro.campaign.queue import (
    CellJournal,
    _LeaseHeartbeat,
    journal_dir,
    release_lease,
)
from repro.cli import main
from repro.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    RetryPolicy,
    SITES,
    activate_plan,
    deactivate_faults,
    fault_point,
    fault_write,
    get_clock,
    inject,
)
from repro.obs import MemorySink, Telemetry, obs_report, use_telemetry


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    """Injection is process-global: always disarm (and unskew) after a test."""
    yield
    deactivate_faults()


def plan(*rules, seed=0):
    return FaultPlan(rules=list(rules), seed=seed)


# ----------------------------------------------------------------- fault plans
def test_plan_json_round_trip(tmp_path):
    original = plan(
        FaultRule(site="queue.journal.*", action="torn", times=2, torn_bytes=7),
        FaultRule(site="artifact.write.fsync", action="raise", error="ENOSPC", after=1),
        seed=42,
    )
    path = tmp_path / "plan.json"
    original.to_json(path)
    loaded = FaultPlan.from_json(path)
    assert loaded == original
    assert loaded.to_dict() == original.to_dict()


@pytest.mark.parametrize(
    "raw, match",
    [
        ({"site": "x", "action": "explode"}, "unknown fault action"),
        ({"site": "x", "error": "ENOTANERRNO"}, "unknown errno"),
        ({"site": "x", "after": -1}, "'after' must be"),
        ({"site": "x", "times": 0}, "'times' must be"),
        ({"site": "x", "probability": 1.5}, "'probability' must be"),
        ({"site": "x", "frequency": 2}, "unknown fault rule field"),
        ({"action": "raise"}, "need a 'site'"),
    ],
)
def test_bad_rules_are_rejected(raw, match):
    with pytest.raises(FaultPlanError, match=match):
        FaultRule.from_dict(raw)


def test_bad_plan_files_are_rejected(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(FaultPlanError, match="cannot read fault plan"):
        FaultPlan.from_json(missing)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    with pytest.raises(FaultPlanError, match="not valid JSON"):
        FaultPlan.from_json(garbage)
    with pytest.raises(FaultPlanError, match="unknown fault plan field"):
        FaultPlan.from_dict({"seed": 0, "rules": [], "mystery": True})


def test_every_documented_site_has_a_description():
    assert len(SITES) >= 14
    for site, description in SITES.items():
        layer, _, rest = site.partition(".")
        assert layer and rest, site
        assert description


# ------------------------------------------------------------------ injection
def test_disabled_faults_are_no_ops():
    fault_point("queue.lease.claim")  # must not raise
    buffer = io.BytesIO()
    fault_write("trace.write.block", buffer, b"payload")
    assert buffer.getvalue() == b"payload"


def test_raise_action_fires_exactly_times_then_disarms():
    with inject(plan(FaultRule(site="queue.lease.claim", times=2))) as injector:
        for _ in range(2):
            with pytest.raises(OSError) as caught:
                fault_point("queue.lease.claim")
            assert caught.value.errno == errno.EIO
            assert "queue.lease.claim" in str(caught.value)
        fault_point("queue.lease.claim")  # exhausted: back to a no-op
        fault_point("queue.dequeue")  # other sites never matched
        assert len(injector.fired) == 2
        assert injector.hits["queue.lease.claim"] == 3


def test_after_skips_matching_hits_and_globs_match_sites():
    armed = plan(FaultRule(site="queue.journal.*", after=2, error="ENOSPC"))
    with inject(armed) as injector:
        fault_point("queue.journal.append")
        fault_point("queue.journal.fsync")
        with pytest.raises(OSError) as caught:
            fault_point("queue.journal.append")
        assert caught.value.errno == errno.ENOSPC
        assert [f["site"] for f in injector.fired] == ["queue.journal.append"]


def test_probability_schedule_is_deterministic_per_seed():
    def schedule(seed):
        fired = []
        with inject(
            plan(FaultRule(site="s", probability=0.5, times=None), seed=seed)
        ):
            for index in range(30):
                try:
                    fault_point("s")
                except OSError:
                    fired.append(index)
        return fired

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)


def test_skew_action_shifts_the_lease_clock_and_deactivate_resets_it():
    before = time.time()
    with inject(plan(FaultRule(site="queue.lease.heartbeat", action="skew", skew_seconds=300.0))):
        fault_point("queue.lease.heartbeat")
        assert get_clock().now() - before > 250
    assert abs(get_clock().now() - time.time()) < 5


def test_torn_write_leaves_a_prefix_then_raises():
    buffer = io.BytesIO()
    with inject(plan(FaultRule(site="w", action="torn"))):
        with pytest.raises(OSError):
            fault_write("w", buffer, b"0123456789")
    assert buffer.getvalue() == b"01234"  # default: half the payload
    buffer = io.BytesIO()
    with inject(plan(FaultRule(site="w", action="torn", torn_bytes=3))):
        with pytest.raises(OSError):
            fault_write("w", buffer, b"0123456789")
    assert buffer.getvalue() == b"012"


def test_injected_faults_are_telemetry_events():
    sink = MemorySink()
    telemetry = Telemetry(enabled=True, sink=sink)
    with use_telemetry(telemetry):
        with inject(plan(FaultRule(site="queue.dequeue"))):
            with pytest.raises(OSError):
                fault_point("queue.dequeue")
        telemetry.flush()
    events = [e for e in sink.events if e["ev"] == "event" and e["name"] == "fault.injected"]
    assert len(events) == 1
    assert events[0]["attrs"]["site"] == "queue.dequeue"
    assert events[0]["attrs"]["action"] == "raise"
    assert events[0]["attrs"]["pid"] == os.getpid()
    counters = {e["name"]: e["value"] for e in sink.events if e["ev"] == "counter"}
    assert counters["faults.injected"] == 1


def test_env_var_arms_fault_plan_in_fresh_processes(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan(FaultRule(site="queue.dequeue")).to_json(plan_path)
    script = (
        "from repro.faults import get_injector;"
        "import sys;"
        "sys.exit(0 if get_injector() is not None else 3)"
    )
    env = dict(os.environ, REPRO_FAULTS=str(plan_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH")) if p
    )
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0
    env["REPRO_FAULTS"] = str(tmp_path / "missing.json")
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 3  # activation failed, import survived
    assert "cannot activate REPRO_FAULTS" in result.stderr


# --------------------------------------------------------------- retry policy
def test_retry_policy_survives_transient_errors_and_counts_them():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError(errno.EIO, "transient")
        return "done"

    sink = MemorySink()
    telemetry = Telemetry(enabled=True, sink=sink)
    naps = []
    with use_telemetry(telemetry):
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, seed=1)
        assert policy.call(flaky, sleep=naps.append) == "done"
        telemetry.flush()
    assert len(attempts) == 3 and len(naps) == 2
    counters = {e["name"]: e["value"] for e in sink.events if e["ev"] == "counter"}
    assert counters["faults.retries"] == 2
    assert counters["faults.backoff_seconds"] == pytest.approx(sum(naps))


def test_retry_policy_exhaustion_raises_the_real_error():
    def always():
        raise OSError(errno.ENOSPC, "disk full")

    with pytest.raises(OSError, match="disk full"):
        RetryPolicy(max_attempts=3, base_delay=0.001).call(always, sleep=lambda _: None)


def test_retry_policy_does_not_retry_unlisted_exceptions():
    calls = []

    def typed():
        calls.append(1)
        raise ValueError("not an OSError")

    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=5).call(typed, sleep=lambda _: None)
    assert len(calls) == 1


def test_retry_delays_are_bounded_jittered_and_seeded():
    policy = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=0.5, jitter=0.5, seed=3)
    first, second = list(policy.delays()), list(policy.delays())
    assert first == second  # same seed, same schedule
    assert len(first) == 5
    assert all(0.1 <= delay <= 0.5 for delay in first)
    assert first[0] < first[-1]  # it does back off


def test_retry_policy_rejects_nonsense():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)


# ----------------------------------------------------- queue hardening: journal
RECORD = {"cell_id": "cell-a", "status": "ok", "value": 1}


def test_torn_journal_line_is_rolled_back_and_retried_cleanly(tmp_path):
    path = tmp_path / "w.jsonl"
    with CellJournal(path) as journal:
        journal.append(RECORD)
        with inject(plan(FaultRule(site="queue.journal.append", action="torn"))):
            with pytest.raises(OSError):
                journal.append({"cell_id": "cell-b", "status": "ok"})
        journal.append({"cell_id": "cell-b", "status": "ok", "retried": True})
    records, skipped = read_journal(path)
    assert [r["cell_id"] for r in records] == ["cell-a", "cell-b"]
    assert records[1]["retried"] is True
    assert skipped == 0


def test_fsync_fault_keeps_the_journal_line_boundary(tmp_path):
    path = tmp_path / "w.jsonl"
    with CellJournal(path) as journal:
        with inject(plan(FaultRule(site="queue.journal.fsync"))):
            with pytest.raises(OSError):
                journal.append(RECORD)
        journal.append({"cell_id": "cell-b", "status": "ok"})
    records, skipped = read_journal(path)
    # The torn first line may or may not survive its rollback, but the
    # retried record must parse on its own line either way.
    assert records[-1]["cell_id"] == "cell-b"
    assert all("\n" not in json.dumps(r) for r in records)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cut=st.integers(min_value=0, max_value=400),
    garbage=st.binary(max_size=40),
    n_records=st.integers(min_value=0, max_value=5),
)
def test_read_journal_recovers_complete_records_under_any_truncation(
    tmp_path, cut, garbage, n_records
):
    """Property: byte-level corruption costs at most the lines it touches."""
    path = tmp_path / f"j-{cut}-{len(garbage)}-{n_records}.jsonl"
    records = [{"cell_id": f"cell-{i}", "status": "ok", "i": i} for i in range(n_records)]
    with CellJournal(path) as journal:
        for record in records:
            journal.append(record)
    data = path.read_bytes() if path.exists() else b""
    cut = min(cut, len(data))
    path.write_bytes(data[:cut] + garbage)

    recovered, _skipped = read_journal(path)  # must never raise
    survivors = []
    offset = 0
    for record in records:
        offset = data.index(b"\n", offset) + 1
        if offset <= cut:
            survivors.append(record["cell_id"])
    recovered_ids = [r["cell_id"] for r in recovered]
    # Every record whose full line precedes the cut is recovered, in order
    # (garbage may coincidentally add lines, never remove these).
    assert [i for i in recovered_ids if i in survivors] == survivors


# ------------------------------------------------- queue hardening: the worker
def small_spec(cells=2):
    workloads = [
        {"kind": "churn", "requests": 60, "target_live": 12},
        {"kind": "grow_shrink", "requests": 50},
    ][: max(1, cells)]
    return CampaignSpec.from_dict(
        {
            "name": "faulty",
            "seed": 11,
            "workloads": workloads,
            "allocators": ["first_fit"],
            "costs": ["linear"],
        }
    )


FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.005, seed=0)


def test_worker_retries_through_transient_claim_faults(tmp_path):
    directory = tmp_path / "q"
    enqueue_campaign(small_spec(), directory)
    with inject(plan(FaultRule(site="queue.lease.claim", times=2))):
        assert work_queue(directory, token="w1", retry=FAST_RETRY) == 2
    merged = merge_queue(directory)
    assert merged.records == 2 and not merged.pending


def test_worker_that_cannot_journal_releases_the_cell_and_stops(tmp_path):
    directory = tmp_path / "q"
    enqueue_campaign(small_spec(), directory)
    sink = MemorySink()
    telemetry = Telemetry(enabled=True, sink=sink)
    with use_telemetry(telemetry):
        # Every journal append fails, forever: the worker must give each
        # cell back and stop after MAX_CONSECUTIVE_WORKER_ERRORS strikes.
        with inject(plan(FaultRule(site="queue.journal.append", times=None))):
            assert work_queue(directory, token="w1", retry=FAST_RETRY) == 0
    assert os.listdir(os.path.join(directory, "leases")) == []  # all released
    errors = [
        e for e in sink.events if e["ev"] == "event" and e["name"] == "queue.worker_error"
    ]
    assert errors and all(e["attrs"]["stage"] == "journal" for e in errors)
    # The queue is not poisoned: a healthy worker drains everything.
    assert work_queue(directory, token="w2") == 2
    merged = merge_queue(directory)
    assert merged.records == 2 and not merged.pending


def test_heartbeat_refreshes_the_lease_mtime(tmp_path):
    directory = tmp_path / "q"
    enqueue_campaign(small_spec(1), directory)
    claimed = claim_cell(directory, "w1")
    assert claimed is not None
    cell_name, _ = claimed
    lease = os.path.join(directory, "leases", f"{cell_name}.lease")
    stale = time.time() - 1000
    os.utime(lease, (stale, stale))
    heartbeat = _LeaseHeartbeat(lease, interval=0.05).start()
    try:
        deadline = time.time() + 5.0
        while os.stat(lease).st_mtime < stale + 500 and time.time() < deadline:
            time.sleep(0.02)
    finally:
        heartbeat.stop()
    assert time.time() - os.stat(lease).st_mtime < 60
    release_lease(directory, cell_name)


def test_lease_expiry_tolerates_clock_skew_within_the_window(tmp_path):
    directory = tmp_path / "q"
    enqueue_campaign(small_spec(1), directory)
    cell_name, _ = claim_cell(directory, "owner", lease_ttl=60)
    lease = os.path.join(directory, "leases", f"{cell_name}.lease")
    # Aged past the TTL but within the skew tolerance: still the owner's.
    aged = time.time() - 62
    os.utime(lease, (aged, aged))
    assert claim_cell(directory, "thief", lease_ttl=60, skew_tolerance=5.0) is None
    # Aged past TTL + tolerance: stolen.
    aged = time.time() - 70
    os.utime(lease, (aged, aged))
    stolen = claim_cell(directory, "thief", lease_ttl=60, skew_tolerance=5.0)
    assert stolen is not None and stolen[0] == cell_name


def test_skewed_clock_is_what_lease_ages_are_measured_with(tmp_path):
    directory = tmp_path / "q"
    enqueue_campaign(small_spec(1), directory)
    cell_name, _ = claim_cell(directory, "owner", lease_ttl=60)
    try:
        # A fresh lease looks ancient to a worker whose clock runs fast.
        get_clock().skew(1000.0)
        stolen = claim_cell(directory, "fast-clock", lease_ttl=60, skew_tolerance=5.0)
        assert stolen is not None and stolen[0] == cell_name
    finally:
        deactivate_faults()


def test_crash_between_journal_and_dequeue_never_duplicates_records(tmp_path):
    """The at-least-once + dedup contract under the worst-case cut."""
    directory = tmp_path / "q"
    spec = small_spec()
    enqueue_campaign(spec, directory)
    crash = plan(FaultRule(site="queue.dequeue", action="crash"))
    process = multiprocessing.get_context().Process(
        target=_crashing_worker, args=(str(directory), crash.to_dict())
    )
    process.start()
    process.join()
    assert process.exitcode == CRASH_EXIT_CODE
    # The dead worker journaled its record but never dequeued the cell.
    journals = [
        read_journal(os.path.join(journal_dir(directory), name))[0]
        for name in os.listdir(journal_dir(directory))
    ]
    assert sum(len(records) for records in journals) == 1
    for name in os.listdir(os.path.join(directory, "leases")):
        release_lease(directory, name[: -len(".lease")])  # no TTL waits in tests
    assert work_queue(directory, token="w2") >= 1
    merged = merge_queue(directory)
    assert merged.records == 2 and not merged.pending
    cell_ids = [record["cell_id"] for record in merged.document["records"]]
    assert len(cell_ids) == len(set(cell_ids)) == 2


def _crashing_worker(directory, plan_dict):
    activate_plan(FaultPlan.from_dict(plan_dict))
    work_queue(directory, token="w1")


def test_cell_timeout_turns_overruns_into_typed_error_records(tmp_path):
    directory = tmp_path / "q"
    enqueue_campaign(small_spec(1), directory)
    # A timeout so small every real cell overruns: the watchdog must
    # terminate the child and journal a typed record, not hang or die.
    executed = work_queue(directory, token="w1", cell_timeout=0.0001)
    assert executed == 1
    merged = merge_queue(directory)
    record = merged.document["records"][0]
    assert record["status"] == "error"
    assert record["error_kind"] in ("worker_timeout", "worker_crash")
    assert "timeout" in record["error"] or "died" in record["error"]


def test_a_late_record_already_in_the_pipe_is_still_an_overrun(tmp_path, monkeypatch):
    """The watchdog judges a cell by when its child finished, not by what
    the pipe holds once the parent looks.  Here the parent reaches its
    ``poll`` only after the child has finished, as a parent descheduled
    right after ``start()`` would: the record is waiting, yet it is late."""
    directory = tmp_path / "q"
    enqueue_campaign(small_spec(1), directory)
    start = multiprocessing.Process.start

    def start_and_wait_for_the_child(self):
        start(self)
        self.join(timeout=60)  # the small record fits the pipe: the child exits

    monkeypatch.setattr(multiprocessing.Process, "start", start_and_wait_for_the_child)
    assert work_queue(directory, token="w1", cell_timeout=0.0001) == 1
    record = merge_queue(directory).document["records"][0]
    assert record["error_kind"] == "worker_timeout"
    assert "0.0001s cell timeout" in record["error"]
    assert record["elapsed_seconds"] > 0.0001


def test_a_timed_out_cell_reports_the_time_it_held_its_worker(tmp_path):
    directory = tmp_path / "q"
    spec = CampaignSpec.from_dict(
        {
            "name": "slow",
            "seed": 11,
            "workloads": [{"kind": "churn", "requests": 200_000, "target_live": 400}],
            "allocators": [{"kind": "cost_oblivious", "epsilon": 0.25}],
            "costs": ["linear"],
        }
    )
    enqueue_campaign(spec, directory)
    # Seconds of work against a 0.3 s watchdog: the cell is always cut.
    assert work_queue(directory, token="w1", cell_timeout=0.3) == 1
    merged = merge_queue(directory)
    record = merged.document["records"][0]
    assert record["error_kind"] == "worker_timeout"
    assert record["elapsed_seconds"] >= 0.3
    assert merged.document["elapsed_seconds"] >= 0.3


# ------------------------------------------------------- artifact write faults
def test_atomic_write_faults_leave_no_tmp_and_keep_the_old_artifact(tmp_path):
    target = tmp_path / "results.json"
    atomic_write(target, lambda handle: handle.write('{"version": 1}'))
    for site in ("artifact.write.body", "artifact.write.fsync", "artifact.write.replace"):
        with inject(plan(FaultRule(site=site))):
            with pytest.raises(OSError):
                atomic_write(target, lambda handle: handle.write('{"version": 2}'))
        assert json.loads(target.read_text()) == {"version": 1}
        assert list(tmp_path.glob("*.tmp")) == []
    atomic_write(target, lambda handle: handle.write('{"version": 2}'))
    assert json.loads(target.read_text()) == {"version": 2}


# ------------------------------------------------------------------ obs report
def test_obs_report_renders_the_fault_section():
    events = [
        {"ev": "event", "name": "fault.injected", "t": 1.0,
         "attrs": {"site": "queue.dequeue", "action": "crash", "pid": 41}},
        {"ev": "event", "name": "fault.injected", "t": 2.0,
         "attrs": {"site": "queue.dequeue", "action": "crash", "pid": 42}},
        {"ev": "event", "name": "queue.worker_error", "t": 3.0,
         "attrs": {"worker": "w-9", "stage": "journal", "error": "injected"}},
        {"ev": "counter", "name": "faults.retries", "t": 4.0, "value": 3},
        {"ev": "counter", "name": "faults.backoff_seconds", "t": 4.0, "value": 0.25},
    ]
    text = obs_report(events)
    assert "fault injection: 2 fault(s) fired" in text
    assert "queue.dequeue crash x2 (pid 41, 42)" in text
    assert "worker w-9: gave up at journal x1" in text
    assert "3 retries" in text


def test_obs_report_without_faults_has_no_fault_section():
    assert "fault injection" not in obs_report(
        [{"ev": "counter", "name": "engine.requests", "t": 1.0, "value": 5}]
    )


# ------------------------------------------------------------------------ CLI
def test_cli_chaos_sites_lists_every_site(capsys):
    assert main(["chaos", "sites"]) == 0
    out = capsys.readouterr().out
    for site in SITES:
        assert site in out


def test_cli_chaos_rejects_bad_input(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(small_spec().to_dict()), encoding="utf-8"
    )
    assert main(["chaos"]) == 2
    assert "choose a subcommand" in capsys.readouterr().err
    assert main(["chaos", "sweep", str(tmp_path / "nope.json")]) == 2
    assert "cannot load spec" in capsys.readouterr().err
    assert main(["chaos", "sweep", str(spec_path)]) == 2
    assert "nothing to run" in capsys.readouterr().err
    assert main(["chaos", "sweep", str(spec_path), "--sites", "no.such.site", "--seeds", "1"]) == 2
    assert "no fault site matches" in capsys.readouterr().err
    bad_plan = tmp_path / "plan.json"
    bad_plan.write_text('{"rules": [{"site": "x", "action": "explode"}]}', encoding="utf-8")
    assert main(["chaos", "sweep", str(spec_path), "--faults", str(bad_plan)]) == 2
    assert "unknown fault action" in capsys.readouterr().err


def test_cli_enqueue_onto_a_file_fails_cleanly(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(small_spec().to_dict()), encoding="utf-8")
    blocker = tmp_path / "blocker"
    blocker.write_text("I am a file", encoding="utf-8")
    assert main(["sweep", "enqueue", str(spec_path), str(blocker)]) == 2
    err = capsys.readouterr().err
    assert "repro sweep enqueue:" in err and str(blocker) in err
    assert main(["sweep", "work", str(blocker)]) == 2
    assert "not a campaign queue directory" in capsys.readouterr().err
    assert main(["sweep", "merge", str(blocker)]) == 2
    assert "not a campaign queue directory" in capsys.readouterr().err
