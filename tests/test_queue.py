"""Tests for the file-backed campaign work queue.

The protocol's contract: any number of workers drain a queue directory
cooperatively, every cell's record lands in the merged artifact exactly
once, and a worker dying at *any* point — holding a lease, mid-journal
line, between journal and dequeue — loses at most the cell it was running
(which re-runs), never a finished record.
"""

import json
import os
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    QueueError,
    claim_cell,
    enqueue_campaign,
    load_results,
    merge_queue,
    read_journal,
    run_campaign,
    work_queue,
)
from repro.campaign.queue import (
    CellJournal,
    journal_dir,
    load_queue_spec,
    results_path,
    worker_token,
)
from repro.cli import main


def queue_spec(cells=4):
    workloads = [
        {"kind": "churn", "requests": 120, "target_live": 20},
        {"kind": "grow_shrink", "requests": 100},
    ][: max(1, cells // 2)]
    return CampaignSpec.from_dict(
        {
            "name": "queued",
            "seed": 9,
            "workloads": workloads,
            "allocators": ["first_fit", {"kind": "cost_oblivious", "epsilon": 0.5}],
            "costs": ["linear"],
        }
    )


def comparable(records):
    """Strip the fields that legitimately differ between runs/workers."""
    stripped = []
    for record in records:
        stripped.append(
            {
                k: v
                for k, v in record.items()
                if k not in ("elapsed_seconds", "resources", "telemetry", "profile", "worker", "resumed")
            }
        )
    return stripped


# -------------------------------------------------------------- the protocol
def test_queue_drain_equals_serial_run(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    assert enqueue_campaign(spec, directory) == 4
    assert load_queue_spec(directory).name == "queued"
    assert work_queue(directory, token="w1") == 4
    merged = merge_queue(directory)
    assert merged.records == 4 and not merged.pending
    assert merged.workers == ["w1"]
    serial = run_campaign(spec)
    assert comparable(merged.document["records"]) == comparable(serial.records)
    # The merged artifact is the canonical results.json.
    assert comparable(load_results(results_path(directory))["records"]) == comparable(
        serial.records
    )


def test_two_workers_split_the_queue_without_overlap(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    enqueue_campaign(spec, directory)
    # Interleave two workers one cell at a time: each claim is an atomic
    # lease create, so no cell is ever run by both.
    executed = {"a": 0, "b": 0}
    while True:
        progressed = 0
        for token in executed:
            n = work_queue(directory, token=token, max_cells=1)
            executed[token] += n
            progressed += n
        if progressed == 0:
            break
    assert executed["a"] + executed["b"] == 4
    assert executed["a"] > 0 and executed["b"] > 0
    merged = merge_queue(directory)
    assert merged.records == 4 and not merged.pending
    cell_ids = [r["cell_id"] for r in merged.document["records"]]
    assert len(cell_ids) == len(set(cell_ids))  # exactly once each


def test_claim_is_exclusive_and_lease_blocks_reclaim(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    enqueue_campaign(spec, directory)
    first = claim_cell(directory, "w1")
    assert first is not None
    cell_name, payload = first
    assert payload["cell_id"]
    # A second claimer skips the leased cell and gets a different one.
    second = claim_cell(directory, "w2")
    assert second is not None and second[0] != cell_name


def test_expired_lease_is_stolen_and_the_cell_runs_exactly_once(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    enqueue_campaign(spec, directory)
    # Worker w1 claims a cell and dies without running it.
    cell_name, _payload = claim_cell(directory, "w1")
    lease = directory / "leases" / f"{cell_name}.lease"
    assert lease.exists()
    # With the lease fresh, a full drain leaves that one cell pending.
    assert work_queue(directory, token="w2") == 3
    partial = merge_queue(directory)
    assert len(partial.pending) == 1
    assert partial.document["interrupted"] is True
    # Backdate the heartbeat past the TTL: the next worker steals the lease
    # and finishes the cell; the merge sees it exactly once.
    past = time.time() - 3600
    os.utime(lease, (past, past))
    assert work_queue(directory, token="w3", lease_ttl=1.0) == 1
    merged = merge_queue(directory)
    assert merged.records == 4 and not merged.pending
    assert "interrupted" not in merged.document
    assert comparable(merged.document["records"]) == comparable(run_campaign(spec).records)


def test_merge_reclaims_expired_leases(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    enqueue_campaign(spec, directory)
    cell_name, _payload = claim_cell(directory, "w1")
    lease = directory / "leases" / f"{cell_name}.lease"
    past = time.time() - 3600
    os.utime(lease, (past, past))
    merged = merge_queue(directory, lease_ttl=1.0)
    assert merged.reclaimed_leases == 1
    assert not lease.exists()
    assert len(merged.pending) == 4  # nothing ran; all cells claimable again


def test_worker_death_between_journal_and_dequeue_deduplicates(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    enqueue_campaign(spec, directory)
    # Simulate the crash window: the record is journaled but the cell was
    # never dequeued, so a second worker re-runs it (status ok both times).
    cell_name, payload = claim_cell(directory, "dead")
    from repro.campaign import run_cell

    record = run_cell(payload)
    record["worker"] = "dead"
    with CellJournal(os.path.join(journal_dir(directory), "dead.jsonl")) as journal:
        journal.append(record)
    lease = directory / "leases" / f"{cell_name}.lease"
    past = time.time() - 3600
    os.utime(lease, (past, past))
    assert work_queue(directory, token="w2", lease_ttl=1.0) == 4  # re-runs it
    merged = merge_queue(directory)
    assert merged.from_journals == 5  # 4 + the duplicate
    assert merged.records == 4  # deduplicated by cell_id
    cell_ids = [r["cell_id"] for r in merged.document["records"]]
    assert len(cell_ids) == len(set(cell_ids))


def test_merge_prefers_ok_records_over_errors(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    enqueue_campaign(spec, directory)
    work_queue(directory, token="w1")
    ok_record = read_journal(os.path.join(journal_dir(directory), "w1.jsonl"))[0][0]
    bad = dict(ok_record)
    bad["status"] = "error"
    bad["error"] = "synthetic"
    with CellJournal(os.path.join(journal_dir(directory), "w0.jsonl")) as journal:
        journal.append(bad)  # sorts before w1.jsonl, so the error is seen first
    merged = merge_queue(directory)
    assert merged.document["errors"] == 0
    record = next(
        r for r in merged.document["records"] if r["cell_id"] == ok_record["cell_id"]
    )
    assert record["status"] == "ok"


def test_truncated_journal_tail_is_skipped(tmp_path):
    path = tmp_path / "w.jsonl"
    with CellJournal(path) as journal:
        journal.append({"cell_id": "a", "status": "ok"})
        journal.append({"cell_id": "b", "status": "ok"})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"cell_id": "c", "stat')  # the crash-truncated tail
    records, skipped = read_journal(path)
    assert [r["cell_id"] for r in records] == ["a", "b"]
    assert skipped == 1


def test_enqueue_refuses_a_live_queue_and_skips_completed_cells(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    enqueue_campaign(spec, directory)
    with pytest.raises(QueueError, match="already holds"):
        enqueue_campaign(spec, directory)
    work_queue(directory, token="w1")
    merge_queue(directory)
    # Re-enqueueing against the merged artifact finds nothing left to do.
    from repro.campaign import completed_records

    completed = completed_records(load_results(results_path(directory)))
    assert enqueue_campaign(spec, directory, completed=completed) == 0


def test_run_campaign_with_two_workers_equals_serial(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    result = run_campaign(spec, jobs=2, directory=directory)
    assert result.jobs == 2 and len(result.records) == 4
    assert not result.metadata["interrupted"]
    assert comparable(result.records) == comparable(run_campaign(spec).records)
    # The merged artifact is in the queue directory, and the sweep's own
    # journals are gone: results.json holds their records.
    assert comparable(load_results(results_path(directory))["records"]) == comparable(
        result.records
    )
    assert os.listdir(journal_dir(directory)) == []


def test_run_campaign_refuses_another_campaigns_queue_and_live_leases(tmp_path):
    spec = queue_spec()
    directory = tmp_path / "q"
    other = CampaignSpec.from_dict(dict(spec.to_dict(), name="other"))
    enqueue_campaign(other, directory)
    with pytest.raises(QueueError, match="already holds 4 pending"):
        run_campaign(spec, directory=directory)
    # The same campaign takes its own pending cells back — unless a live
    # lease shows a worker still draining them.
    cell_name, _payload = claim_cell(directory, "live-worker")
    with pytest.raises(QueueError, match="already holds 4 pending"):
        run_campaign(other, directory=directory)
    past = time.time() - 3600
    os.utime(directory / "leases" / f"{cell_name}.lease", (past, past))
    result = run_campaign(other, directory=directory, lease_ttl=1.0)
    assert len(result.ok_records) == 4


def test_merge_does_not_count_the_resume_journal_as_a_worker(tmp_path):
    spec = queue_spec()
    first = run_campaign(spec)
    completed = {r["cell_id"]: r for r in first.records[1:]}
    directory = tmp_path / "q"
    assert enqueue_campaign(spec, directory, completed=completed) == 1
    assert work_queue(directory, token="w1") == 1
    merged = merge_queue(directory)
    assert merged.workers == ["w1"]
    assert merged.document["jobs"] == 1 and merged.document["resumed"] == 3


def test_work_queue_rejects_a_non_queue_directory(tmp_path):
    with pytest.raises(QueueError, match="not a campaign queue directory"):
        work_queue(tmp_path)
    with pytest.raises(QueueError, match="not a campaign queue directory"):
        merge_queue(tmp_path)


def test_worker_tokens_are_unique():
    assert worker_token() != worker_token()


# --------------------------------------------------------------------- CLI
def write_spec(tmp_path, **overrides):
    raw = {
        "name": "cliq",
        "seed": 3,
        "workloads": [
            {"kind": "churn", "requests": 120, "target_live": 20},
            {"kind": "grow_shrink", "requests": 100},
        ],
        "allocators": ["first_fit", {"kind": "cost_oblivious", "epsilon": 0.5}],
        "costs": ["linear"],
    }
    raw.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_cli_enqueue_work_merge_round_trip(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    directory = tmp_path / "q"
    assert main(["sweep", "enqueue", str(spec_path), str(directory), "--profile"]) == 0
    assert "enqueued 4 cell(s)" in capsys.readouterr().out
    assert main(["sweep", "work", str(directory), "--quiet"]) == 0
    assert "executed 4 cell(s)" in capsys.readouterr().out
    assert main(["sweep", "merge", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "merged 4 record(s)" in out
    assert "pending" not in out
    document = load_results(results_path(directory))
    assert document["cells"] == 4
    assert all(os.path.exists(record["profile"]) for record in document["records"])


def test_cli_sweep_jobs_1_and_2_and_the_queue_subcommands_agree(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    records = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", str(spec_path), "--jobs", jobs, "--out", str(out), "--quiet"]) == 0
        document = load_results(out / "results.json")
        assert document["jobs"] == int(jobs)
        records.append(comparable(document["records"]))
    directory = tmp_path / "q"
    assert main(["sweep", "enqueue", str(spec_path), str(directory)]) == 0
    assert main(["sweep", "work", str(directory), "--quiet"]) == 0
    assert main(["sweep", "merge", str(directory)]) == 0
    capsys.readouterr()
    records.append(comparable(load_results(directory / "results.json")["records"]))
    assert records[0] == records[1] == records[2]
    assert len(records[0]) == 4


def test_cli_queue_subcommands_fail_cleanly(tmp_path, capsys):
    assert main(["sweep", "work", str(tmp_path / "nope")]) == 2
    assert "not a campaign queue directory" in capsys.readouterr().err
    assert main(["sweep", "merge", str(tmp_path)]) == 2
    assert "not a campaign queue directory" in capsys.readouterr().err
    assert main(["sweep", "enqueue", str(tmp_path / "nope.json"), str(tmp_path / "q")]) == 2
    assert "cannot load spec" in capsys.readouterr().err
    assert main(["sweep", "enqueue", str(tmp_path / "nope.json")]) == 2
    assert "usage" in capsys.readouterr().err
    assert main(["sweep", "work"]) == 2
    assert "usage" in capsys.readouterr().err


def test_cli_sweep_rejects_stray_positional(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    assert main(["sweep", str(spec_path), "extra"]) == 2
    assert "unexpected extra argument" in capsys.readouterr().err


def _resume_point(tmp_path, spec_path, errors=(0, 1), stale=()):
    """A finished sweep in ``A`` whose records at ``errors`` are marked
    failed and whose records at ``stale`` carry an older record version."""
    from repro.campaign.executor import RECORD_VERSION

    source = tmp_path / "A"
    assert main(["sweep", str(spec_path), "--out", str(source), "--quiet"]) == 0
    document = json.loads((source / "results.json").read_text(encoding="utf-8"))
    for index in errors:
        document["records"][index]["status"] = "error"
    for index in stale:
        document["records"][index]["record_version"] = RECORD_VERSION - 1
    (source / "results.json").write_text(json.dumps(document), encoding="utf-8")
    return source


def _resumed_artifact(tmp_path, spec_path, source, jobs, capsys):
    out = tmp_path / f"jobs{jobs}"
    argv = ["sweep", str(spec_path), "--jobs", jobs, "--resume", str(source), "--out", str(out)]
    assert main(argv + ["--quiet"]) == 0
    capsys.readouterr()
    document = load_results(out / "results.json")
    assert "interrupted" not in document
    timing = ("elapsed_seconds", "resources", "telemetry", "profile", "worker")
    records = [{k: v for k, v in r.items() if k not in timing} for r in document["records"]]
    return {k: document[k] for k in ("cells", "ok", "errors", "jobs")}, records


def test_resume_into_a_fresh_out_keeps_reused_cells(tmp_path, capsys):
    """A resumed sweep carries the reused records into a new ``--out`` the
    same way whether it drains in this process or over worker processes."""
    spec_path = write_spec(tmp_path)
    source = _resume_point(tmp_path, spec_path)
    serial = _resumed_artifact(tmp_path, spec_path, source, "1", capsys)
    parallel = _resumed_artifact(tmp_path, spec_path, source, "2", capsys)
    assert serial[0] == {"cells": 4, "ok": 4, "errors": 0, "jobs": 1}
    assert parallel[0] == dict(serial[0], jobs=2)
    assert parallel[1] == serial[1]
    assert [bool(r.get("resumed")) for r in parallel[1]] == [False, False, True, True]


def test_resume_reruns_records_of_an_older_record_version(tmp_path, capsys):
    from repro.campaign.executor import RECORD_VERSION

    spec_path = write_spec(tmp_path)
    source = _resume_point(tmp_path, spec_path, errors=(0,), stale=(2,))
    serial = _resumed_artifact(tmp_path, spec_path, source, "1", capsys)
    parallel = _resumed_artifact(tmp_path, spec_path, source, "2", capsys)
    assert parallel[1] == serial[1]
    assert [bool(r.get("resumed")) for r in parallel[1]] == [False, True, False, True]
    assert {r["record_version"] for r in parallel[1]} == {RECORD_VERSION}


def test_resume_with_one_cell_to_run_writes_jobs_1(tmp_path, capsys):
    """``--jobs 2`` with a single cell left starts one worker, and the
    merge does not count the resume journal as a second one."""
    spec_path = write_spec(tmp_path)
    source = _resume_point(tmp_path, spec_path, errors=(1,))
    summary, records = _resumed_artifact(tmp_path, spec_path, source, "2", capsys)
    assert summary == {"cells": 4, "ok": 4, "errors": 0, "jobs": 1}
    assert [bool(r.get("resumed")) for r in records] == [True, False, True, True]


def test_in_place_resume_reruns_a_stale_record(tmp_path, capsys):
    from repro.campaign.executor import RECORD_VERSION

    spec_path = write_spec(tmp_path)
    source = _resume_point(tmp_path, spec_path, errors=(), stale=(2,))
    argv = ["sweep", str(spec_path), "--jobs", "2", "--resume", str(source), "--quiet"]
    assert main(argv) == 0
    assert "resumed: 3 cell(s)" in capsys.readouterr().out
    document = load_results(source / "results.json")
    assert [r["record_version"] for r in document["records"]] == [RECORD_VERSION] * 4
    assert [bool(r.get("resumed")) for r in document["records"]] == [True, True, False, True]


def test_queued_in_place_resume_merges_the_rerun_not_the_stale_record(tmp_path, capsys):
    """``sweep enqueue`` into a merged queue whose record 2 is stale re-runs
    that cell; the merge must keep the re-run, not the stale record that
    ``results.json`` (read before the journals) still holds."""
    from repro.campaign.executor import RECORD_VERSION

    spec_path = write_spec(tmp_path)
    directory = tmp_path / "q"
    assert main(["sweep", "enqueue", str(spec_path), str(directory)]) == 0
    assert main(["sweep", "work", str(directory), "--quiet"]) == 0
    assert main(["sweep", "merge", str(directory)]) == 0
    document = json.loads((directory / "results.json").read_text(encoding="utf-8"))
    document["records"][2]["record_version"] = RECORD_VERSION - 1
    (directory / "results.json").write_text(json.dumps(document), encoding="utf-8")
    assert main(["sweep", "enqueue", str(spec_path), str(directory)]) == 0
    assert "enqueued 1 cell(s)" in capsys.readouterr().out
    assert main(["sweep", "work", str(directory), "--quiet"]) == 0
    assert main(["sweep", "merge", str(directory)]) == 0
    merged = load_results(directory / "results.json")
    assert [r["record_version"] for r in merged["records"]] == [RECORD_VERSION] * 4
