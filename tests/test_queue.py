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
    run_queue_sweep,
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


def test_run_queue_sweep_equals_serial(tmp_path):
    spec = queue_spec()
    merged = run_queue_sweep(spec, tmp_path / "q", workers=2)
    assert merged.records == 4 and not merged.pending
    assert len(merged.workers) == 2
    serial = run_campaign(spec)
    assert comparable(merged.document["records"]) == comparable(serial.records)


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
    assert main(["sweep", "enqueue", str(spec_path), str(directory)]) == 0
    assert "enqueued 4 cell(s)" in capsys.readouterr().out
    assert main(["sweep", "work", str(directory), "--quiet"]) == 0
    assert "executed 4 cell(s)" in capsys.readouterr().out
    assert main(["sweep", "merge", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "merged 4 record(s)" in out
    assert "pending" not in out
    assert load_results(results_path(directory))["cells"] == 4


def test_cli_sweep_workers_matches_serial_artifact(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    serial_dir, queue_dir = tmp_path / "serial", tmp_path / "queued"
    assert main(["sweep", str(spec_path), "--out", str(serial_dir), "--quiet"]) == 0
    assert (
        main(["sweep", str(spec_path), "--workers", "2", "--out", str(queue_dir), "--quiet"])
        == 0
    )
    assert "queue: 4 record(s)" in capsys.readouterr().out
    serial = load_results(serial_dir / "results.json")
    queued = load_results(queue_dir / "results.json")
    assert comparable(serial["records"]) == comparable(queued["records"])


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


def _resumed_artifact(tmp_path, spec_path, source, mode, capsys):
    out = tmp_path / mode
    flag = "--jobs" if mode == "jobs" else "--workers"
    argv = ["sweep", str(spec_path), flag, "2", "--resume", str(source), "--out", str(out)]
    assert main(argv + ["--quiet"]) == 0
    capsys.readouterr()
    document = load_results(out / "results.json")
    assert "interrupted" not in document
    timing = ("elapsed_seconds", "resources", "telemetry", "profile", "worker")
    records = [{k: v for k, v in r.items() if k not in timing} for r in document["records"]]
    return {k: document[k] for k in ("cells", "ok", "errors")}, records


def test_resume_into_a_fresh_out_keeps_reused_cells_on_both_paths(tmp_path, capsys):
    """A resumed sweep carries the reused records into a new ``--out`` the
    same way whether it runs over a pool or a work queue."""
    spec_path = write_spec(tmp_path)
    source = _resume_point(tmp_path, spec_path)
    pooled = _resumed_artifact(tmp_path, spec_path, source, "jobs", capsys)
    queued = _resumed_artifact(tmp_path, spec_path, source, "workers", capsys)
    assert pooled[0] == {"cells": 4, "ok": 4, "errors": 0}
    assert queued == pooled
    assert [bool(r.get("resumed")) for r in queued[1]] == [False, False, True, True]


def test_resume_reruns_records_of_an_older_record_version_on_both_paths(tmp_path, capsys):
    from repro.campaign.executor import RECORD_VERSION

    spec_path = write_spec(tmp_path)
    source = _resume_point(tmp_path, spec_path, errors=(0,), stale=(2,))
    pooled = _resumed_artifact(tmp_path, spec_path, source, "jobs", capsys)
    queued = _resumed_artifact(tmp_path, spec_path, source, "workers", capsys)
    assert queued == pooled
    assert [bool(r.get("resumed")) for r in queued[1]] == [False, True, False, True]
    assert {r["record_version"] for r in queued[1]} == {RECORD_VERSION}
