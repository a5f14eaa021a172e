"""Campaign engine: serial vs parallel sweep wall-clock.

Times the same campaign matrix once drained in-process and once over worker
processes and prints the speedup, tracking how well the sweep scales with
``--jobs``.  The quick run uses a small matrix; ``REPRO_BENCH_FULL=1`` sweeps
a 100k-request campaign per cell, where the process start-up and queue
overhead is negligible and the speedup approaches the machine's core count.
"""

import os
import time

from benchmarks.bench_artifact import record_metric
from repro.campaign import CampaignSpec, campaign_to_dict, document_table, run_campaign
from repro.metrics.report import ascii_table


def _spec(quick: bool) -> CampaignSpec:
    requests = 4000 if quick else 100_000
    return CampaignSpec.from_dict(
        {
            "name": "bench",
            "seed": 17,
            "workloads": [
                {"kind": "churn", "requests": requests, "target_live": 150},
                {"kind": "database", "requests": requests},
            ],
            "allocators": [
                {"kind": "cost_oblivious", "epsilon": 0.25},
                "first_fit",
            ],
            "costs": ["linear"],
            "devices": ["ram"],
        }
    )


def test_campaign_parallel_speedup(benchmark, quick_mode):
    spec = _spec(quick_mode)
    jobs = max(2, min(4, os.cpu_count() or 1))

    started = time.perf_counter()
    serial = run_campaign(spec, jobs=1)
    serial_elapsed = time.perf_counter() - started

    parallel = benchmark.pedantic(
        run_campaign, args=(spec,), kwargs={"jobs": jobs}, rounds=1, iterations=1
    )

    print()
    print(document_table(campaign_to_dict(parallel)).to_text())
    print()
    print(
        ascii_table(
            ["mode", "jobs", "cells", "wall-clock s", "speedup"],
            [
                ["serial", 1, len(serial.records), round(serial_elapsed, 2), 1.0],
                [
                    "parallel",
                    parallel.jobs,
                    len(parallel.records),
                    round(parallel.elapsed_seconds, 2),
                    round(serial_elapsed / max(parallel.elapsed_seconds, 1e-9), 2),
                ],
            ],
            title="campaign sweep: serial vs parallel",
        )
    )

    record_metric("campaign", "serial_elapsed_seconds", round(serial_elapsed, 6), "seconds")
    record_metric(
        "campaign", "parallel_elapsed_seconds", round(parallel.elapsed_seconds, 6), "seconds"
    )
    record_metric(
        "campaign",
        "parallel_speedup",
        round(serial_elapsed / max(parallel.elapsed_seconds, 1e-9), 3),
        "ratio",
    )

    def strip(records):
        # Timings and the token of the worker process that ran each cell.
        nondeterministic = ("elapsed_seconds", "resources", "telemetry", "profile", "worker")
        return [
            {k: v for k, v in record.items() if k not in nondeterministic}
            for record in records
        ]

    assert strip(parallel.records) == strip(serial.records)
    assert all(record["status"] == "ok" for record in parallel.records)
    # Wall-clock speedup needs real cores and long enough cells to amortise
    # the worker start-up; only assert it on the full-size run.
    if not quick_mode and (os.cpu_count() or 1) > 1:
        assert parallel.elapsed_seconds < serial_elapsed


def test_disabled_fault_injection_overhead_within_2_percent(tmp_path):
    """The ISSUE 9 guard: with ``repro.faults`` importable but *disarmed*,
    the journal append hot path (the queue's per-cell durability write,
    which carries two fault hooks) must stay within 2% of the identical
    code with the hooks stripped.  Same methodology as the telemetry
    guard in bench_engine: single ~10ms timings swing several percent on
    a loaded runner, so the assertion is on the *minimum paired ratio*
    over 9 interleaved rounds — only genuine per-append overhead can hold
    every pair above 2%."""
    import json as _json

    from repro.campaign.queue import CellJournal
    from repro.faults import deactivate_faults, fault_point

    deactivate_faults()
    record = {
        "index": 3,
        "cell_id": "churn,requests=4000/first_fit/linear/ram",
        "status": "ok",
        "max_footprint": 4096,
        "max_footprint_ratio": 1.31,
        "cost_ratio": 1.25,
        "total_moves": 210,
        "elapsed_seconds": 0.01,
    }
    appends = 300

    def hooked() -> float:
        path = tmp_path / "hooked.jsonl"
        with CellJournal(path) as journal:
            started = time.perf_counter()
            for _ in range(appends):
                journal.append(record)
            elapsed = time.perf_counter() - started
        path.unlink()
        return elapsed

    def raw() -> float:
        # CellJournal.append with the two fault hooks removed and nothing
        # else changed: same dumps/tell/write/flush/fsync per line.
        path = tmp_path / "raw.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            started = time.perf_counter()
            for _ in range(appends):
                line = _json.dumps(record, sort_keys=True, separators=(",", ":"))
                start = handle.tell()
                try:
                    handle.write(line + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                except OSError:
                    handle.truncate(start)
                    raise
            elapsed = time.perf_counter() - started
        path.unlink()
        return elapsed

    best_ratio = float("inf")
    hooked_best = raw_best = float("inf")
    for _ in range(9):
        baseline = raw()
        measured = hooked()
        best_ratio = min(best_ratio, measured / baseline)
        raw_best = min(raw_best, baseline)
        hooked_best = min(hooked_best, measured)

    # The bare hook, disarmed, is one global load plus a None test.
    calls = 200_000
    started = time.perf_counter()
    for _ in range(calls):
        fault_point("queue.journal.append")
    ns_per_call = (time.perf_counter() - started) / calls * 1e9

    record_metric(
        "campaign", "journal_append_faults_off_seconds", round(hooked_best, 6), "seconds"
    )
    record_metric(
        "campaign", "journal_append_no_hooks_seconds", round(raw_best, 6), "seconds"
    )
    record_metric(
        "campaign",
        "faults_off_best_overhead_ratio",
        round(best_ratio, 4),
        "ratio",
    )
    record_metric(
        "campaign", "fault_point_disarmed_ns_per_call", round(ns_per_call, 1), "ns"
    )
    assert best_ratio <= 1.02, (
        f"journal appends with fault injection disarmed are more than 2% "
        f"slower than the hook-free equivalent in every one of 9 paired "
        f"rounds (best ratio {best_ratio:.4f})"
    )
