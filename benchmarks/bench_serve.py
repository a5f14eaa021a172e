"""Saturation benchmark for the live allocation service (``repro serve``).

The acceptance guard of ISSUE 10: 8 concurrent clients against one server
process must sustain at least **50%** of single-process batch-replay
throughput for the same total workload — while every session is durably
recorded (each ack only lands after the applied prefix is written to the
tenant's v3 trace and synced).  Both sides run on the same machine in the
same invocation, so the ratio is hardware-independent; the absolute
figures are recorded into ``BENCH_serve.json`` for the artifact.

The load comes from a separate process (``python -m repro load --json``),
as a real client's would: loader threads inside the server's process would
contend for its interpreter lock and charge the loader's own work to the
server.

The two sides are measured in interleaved (serve, batch) rounds and each
keeps its best round, so a load spike on a shared runner hits both sides
rather than one lone measurement: the batch-replay baseline alone swings
between about 50k and 83k req/s from run to run on a shared machine.

The default load is 8 x 10k requests so CI stays fast; set
``REPRO_BENCH_FULL=1`` for the 8 x 50k acceptance run::

    REPRO_BENCH_FULL=1 PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q
"""

import json
import os
import subprocess
import sys
import time

import pytest

from benchmarks.bench_artifact import record_metric
from repro.allocators import FirstFitAllocator
from repro.engine import EngineSession
from repro.serve import ServeConfig, start_background
from repro.serve.client import load_pattern_trace
from repro.workloads import load_trace, trace_info

CLIENTS = 8
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REQUESTS = 50_000 if os.environ.get("REPRO_BENCH_FULL", "") == "1" else 10_000

#: The acceptance bar: serve throughput >= 50% of batch replay.
MIN_SERVE_RATIO = 0.50


@pytest.fixture(scope="module")
def workloads():
    """The exact per-client traces the loader will send (same seeds)."""
    return [load_pattern_trace("churn", REQUESTS, seed) for seed in range(CLIENTS)]


#: Interleaved (serve, batch) rounds; each side keeps its best.
ROUNDS = 3


def _batch_replay_seconds(workloads):
    """Single-process baseline: plain engine runs, one per workload."""
    started = time.perf_counter()
    total = 0
    for trace in workloads:
        total += EngineSession(FirstFitAllocator()).run(trace).requests
    assert total == CLIENTS * REQUESTS
    return time.perf_counter() - started


def _load(host, port):
    """Drive the whole load from a ``repro load`` process; returns its JSON
    report (its rate is timed inside the loader, after its traces are built)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [
        sys.executable, "-m", "repro", "load", f"{host}:{port}", "--json",
        "--clients", str(CLIENTS), "--requests", str(REQUESTS), "--pattern", "churn",
        "--seed", "0", "--batch", "1000", "--window", "8",
    ]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _serve_round(trace_dir):
    """One served run of the whole load; returns the load report and the
    server's per-tenant results."""
    handle = start_background(
        ServeConfig(allocator="first_fit", trace_dir=str(trace_dir), label="bench")
    )
    try:
        report = _load(handle.host, handle.port)
    finally:
        results = handle.stop()
    assert report["errors"] == 0
    assert report["applied"] == report["sent"] == CLIENTS * REQUESTS
    return report, results


def test_serve_sustains_half_of_batch_replay_throughput(tmp_path, workloads):
    serve_rps = baseline_rps = 0.0
    for round_index in range(ROUNDS):
        trace_dir = tmp_path / f"round-{round_index}"
        trace_dir.mkdir()
        report, results = _serve_round(trace_dir)
        serve_rps = max(serve_rps, report["requests_per_second"])
        baseline_rps = max(baseline_rps, CLIENTS * REQUESTS / _batch_replay_seconds(workloads))
    ratio = serve_rps / baseline_rps
    print(
        f"\n{CLIENTS} clients x {REQUESTS} requests, best of {ROUNDS} rounds: "
        f"batch replay={baseline_rps:,.0f} req/s, "
        f"serve={serve_rps:,.0f} req/s ({ratio:.2f}x)"
    )
    record_metric("serve", "clients", CLIENTS, "count")
    record_metric("serve", "requests_per_client", REQUESTS, "count")
    record_metric("serve", "batch_replay_requests_per_sec", round(baseline_rps), "req/s")
    record_metric("serve", "serve_requests_per_sec", round(serve_rps), "req/s")
    record_metric("serve", "serve_over_batch_ratio", round(ratio, 3), "ratio")
    assert ratio >= MIN_SERVE_RATIO, (
        f"{CLIENTS} concurrent clients sustain only {ratio:.1%} of batch-replay "
        f"throughput ({serve_rps:,.0f} vs {baseline_rps:,.0f} req/s); the serve "
        f"path regressed past the {MIN_SERVE_RATIO:.0%} budget"
    )

    # The throughput only counts if durability held: every session of the
    # last round left a complete v3 trace that replays to the exact served
    # state.
    assert len(results) == CLIENTS
    for index, (workload, result) in enumerate(
        zip(workloads, sorted(results, key=lambda r: int(r["tenant"].split("-")[-1])))
    ):
        path = trace_dir / f"bench-load-{index}.v3"
        assert trace_info(path).requests == REQUESTS
        offline = FirstFitAllocator()
        offline.run(workload)
        assert result["stats"]["footprint"] == offline.footprint
        assert result["stats"]["volume"] == offline.volume
    record_metric("serve", "sessions_recorded", len(results), "count")
