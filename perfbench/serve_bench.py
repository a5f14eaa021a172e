"""The ``serve-closed`` workload: a ``repro serve`` process under a closed loop.

The server runs first-fit, which never moves an object, so the per-batch
layers around the allocator carry a large share of the server's time: wire
decode, queue, executor hop, v3 record plus ``sync()``, and the ack.

One loader thread drives two tenant connections (one per core of the
two-core box this was sized on) in lock-step, each with one batch of 50
churn requests in flight (a closed loop with window 1): send a batch on
each connection, then wait for both acks.  A repetition replays the same
250 batches per tenant on fresh tenant sessions, so each batch's latency
can be taken as its median across repetitions.  Unlike the replay
workloads this uses the median, not the fastest repetition: a batch's
latency here also depends on how the two tenants' batches and the loader
happen to interleave, and over 40 or more repetitions the fastest one is a
rare lucky interleaving, which moved p50 by 30% between runs.  The
churn keeps close to 200 objects live (deletes are slightly less likely
than inserts below that), so every seed exercises the same live-set size:
with an unbiased walk the live count wandered between 50 and 200 and moved
trace bytes per request by 25% from seed to seed.

There is deliberately no open-loop or deep-window serve workload.  An open
loop at 2500 req/s moved p50 latency by 9% and tail latency by 14% between
two runs of identical code, because it mostly measured timer and
interpreter-lock wake-ups; a saturating loader with a deep window moved p50
by 6%, because its latency is just backlog divided by throughput.
"""

from __future__ import annotations

import io
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from common import Outcome, cpu_seconds, peak_rss_mb, per_index_medians, put_timings

from repro.campaign.spec import build_allocator
from repro.costs.standard import ConstantCost, LinearCost
from repro.engine.session import EngineSession
from repro.serve import (
    ServeClient,
    decode_requests,
    encode_frame,
    encode_requests,
    read_frame_sync,
)
from repro.workloads import (
    UniformSizes,
    churn_trace,
    open_trace_writer,
    read_block_index,
    read_trace_tail,
)

ALLOCATOR = "first_fit"
TENANTS = 2
BATCH = 50
ROUNDS = 250
LIVE = 200
#: Server start plus tenant connect is repeated and its median kept.
SETUP_REPEATS = 5
#: Longest wait for the server's ``serving on`` line or for its exit.
SERVER_TIMEOUT = 60.0


class Server:
    """A ``repro serve`` child process, ready once it prints its address."""

    def __init__(self, src: str, workdir: str, telemetry: Optional[str] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_TELEMETRY", None)
        env.pop("REPRO_FAULTS", None)
        if telemetry:
            env["REPRO_TELEMETRY"] = telemetry
        self._stderr = open(os.path.join(workdir, "server.stderr"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--allocator", ALLOCATOR,
             "--port", "0", "--trace-dir", workdir, "--label", "bench"],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=workdir,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not come up (said {line!r}); {self.stderr()}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.host, self.port = host, int(port)
        self.pid = str(self.proc.pid)

    def stderr(self) -> str:
        with open(self._stderr.name, "rb") as handle:
            return handle.read().decode("utf-8", "replace")[-2000:]

    def stop(self) -> None:
        """SIGTERM (the server drains and closes its traces), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=SERVER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()


def _make_batches(seed: int) -> List[List[List]]:
    """Per tenant, the ``ROUNDS`` batches it sends in every repetition."""
    tenants = []
    for tenant in range(TENANTS):
        trace = list(
            churn_trace(
                ROUNDS * BATCH,
                UniformSizes(1, 64),
                target_live=LIVE,
                seed=seed * TENANTS + tenant,
                delete_fraction=0.45,
            )
        )
        tenants.append([trace[i : i + BATCH] for i in range(0, len(trace), BATCH)])
    return tenants


def _connect(server: Server, rep: int) -> List[ServeClient]:
    return [ServeClient(server.host, server.port, tenant=f"t{i}-r{rep}") for i in range(TENANTS)]


def _run_rep(server: Server, clients: List[ServeClient], batches, outcome: Outcome) -> dict:
    """Drive one repetition on fresh tenant sessions; returns its timings,
    the sessions' final results and their trace paths."""
    latency: List[List[float]] = [[] for _ in clients]
    rounds: List[float] = []
    server_cpu = cpu_seconds(server.pid)
    loader_cpu = cpu_seconds()
    started = perf_counter()
    for index in range(ROUNDS):
        round_start = perf_counter()
        sent = []
        for client, tenant in zip(clients, batches):
            sent.append(perf_counter())
            client.send_batch(tenant[index])
        for tenant, client in enumerate(clients):
            [ack] = client.drain_acks(1)
            latency[tenant].append(perf_counter() - sent[tenant])
            applied = int(ack.get("applied", 0)) if ack.get("ok") else 0
            outcome.attempted += BATCH
            outcome.failed += BATCH - applied
            outcome.check(
                ack.get("ok") and applied == BATCH and ack.get("seq") == index + 1,
                f"batch {index} of tenant {tenant}: ack {ack}",
            )
        rounds.append(perf_counter() - round_start)
    wall = perf_counter() - started
    return {
        "latency": [value for tenant in latency for value in tenant],
        "rounds": rounds,
        "server_cpu_share": (cpu_seconds(server.pid) - server_cpu) / wall,
        "loader_cpu_share": (cpu_seconds() - loader_cpu) / wall,
        "results": [client.close() for client in clients],
        "traces": [client.trace_path for client in clients],
    }


def _check_traces(reps: Sequence[dict], batches, outcome: Outcome) -> Dict[str, float]:
    """Recorded traces hold what was sent; their offline replay matches the
    server.  Returns the paper metrics of the offline replays."""
    sent = [
        [(r.op, str(r.name), r.size) for batch in tenant for r in batch] for tenant in batches
    ]
    total_bytes = total_requests = blocks = 0
    offline: List = []
    for rep_index, rep in enumerate(reps):
        for tenant, (path, result) in enumerate(zip(rep["traces"], rep["results"])):
            recorded = read_trace_tail(path)
            got = [(r.op, str(r.name), r.size) for r in recorded.requests]
            outcome.check(
                recorded.complete and got == sent[tenant],
                f"{os.path.basename(path)}: recorded trace differs from what was sent",
            )
            total_bytes += os.path.getsize(path)
            total_requests += len(got)
            final = (result or {}).get("stats", {})
            if rep_index == 0:
                allocator = build_allocator(ALLOCATOR)
                EngineSession(allocator).open().apply(recorded.requests)
                offline.append((allocator, final))
                blocks += len(read_block_index(path))
            allocator, first = offline[tenant]
            outcome.check(
                final.get("footprint") == allocator.footprint
                and final.get("volume") == allocator.volume
                and final == first,
                f"{os.path.basename(path)}: server final state {final} differs from "
                f"offline replay (footprint {allocator.footprint}, volume {allocator.volume})",
            )
    stats = [allocator.stats for allocator, _ in offline]
    ratio_sum = sum(s.footprint_ratio_sum for s in stats)
    ratio_samples = sum(s.footprint_ratio_samples for s in stats)

    def cost_ratio(cost) -> float:
        allocation = sum(s.allocation_cost(cost) for s in stats)
        return 1.0 + sum(s.reallocation_cost(cost) for s in stats) / allocation

    return {
        "footprint_ratio_mean": ratio_sum / ratio_samples,
        "footprint_ratio_max": max(s.max_footprint_ratio for s in stats),
        "cost_ratio_linear": cost_ratio(LinearCost()),
        "cost_ratio_unit": cost_ratio(ConstantCost()),
        "trace_bytes_per_req": total_bytes / total_requests,
        "blocks_per_1k_req": blocks * 1000.0 / (TENANTS * ROUNDS * BATCH),
    }


def _setup(src: str, workdir: str, seed: int, outcome: Outcome):
    """Trace generation, server start until ready and tenant connect, timed
    ``SETUP_REPEATS`` times; the last server and its clients are kept."""
    times = []
    for attempt in range(SETUP_REPEATS):
        started = perf_counter()
        batches = _make_batches(seed)
        server = Server(src, workdir)
        try:
            clients = _connect(server, 0)
        except BaseException:
            server.stop()
            raise
        times.append(perf_counter() - started)
        if attempt < SETUP_REPEATS - 1:
            for client in clients:
                client.close()
            server.stop()
    outcome.put("setup_s", statistics.median(times), "s", times)
    return batches, server, clients


def run_end_to_end(src: str, seed: int, seconds: float, workdir: str) -> Outcome:
    outcome = Outcome()
    batches, server, clients = _setup(src, workdir, seed, outcome)
    reps: List[dict] = []
    try:
        deadline = perf_counter() + seconds
        while True:
            reps.append(_run_rep(server, clients, batches, outcome))
            if perf_counter() >= deadline:
                break
            clients = _connect(server, len(reps))
        rss = peak_rss_mb(server.pid)
    finally:
        server.stop()
    put_timings(
        outcome,
        ROUNDS * TENANTS * BATCH,
        [rep["rounds"] for rep in reps],
        [rep["latency"] for rep in reps],
        reduce=per_index_medians,
    )
    paper = _check_traces(reps, batches, outcome)
    for name in (
        "footprint_ratio_mean",
        "footprint_ratio_max",
        "cost_ratio_linear",
        "cost_ratio_unit",
    ):
        outcome.put(name, paper[name], "ratio")
    outcome.put("trace_bytes_per_req", paper["trace_bytes_per_req"], "B")
    outcome.put("peak_rss_mb", rss, "MiB")
    return outcome


#: The in-process chain's steps, in the order one batch goes through them.
CHAIN_STEPS = ("encode", "decode", "apply", "record", "sync", "ack")


def _chain_pass(batches, workdir: str) -> Dict[str, List[float]]:
    """The server's per-batch steps run in this process on the same batches:
    wire encode (client side), frame and request decode, apply, v3 record,
    ``sync()`` and ack encode.  Returns each step's seconds per batch."""
    times: Dict[str, List[float]] = {step: [] for step in CHAIN_STEPS}
    for tenant, tenant_batches in enumerate(batches):
        session = EngineSession(build_allocator(ALLOCATOR)).open()
        path = os.path.join(workdir, f"chain-{tenant}.v3")
        with open_trace_writer(path, version=3, label=f"chain-{tenant}") as writer:
            for seq, batch in enumerate(tenant_batches, 1):
                t0 = perf_counter()
                frame = encode_frame({"op": "batch", "seq": seq, "reqs": encode_requests(batch)})
                t1 = perf_counter()
                requests = decode_requests(read_frame_sync(io.BytesIO(frame))["reqs"])
                t2 = perf_counter()
                applied = session.apply(requests)
                t3 = perf_counter()
                for request in requests[:applied]:
                    writer.write(request)
                t4 = perf_counter()
                writer.sync()
                t5 = perf_counter()
                encode_frame({"ok": True, "seq": seq, "applied": applied})
                t6 = perf_counter()
                stamps = (t0, t1, t2, t3, t4, t5, t6)
                for step, start, end in zip(CHAIN_STEPS, stamps, stamps[1:]):
                    times[step].append(end - start)
    return times


def _served_telemetry(path: str) -> Dict[str, float]:
    """Per-batch apply time and audit probes the traced server recorded.

    The server's telemetry is not thread-safe and its executor threads
    apply two tenants' batches at once, so a line can come out torn; torn
    lines are counted and skipped.
    """
    spans: List[float] = []
    probes = torn = 0
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            try:
                event = json.loads(line)
            except ValueError:
                torn += 1
                continue
            if event["ev"] == "span" and event["name"] == "engine.replay":
                spans.append(event["dur"])
            elif event["ev"] == "counter" and event["name"] == "address_space.audit_probes":
                probes += event["value"]
    return {
        "spans": len(spans),
        "torn_lines": torn,
        "apply_us": statistics.fmean(spans) * 1e6,
        "probes": probes,
    }


def run_traced(src: str, seed: int, seconds: float, workdir: str) -> Outcome:
    """Per-layer figures: a plain server, a telemetry-on server and the
    in-process chain, interleaved so a slow spell of the machine hits all
    three alike."""
    outcome = Outcome()
    plain_dir = os.path.join(workdir, "plain")
    traced_dir = os.path.join(workdir, "traced")
    os.makedirs(plain_dir)
    os.makedirs(traced_dir)
    telemetry_log = os.path.join(traced_dir, "telemetry.jsonl")
    batches, plain, plain_clients = _setup(src, plain_dir, seed, outcome)
    traced = None
    plain_reps: List[dict] = []
    traced_reps: List[dict] = []
    chains: List[Dict[str, List[float]]] = []
    try:
        traced = Server(src, traced_dir, telemetry_log)
        traced_clients = _connect(traced, 0)
        deadline = perf_counter() + seconds
        while True:
            plain_reps.append(_run_rep(plain, plain_clients, batches, outcome))
            traced_reps.append(_run_rep(traced, traced_clients, batches, outcome))
            chains.append(_chain_pass(batches, workdir))
            if perf_counter() >= deadline:
                break
            plain_clients = _connect(plain, len(plain_reps))
            traced_clients = _connect(traced, len(traced_reps))
    finally:
        plain.stop()
        if traced is not None:
            traced.stop()
    _check_traces(plain_reps, batches, outcome)
    paper = _check_traces(traced_reps, batches, outcome)
    served = _served_telemetry(telemetry_log)
    outcome.details["served_telemetry"] = {k: served[k] for k in ("spans", "torn_lines")}

    # Each step's cost per batch is its median pass, like the server's wall
    # per batch below, so the two can be subtracted.
    layer = {
        step: statistics.fmean(per_index_medians([chain[step] for chain in chains])) * 1e6
        for step in CHAIN_STEPS
    }
    names = {
        "encode": "serve.encode_us_per_batch",
        "decode": "serve.decode_us_per_batch",
        "apply": "engine.apply_us_per_batch",
        "record": "workloads.record_us_per_batch",
        "sync": "workloads.sync_us_per_batch",
        "ack": "serve.ack_us_per_batch",
    }
    for step, name in names.items():
        outcome.put(name, layer[step], "us", [statistics.fmean(c[step]) * 1e6 for c in chains])
    # Server wall per batch: the closed loop keeps one batch per tenant in
    # flight, so a round is the server's time for TENANTS batches.
    plain_wall = sum(per_index_medians([rep["rounds"] for rep in plain_reps]))
    traced_wall = sum(per_index_medians([rep["rounds"] for rep in traced_reps]))
    server_us = plain_wall / (ROUNDS * TENANTS) * 1e6
    attributed = sum(layer[step] for step in CHAIN_STEPS if step != "encode")
    outcome.put("serve.unattributed_us_per_batch", server_us - attributed, "us")
    outcome.put("serve.served_apply_us_per_batch", served["apply_us"], "us")
    outcome.put(
        "storage.audit_probes_per_req",
        served["probes"] / (len(traced_reps) * TENANTS * ROUNDS * BATCH),
        "count",
    )
    outcome.put("workloads.blocks_per_1k_req", paper["blocks_per_1k_req"], "count")
    for name in ("server_cpu_share", "loader_cpu_share"):
        values = [rep[name] for rep in plain_reps]
        outcome.put(f"serve.{name}", statistics.median(values), "ratio", values)
    outcome.put("bench.layer_coverage", attributed / server_us, "ratio")
    outcome.put("bench.tracing_overhead", traced_wall / plain_wall - 1.0, "ratio")
    outcome.details["repetitions"] = len(plain_reps)
    outcome.details["server_us_per_batch"] = server_us
    return outcome
