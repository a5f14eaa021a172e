"""Tests for the live allocation service (:mod:`repro.serve`).

The acceptance bar: every served session leaves a block-indexed v3 trace
that replays offline to the live session's exact state, control verbs are
ordered barriers, backpressure never loses or reorders work, and a server
crashed mid-session (fault injection) restores from its last SNAPSHOT plus
the recorded trace tail to exactly the acked prefix.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.allocators import FirstFitAllocator
from repro.campaign.spec import build_allocator
from repro.cli import main
from repro.core import check_invariants
from repro.engine import EngineSession
from repro.faults import CRASH_EXIT_CODE, FaultPlan, FaultRule, inject
from repro.metrics import run_trace
from repro.obs import JsonlSink, Telemetry, load_events, use_telemetry, validate_events
from repro.serve import (
    MAX_FRAME_BYTES,
    ProtocolError,
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServeError,
    decode_requests,
    encode_frame,
    encode_requests,
    read_frame,
    read_frame_sync,
    restore_session,
    run_load,
    start_background,
)
from repro.serve.server import TenantSession
from repro.workloads import (
    Request,
    UniformSizes,
    churn_trace,
    load_trace,
    read_trace_tail,
    trace_info,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def layout(allocator):
    return sorted(
        (name, extent.start, extent.length)
        for name, extent in allocator.space.snapshot().items()
    )


@pytest.fixture
def server(tmp_path):
    handles = []

    def _start(**overrides):
        overrides.setdefault("label", "t")
        config = ServeConfig(trace_dir=str(tmp_path), **overrides)
        handle = start_background(config)
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.stop()


# ------------------------------------------------------------------ protocol
def test_frame_round_trip_sync_and_async(tmp_path):
    messages = [
        {"op": "hello", "tenant": "t"},
        {"op": "batch", "seq": 1, "reqs": [["i", "a", 8], ["d", "a"]]},
        {"big": "x" * 300},  # multi-byte varint prefix
    ]
    blob = b"".join(encode_frame(m) for m in messages)
    path = tmp_path / "frames.bin"
    path.write_bytes(blob)
    with open(path, "rb") as handle:
        decoded = [read_frame_sync(handle) for _ in messages]
        assert read_frame_sync(handle) is None  # clean EOF
    assert decoded == messages

    async def _read_all():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        out = [await read_frame(reader) for _ in messages]
        out.append(await read_frame(reader))
        return out

    *async_decoded, eof = asyncio.run(_read_all())
    assert async_decoded == messages and eof is None


def test_frame_guards_reject_oversize_and_torn_frames(tmp_path):
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame({"x": "y" * MAX_FRAME_BYTES})

    async def _read(blob):
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        return await read_frame(reader)

    # A length prefix claiming ~34 GB is refused before any allocation.
    with pytest.raises(ProtocolError, match="exceeds"):
        asyncio.run(_read(b"\xff\xff\xff\xff\x7f"))
    # A connection cut mid-body is loud, not a silent truncation.
    frame = encode_frame({"op": "stats", "seq": 1})
    with pytest.raises(ProtocolError, match="inside a frame body"):
        asyncio.run(_read(frame[:-2]))
    with pytest.raises(ProtocolError, match="not valid JSON"):
        asyncio.run(_read(b"\x03xxx"))


def test_request_codec_round_trip_and_prefixing():
    requests = [Request.insert("a", 8), Request.delete("a"), Request.insert("b", 1)]
    wire = encode_requests(requests)
    assert wire == [["i", "a", 8], ["d", "a"], ["i", "b", 1]]
    assert decode_requests(wire) == [
        Request.insert("a", 8),
        Request.delete("a"),
        Request.insert("b", 1),
    ]
    assert decode_requests(wire, prefix="t/")[0].name == "t/a"
    with pytest.raises(ProtocolError, match="unknown request tag"):
        decode_requests([["x", "a"]])
    with pytest.raises(ProtocolError):
        decode_requests([["i", "a"]])  # insert without a size
    with pytest.raises(ProtocolError):
        decode_requests({"not": "a list"})


# ------------------------------------------------------------- basic serving
def test_batches_are_acked_applied_and_recorded(tmp_path, server):
    handle = server()
    trace = list(churn_trace(900, UniformSizes(1, 32), target_live=50, seed=3))
    with ServeClient(handle.host, handle.port, tenant="alpha") as client:
        assert client.mode == "per-tenant"
        for i in range(0, len(trace), 100):
            client.send_batch(trace[i : i + 100])
        acks = client.drain_acks()
        assert [a["ok"] for a in acks] == [True] * 9
        assert sum(a["applied"] for a in acks) == 900
        stats = client.stats()
        assert stats["requests"] == stats["recorded"] == 900
        assert stats["requests_per_second"] > 0.0
        json.dumps(stats, allow_nan=False)
    results = handle.stop()
    assert [(r["tenant"], r["requests"]) for r in results] == [("alpha", 900)]


def test_served_session_trace_replays_to_identical_state(tmp_path, server):
    """The core durability claim: live state == offline replay of the
    recorded v3 trace, for a moving allocator too."""
    for kind in ("first_fit", "logging_compacting"):
        handle = server(allocator=kind, label=f"eq-{kind}")
        trace = list(churn_trace(1200, UniformSizes(1, 64), target_live=80, seed=11))
        with ServeClient(handle.host, handle.port, tenant="w") as client:
            for i in range(0, len(trace), 150):
                client.send_batch(trace[i : i + 150])
            client.drain_acks()
            live = client.stats()
        [result] = handle.stop()

        trace_path = tmp_path / f"eq-{kind}-w.v3"
        info = trace_info(trace_path)
        assert info.requests == 1200
        offline = run_trace(build_allocator(kind), load_trace(trace_path))
        assert offline.requests == 1200
        assert offline.final_footprint == result["stats"]["footprint"]
        assert offline.final_volume == live["volume"]
        assert offline.max_footprint == live["max_footprint"]
        assert offline.total_moves == result["stats"]["moves"]


def test_tenants_get_isolated_arenas(server):
    handle = server()
    with ServeClient(handle.host, handle.port, tenant="a") as a, ServeClient(
        handle.host, handle.port, tenant="b"
    ) as b:
        a.apply([Request.insert("x", 10)])
        b.apply([Request.insert("x", 99)])  # same name, different arena: fine
        assert a.stats()["volume"] == 10
        assert b.stats()["volume"] == 99
    results = {r["tenant"]: r for r in handle.stop()}
    assert set(results) == {"a", "b"}


def test_shared_arena_namespaces_tenants(tmp_path, server):
    handle = server(shared_arena=True, label="sh")
    with ServeClient(handle.host, handle.port, tenant="a") as a, ServeClient(
        handle.host, handle.port, tenant="b"
    ) as b:
        assert a.mode == "shared"
        a.apply([Request.insert("x", 10)])
        b.apply([Request.insert("x", 7)])  # would collide without namespacing
        stats = a.stats()
        assert stats["volume"] == 17 and stats["num_objects"] == 2
        a.apply([Request.delete("x")])
        assert b.stats()["volume"] == 7
    [result] = handle.stop()
    assert result["tenant"] == "shared"
    # The shared trace carries the namespaced names and replays cleanly.
    replayed = run_trace(
        FirstFitAllocator(), load_trace(tmp_path / "sh-shared.v3")
    )
    assert replayed.requests == 3
    assert replayed.final_volume == 7


def test_backpressure_under_tiny_queue_loses_nothing(server):
    handle = server(queue_depth=2, max_batch=64)
    trace = list(churn_trace(800, UniformSizes(1, 16), target_live=40, seed=5))
    with ServeClient(handle.host, handle.port, tenant="bp") as client:
        for i in range(0, len(trace), 25):  # 32 batches >> queue depth
            client.send_batch(trace[i : i + 25])
        acks = client.drain_acks()
        assert sum(a["applied"] for a in acks) == 800
        assert [a["seq"] for a in acks] == sorted(a["seq"] for a in acks)
        drained = client.drain()
        assert drained["applied"] == drained["recorded"] == 800


def test_mid_batch_allocator_error_acks_partial_and_session_survives(server):
    handle = server()
    with ServeClient(handle.host, handle.port, tenant="err") as client:
        ack = client.apply(
            [
                Request.insert("a", 4),
                Request.insert("a", 4),  # duplicate name: allocator raises
                Request.insert("b", 4),
            ]
        )
        assert ack["ok"] is False
        assert ack["applied"] == 1
        assert "error" in ack
        # The session is still live and consistent afterwards.
        good = client.apply([Request.insert("b", 4)])
        assert good["ok"] is True
        stats = client.stats()
        assert stats["requests"] == 2  # only the applied prefix counted
        assert stats["recorded"] == 2  # ... and only that was recorded
    [result] = handle.stop()
    assert result["requests"] == 2


def test_a_failed_record_fails_the_tenant_and_the_trace_keeps_the_acked_prefix(
    tmp_path, server
):
    """A raise at ``serve.record.sync`` leaves the second batch applied but
    unrecorded.  That batch gets an error reply, not a timeout; the tenant
    then refuses later batches, ``SNAPSHOT`` and ``DRAIN`` with the same
    error, ``STATS`` reports it, close still finalizes, and the trace
    replays to exactly the acked first batch."""
    handle = server(label="rec")
    trace = list(churn_trace(300, UniformSizes(1, 32), target_live=40, seed=7))
    plan = FaultPlan(rules=[FaultRule(site="serve.record.sync", action="raise", after=1)])
    with inject(plan), ServeClient(handle.host, handle.port, tenant="p", timeout=20) as client:
        first = client.apply(trace[:100])
        assert first["ok"] is True and first["applied"] == 100
        second = client.apply(trace[100:200])
        assert second["ok"] is False and second["applied"] == 0
        error = second["error"]
        assert error.startswith("trace record failed: OSError") and "serve.record.sync" in error
        third = client.apply(trace[200:300])
        assert (third["ok"], third["applied"], third["error"]) == (False, 0, error)
        stats = client.stats()
        assert stats["failed"] == error
        assert stats["recorded"] == 100
        for refused in (client.snapshot, client.drain):
            with pytest.raises(ServeClientError, match="trace record failed"):
                refused()
    [result] = handle.stop()
    assert result["tenant"] == "p"
    trace_path = tmp_path / "rec-p.v3"
    recorded = [(r.op, r.name, r.size) for r in load_trace(trace_path)]
    assert recorded == [(r.op, str(r.name), r.size) for r in trace[:100]]  # names travel as text
    offline = run_trace(build_allocator("first_fit"), load_trace(trace_path))
    assert offline.requests == 100


def test_unknown_ops_and_bad_batches_get_error_responses(server):
    handle = server()
    with ServeClient(handle.host, handle.port, tenant="bad") as client:
        client._send({"op": "frobnicate", "seq": 1})
        response = client._recv()
        assert response["ok"] is False and "unknown op" in response["error"]
        client._send({"op": "batch", "seq": 2, "reqs": [["i", "a"]]})
        response = client._recv()
        assert response["ok"] is False
        # The connection survives protocol-level errors.
        assert client.apply([Request.insert("a", 1)])["ok"] is True


def test_two_connections_can_share_one_tenant_session(server):
    handle = server()
    first = ServeClient(handle.host, handle.port, tenant="t")
    second = ServeClient(handle.host, handle.port, tenant="t")
    first.apply([Request.insert("a", 5)])
    second.apply([Request.insert("b", 7)])
    assert second.stats()["volume"] == 12
    first.close()
    # The session survives the first disconnect (refcounted), so the
    # second connection still sees — and can extend — the shared state.
    assert second.stats()["volume"] == 12
    second.apply([Request.delete("a")])
    second.close()
    results = handle.stop()
    assert [r["requests"] for r in results] == [3]


# ------------------------------------------------------- the load harness
def test_run_load_applies_everything_and_leaves_replayable_traces(
    tmp_path, server
):
    handle = server(label="load")
    report = run_load(
        handle.host, handle.port, clients=3, requests=600, batch=100, window=3, seed=2
    )
    assert report.applied == report.sent == 3 * 600
    assert report.errors == 0
    assert report.requests_per_second > 0
    document = report.to_dict()
    json.dumps(document, allow_nan=False)
    assert document["clients"] == 3
    handle.stop()
    # Each client's recorded session replays offline to its own workload.
    for i in range(3):
        replayed = run_trace(
            FirstFitAllocator(), load_trace(tmp_path / f"load-load-{i}.v3")
        )
        assert replayed.requests == 600


# -------------------------------------------------------- snapshot / restore
def test_snapshot_restore_matches_live_state(tmp_path, server):
    handle = server(label="snap")
    trace = list(churn_trace(600, UniformSizes(1, 32), target_live=60, seed=21))
    with ServeClient(handle.host, handle.port, tenant="s") as client:
        client.apply(trace[:300])
        described = client.snapshot()
        assert described["requests_applied"] == 300
        client.apply(trace[300:])
        live = client.stats()
    [result] = handle.stop()

    session, replayed = restore_session(
        tmp_path / "snap-s.snap", tmp_path / "snap-s.v3"
    )
    assert replayed == 300  # the tail beyond the snapshot watermark
    assert session.requests_applied == 600
    assert session.allocator.footprint == result["stats"]["footprint"]
    assert session.allocator.volume == live["volume"]
    # And the restored state equals a from-scratch replay of the trace.
    offline = FirstFitAllocator()
    offline.run(load_trace(tmp_path / "snap-s.v3"))
    assert layout(session.allocator) == layout(offline)


# ------------------------------------------------------ the inline batch path
def test_batches_apply_on_the_event_loop_thread(server, monkeypatch):
    """Every coalesced batch is applied, recorded and synced on the
    server's own event-loop thread: no executor thread starts for batches,
    and SNAPSHOT (the one verb still offloaded) keeps working."""
    threads = []
    original = TenantSession._apply_and_record

    def recording(self, requests):
        threads.append(threading.get_ident())
        return original(self, requests)

    monkeypatch.setattr(TenantSession, "_apply_and_record", recording)
    handle = server(label="loop")
    trace = list(churn_trace(1000, UniformSizes(1, 32), target_live=50, seed=4))
    with ServeClient(handle.host, handle.port, tenant="l") as client:
        before = threading.active_count()
        for i in range(0, 1000, 50):
            assert client.apply(trace[i : i + 50])["ok"]
        assert threading.active_count() <= before
        assert client.snapshot()["requests_applied"] == 1000
    handle.stop()
    assert len(threads) == 20
    assert set(threads) == {handle._thread.ident}


def test_traced_batches_emit_one_span_per_step_that_obs_report_lists(
    tmp_path, server, capsys
):
    log = tmp_path / "serve.jsonl"
    telemetry = Telemetry(enabled=True, sink=JsonlSink(log))
    trace = list(churn_trace(300, UniformSizes(1, 32), target_live=30, seed=6))
    with use_telemetry(telemetry):
        handle = server(label="spans")
        with ServeClient(handle.host, handle.port, tenant="s") as client:
            for i in range(0, 300, 50):
                assert client.apply(trace[i : i + 50])["ok"]
        handle.stop()
    telemetry.close()
    events = load_events(log)
    assert validate_events(events) == []
    spans = [e for e in events if e["ev"] == "span" and e["name"].startswith("serve.")]
    steps = ["serve.apply", "serve.record", "serve.sync", "serve.ack"]
    assert [span["name"] for span in spans] == steps * 6
    assert all(span["attrs"] == {"requests": 50} for span in spans)
    for span, following in zip(spans, spans[1:]):
        # Each step starts where the one before it ended.
        if following["name"] != "serve.apply":
            assert following["start"] == pytest.approx(span["start"] + span["dur"], abs=2e-6)
    assert main(["obs", "report", str(log)]) == 0
    report = capsys.readouterr().out
    for step in steps:
        assert step in report


@pytest.mark.parametrize("kind", ["cost_oblivious", "deamortized"])
def test_paper_reallocators_serve_interleaved_tenants_replayably(tmp_path, server, kind):
    """Two tenants of a moving reallocator interleave pipelined batches
    (50 requests, window 2); each recorded trace replays offline to the
    live session's footprint, volume and exact layout, and the offline
    replay passes the paper's invariants."""
    handle = server(allocator=kind, label=kind)
    traces = [
        list(churn_trace(2000, UniformSizes(1, 48), target_live=120, seed=seed))
        for seed in (8, 9)
    ]
    clients = [ServeClient(handle.host, handle.port, tenant=f"p{i}") for i in range(2)]
    for start in range(0, 2000, 50):
        for client, trace in zip(clients, traces):
            if client._inflight == 2:
                assert client.drain_acks(1)[0]["ok"]
            client.send_batch(trace[start : start + 50])
    lives = []
    for i, client in enumerate(clients):
        assert all(ack["ok"] for ack in client.drain_acks())
        lives.append(client.stats())
        assert lives[i]["requests"] == lives[i]["recorded"] == 2000
        # The snapshot pickles the live allocator: its layout is the live one.
        client.snapshot(str(tmp_path / f"live-{i}.snap"))
        client.close()
    handle.stop()

    for i, live in enumerate(lives):
        snapshot = EngineSession.restore(tmp_path / f"live-{i}.snap").allocator
        offline = build_allocator(kind)
        offline.run(load_trace(tmp_path / f"{kind}-p{i}.v3"))
        assert offline.stats.requests == 2000
        assert offline.footprint == live["footprint"] == snapshot.footprint
        assert offline.volume == live["volume"] == snapshot.volume
        assert offline.stats.total_moves == live["moves"] > 0
        assert dict(offline.space.items()) == dict(snapshot.space.items())
        check_invariants(offline)


# ------------------------------------------------------------------- chaos
def _spawn_server(tmp_path, label, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
    env.update(env_extra or {})
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--trace-dir",
            str(tmp_path),
            "--label",
            label,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = process.stdout.readline().strip()
    assert line.startswith("serving on "), f"unexpected readiness line {line!r}"
    host, _, port = line[len("serving on ") :].rpartition(":")
    return process, host, int(port)


def test_crash_mid_session_restores_from_snapshot_plus_trace_tail(tmp_path):
    """ISSUE 10's chaos case: kill the server mid-session via an injected
    crash at ``serve.batch.apply``; restore must converge to the acked
    prefix exactly."""
    plan_path = tmp_path / "plan.json"
    FaultPlan(
        rules=[FaultRule(site="serve.batch.apply", action="crash", after=3)],
        seed=0,
    ).to_json(plan_path)
    process, host, port = _spawn_server(
        tmp_path, "chaos", env_extra={"REPRO_FAULTS": str(plan_path)}
    )
    trace = list(churn_trace(500, UniformSizes(1, 32), target_live=40, seed=33))
    chunks = [trace[i : i + 100] for i in range(0, 500, 100)]
    acked = 0
    try:
        client = ServeClient(host, port, tenant="c")
        # Drain each batch so batches map 1:1 onto serve.batch.apply hits.
        for index, chunk in enumerate(chunks):
            ack = client.apply(chunk)
            assert ack["ok"]
            acked += ack["applied"]
            if index == 1:
                snap = client.snapshot()
                assert snap["requests_applied"] == 200
        raise AssertionError("server should have crashed before draining all batches")
    except (ServeClientError, ProtocolError, OSError):
        pass
    assert process.wait(timeout=30) == CRASH_EXIT_CODE
    assert acked == 300  # three applies survived, the fourth crashed

    # The trailer-less trace still yields every acked request...
    tail = read_trace_tail(tmp_path / "chaos-c.v3")
    assert not tail.complete
    assert len(tail.requests) == 300
    # ...and snapshot + tail restore to exactly the acked state.
    session, replayed = restore_session(
        tmp_path / "chaos-c.snap", tmp_path / "chaos-c.v3"
    )
    assert replayed == 100
    assert session.requests_applied == 300
    offline = FirstFitAllocator()
    offline.run(trace[:300])
    assert session.allocator.footprint == offline.footprint
    assert session.allocator.volume == offline.volume
    # Names were stringified over the wire; compare layouts stringified
    # (re-sorted: string order differs from the integer order).
    assert layout(session.allocator) == sorted(
        (str(name), start, length) for name, start, length in layout(offline)
    )


# --------------------------------------------------------------------- CLI
def test_cli_serve_and_load_end_to_end(tmp_path, capsys):
    process, host, port = _spawn_server(tmp_path, "cli")
    try:
        assert (
            main(
                [
                    "load",
                    f"{host}:{port}",
                    "--clients",
                    "2",
                    "--requests",
                    "400",
                    "--batch",
                    "100",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 client(s): 800/800 request(s) applied" in out
        assert (
            main(["load", f"{host}:{port}", "--clients", "1", "--requests", "100", "--json"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["applied"] == 100 and document["errors"] == 0
    finally:
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=30)
    assert process.returncode == 0, stderr
    # Graceful shutdown finalized every tenant trace with a trailer, and
    # the second load run (same tenant names, new sessions) landed in
    # numbered traces instead of overwriting the finished ones.
    for i in range(2):
        assert trace_info(tmp_path / f"cli-load-{i}.v3").requests == 400
    assert trace_info(tmp_path / "cli-load-0-r2.v3").requests == 100


def test_cli_load_usage_errors(capsys):
    assert main(["load", "nonsense"]) == 2
    assert "HOST:PORT" in capsys.readouterr().err
    assert main(["load", "127.0.0.1:1", "--clients", "0"]) == 2
    capsys.readouterr()


def test_cli_serve_rejects_bad_allocator_json(capsys):
    assert main(["serve", "--allocator", "{not json"]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["serve", "--max-batch", "0"]) == 2
    capsys.readouterr()


_BAD_ALLOCATORS = [
    ('{"kind": "nope"}', "unknown allocator 'nope'"),
    ('{"kind": "buddy", "audit": false}', "'audit' parameter was removed"),
]


@pytest.mark.parametrize("entry, message", _BAD_ALLOCATORS)
def test_cli_serve_refuses_a_bad_allocator_before_binding(entry, message, capsys, monkeypatch):
    """The allocator spec is built before the port is bound: a bad one exits
    2 at startup instead of serving and failing every tenant's connection."""
    bound = []

    async def start_server(*args, **kwargs):
        bound.append(args)
        raise OSError("the port was bound")

    monkeypatch.setattr(asyncio, "start_server", start_server)
    assert main(["serve", "--allocator", entry]) == 2
    captured = capsys.readouterr()
    assert not bound and "serving on" not in captured.out
    assert message in captured.err


@pytest.mark.parametrize("entry, message", _BAD_ALLOCATORS)
def test_a_background_server_refuses_a_bad_allocator(entry, message, tmp_path):
    config = ServeConfig(allocator=json.loads(entry), trace_dir=str(tmp_path))
    with pytest.raises(ServeError, match=message):
        start_background(config)
