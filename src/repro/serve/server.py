"""The live allocation service: one asyncio server, one session per tenant.

Architecture
------------

Each client connection speaks the varint-framed JSON protocol of
:mod:`repro.serve.protocol`.  After the hello exchange a connection is
bound to a *tenant*: in the default per-tenant-arena mode every tenant
gets its own allocator wrapped in an
:class:`~repro.engine.session.EngineSession`; in ``--shared`` mode all
connections feed one arena and object names are namespaced per tenant.

Every tenant owns a bounded :class:`asyncio.Queue` and a worker task.
Connection handlers decode frames and ``await queue.put(...)`` — a full
queue suspends the reader, which stops draining the socket, which is the
backpressure (the kernel's TCP window does the rest).  The worker pulls
items in order, *coalesces* consecutive batches up to ``max_batch``
requests, and runs each coalesced batch from apply to ack on the loop
thread: the allocator is GIL-bound pure Python, so an executor hop buys
no parallelism, only a thread wake-up per batch.  A large group holds
the loop while it applies; only ``SNAPSHOT`` and close are offloaded.

Durability contract: a batch is acked only after its applied prefix has
been recorded to the tenant's block-indexed v3 trace *and* the writer was
``sync()``-ed, so every acked request is recoverable from the trace tail.
On a crash, restore = :func:`restore_session` — unpickle the last
``SNAPSHOT`` and replay the recorded tail beyond its ``requests_applied``
watermark.  Unacked requests may be lost; that is the contract (the
client retries what it never got an ack for).  A record that fails after
its apply leaves the session ahead of its trace: that group's batches and
every later batch, ``SNAPSHOT`` and ``DRAIN`` get the error (``STATS``
reports it), so nothing is recorded on top of the gap.

Control verbs (``STATS`` / ``SNAPSHOT`` / ``DRAIN``) ride the same queue
as batches, so their responses are barriers: a DRAIN ack proves every
batch enqueued before it was applied and recorded.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.session import EngineSession
from repro.faults import fault_point
from repro.obs.telemetry import get_telemetry
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_requests,
    encode_frame,
    read_frame,
)
from repro.workloads import open_trace_writer, read_trace_tail

#: Default cap on one coalesced batch, applied and synced at once on the loop.
DEFAULT_MAX_BATCH = 4096
#: Default per-tenant queue depth (items, not requests) before backpressure.
DEFAULT_QUEUE_DEPTH = 32
#: The spans a coalesced batch emits when telemetry is on, one per step.
_BATCH_SPANS = ("serve.apply", "serve.record", "serve.sync", "serve.ack")
#: Tenant name used by the single shared arena.
SHARED_TENANT = "shared"


class ServeError(RuntimeError):
    """A server-side configuration or lifecycle problem."""


@dataclass
class ServeConfig:
    """Everything ``repro serve`` configures, as one value object."""

    allocator: Any = "first_fit"
    host: str = "127.0.0.1"
    port: int = 0
    shared_arena: bool = False
    max_batch: int = DEFAULT_MAX_BATCH
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    trace_dir: str = "."
    snapshot_dir: Optional[str] = None
    label: str = "serve"
    quiet: bool = True


class _Conn:
    """One client connection's write half, with serialized frame writes."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()

    async def send(self, message: Dict[str, Any]) -> None:
        try:
            async with self.lock:
                self.writer.write(encode_frame(message))
                await self.writer.drain()
        except (ConnectionError, RuntimeError):
            # The client went away mid-response; its session (and trace)
            # are finalized by the connection handler, not here.
            pass


@dataclass
class _Batch:
    requests: List[Any]
    seq: Any
    conn: _Conn


@dataclass
class _Control:
    op: str
    message: Dict[str, Any]
    conn: _Conn


@dataclass
class _Finalize:
    future: "asyncio.Future[Dict[str, Any]]"


class TenantSession:
    """One tenant's engine session, trace recorder, queue, and worker."""

    def __init__(self, name: str, config: ServeConfig, loop, stem: Optional[str] = None) -> None:
        from repro.campaign.spec import build_allocator

        self.name = name
        self.config = config
        self.loop = loop
        #: Artifact filename stem: a tenant reconnecting after its previous
        #: session finalized gets a numbered stem, so finished session traces
        #: are never overwritten.
        self.stem = stem or name
        self.trace_path = os.path.join(
            config.trace_dir, f"{config.label}-{self.stem}.v3"
        )
        allocator = build_allocator(config.allocator)
        self.session = EngineSession(allocator, label=name).open()
        # The session records its own trace directly (not via a
        # TraceRecorderObserver): an active observer would disable the
        # allocator's zero-observer fast path and cost the serve path the
        # throughput the saturation bench guards.
        self.writer = open_trace_writer(
            self.trace_path,
            version=3,
            label=name,
            metadata={"serve": True, "tenant": name},
        )
        self.queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=config.queue_depth)
        self.worker = loop.create_task(self._run(), name=f"tenant-{name}")
        self.result: Optional[Dict[str, Any]] = None
        #: Live connections bound to this session (a tenant may reconnect,
        #: or hold several connections); finalize only when the last drops.
        self.connections = 0
        #: The error that left the session ahead of its trace, once one has.
        self.failed: Optional[str] = None

    # ------------------------------------------------------------- the worker
    async def _run(self) -> None:
        while True:
            item = await self.queue.get()
            try:
                if isinstance(item, _Finalize):
                    await self._finalize(item)
                    return
                if isinstance(item, _Control):
                    await self._control(item)
                    continue
                # Coalesce consecutive batches (bounded by max_batch) into
                # one apply and one sync; a control item ends the run and is
                # handled right after, preserving per-connection order.
                group = [item]
                total = len(item.requests)
                trailing: Optional[Any] = None
                while total < self.config.max_batch:
                    try:
                        nxt = self.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if isinstance(nxt, _Batch):
                        group.append(nxt)
                        total += len(nxt.requests)
                    else:
                        trailing = nxt
                        break
                await self._apply_group(group)
                if isinstance(trailing, _Finalize):
                    await self._finalize(trailing)
                    return
                if isinstance(trailing, _Control):
                    await self._control(trailing)
            except Exception as error:  # pragma: no cover - defensive
                print(
                    f"repro serve: tenant {self.name}: worker error: {error}",
                    file=sys.stderr,
                )

    def _apply_and_record(
        self, requests: List[Any]
    ) -> Tuple[int, Optional[str], Tuple[float, ...]]:
        """Apply ``requests`` and durably record the applied prefix.

        Runs on the event-loop thread.  A mid-batch allocator failure rolls
        back only the failing request (``Allocator._serve_insert``), so
        the applied count is the stats delta and ``requests[:applied]``
        is exactly the prefix that took effect — which is what gets
        recorded, keeping the trace replayable to the live state.  Returns
        that count, the error if one was raised, and the
        ``perf_counter`` stamps that bound the apply, record and sync steps.
        A failed record marks the tenant failed; a failed tenant applies
        nothing and reports its error.
        """
        if self.failed is not None:
            return 0, self.failed, ()
        started = perf_counter()
        error: Optional[str] = None
        before = self.session.requests_applied
        try:
            fault_point("serve.batch.apply")
            self.session.apply(requests)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        applied = self.session.requests_applied - before
        applied_at = recorded_at = perf_counter()
        if applied:
            try:
                fault_point("serve.record.sync")
                for request in requests[:applied]:
                    self.writer.write(request)
                recorded_at = perf_counter()
                self.writer.sync()
            except Exception as exc:
                self.failed = f"trace record failed: {type(exc).__name__}: {exc}"
                return 0, self.failed, ()
        return applied, error, (started, applied_at, recorded_at, perf_counter())

    async def _apply_group(self, group: List[_Batch]) -> None:
        requests: List[Any] = []
        for batch in group:
            requests.extend(batch.requests)
        applied, error, stamps = self._apply_and_record(requests)
        offset = 0
        for batch in group:
            want = len(batch.requests)
            got = max(0, min(applied - offset, want))
            offset += want
            response: Dict[str, Any] = {
                "ok": self.failed is None and (error is None or got == want),
                "seq": batch.seq,
                "applied": got,
            }
            if not response["ok"]:
                response["error"] = error
            await batch.conn.send(response)
        telemetry = get_telemetry()
        if telemetry.enabled:
            stamps += (perf_counter(),)
            for name, start, end in zip(_BATCH_SPANS, stamps, stamps[1:]):
                telemetry.record_span(name, start, end, requests=len(requests))

    def _snapshot_sync(self, path: str) -> Dict[str, Any]:
        fault_point("serve.snapshot")
        # Sync first so the recorded trace always reaches (at least) the
        # snapshot point: restore never needs requests the trace lacks.
        self.writer.sync()
        return self.session.snapshot(path)

    async def _control(self, item: _Control) -> None:
        message, conn = item.message, item.conn
        seq = message.get("seq")
        if item.op == "stats":
            stats = self.session.stats()
            stats["recorded"] = self.writer.count
            stats["trace"] = self.trace_path
            stats["failed"] = self.failed
            await conn.send({"ok": True, "seq": seq, "stats": stats})
        elif self.failed is not None:
            await conn.send({"ok": False, "seq": seq, "error": self.failed})
        elif item.op == "snapshot":
            path = message.get("path") or self.snapshot_path()
            try:
                described = await self.loop.run_in_executor(
                    None, self._snapshot_sync, path
                )
            except Exception as error:
                await conn.send(
                    {"ok": False, "seq": seq, "error": f"{type(error).__name__}: {error}"}
                )
                return
            await conn.send({"ok": True, "seq": seq, "snapshot": described})
        elif item.op == "drain":
            self.writer.sync()
            await conn.send(
                {
                    "ok": True,
                    "seq": seq,
                    "applied": self.session.requests_applied,
                    "recorded": self.writer.count,
                }
            )
        else:  # pragma: no cover - handler validates ops before enqueueing
            await conn.send({"ok": False, "seq": seq, "error": f"unknown op {item.op!r}"})

    def _close_sync(self) -> Dict[str, Any]:
        run = self.session.close()
        self.writer.close()
        return {
            "tenant": self.name,
            "requests": run.requests,
            "trace": self.trace_path,
            "stats": {
                "volume": run.allocator.volume,
                "footprint": run.allocator.footprint,
                "num_objects": run.allocator.num_objects,
                "moves": run.allocator.stats.total_moves,
            },
        }

    async def _finalize(self, item: _Finalize) -> None:
        try:
            self.result = await self.loop.run_in_executor(None, self._close_sync)
            item.future.set_result(self.result)
        except Exception as error:
            if not item.future.done():
                item.future.set_exception(error)

    # -------------------------------------------------------------- interface
    def snapshot_path(self) -> str:
        directory = self.config.snapshot_dir or self.config.trace_dir
        return os.path.join(directory, f"{self.config.label}-{self.stem}.snap")

    async def finalize(self) -> Dict[str, Any]:
        """Enqueue the finalize barrier and wait for the session to close."""
        if self.result is not None:
            return self.result
        future: "asyncio.Future[Dict[str, Any]]" = self.loop.create_future()
        await self.queue.put(_Finalize(future))
        return await future


class ServeServer:
    """The asyncio server: accept loop, tenant registry, graceful stop."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.tenants: Dict[str, TenantSession] = {}
        self.results: List[Dict[str, Any]] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop = None
        self._client_counter = 0
        self._generations: Dict[str, int] = {}
        self.host = config.host
        self.port = config.port

    async def start(self) -> None:
        from repro.campaign.spec import build_allocator

        # A bad allocator spec raises SpecError here, before the port is
        # bound, instead of failing every tenant's first connection.
        build_allocator(self.config.allocator)
        self._loop = asyncio.get_running_loop()
        os.makedirs(self.config.trace_dir, exist_ok=True)
        if self.config.snapshot_dir:
            os.makedirs(self.config.snapshot_dir, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> List[Dict[str, Any]]:
        """Stop accepting, finalize every live tenant, return their results."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for tenant in list(self.tenants.values()):
            try:
                self.results.append(await tenant.finalize())
            except Exception as error:
                print(
                    f"repro serve: tenant {tenant.name}: close failed: {error}",
                    file=sys.stderr,
                )
        self.tenants.clear()
        return self.results

    # ------------------------------------------------------------ connections
    def _tenant_for(self, hello: Dict[str, Any]) -> Tuple[TenantSession, str]:
        """Resolve (tenant session, name prefix) for a new connection."""
        if self.config.shared_arena:
            tenant = self.tenants.get(SHARED_TENANT)
            if tenant is None:
                tenant = self._new_session(SHARED_TENANT)
                self.tenants[SHARED_TENANT] = tenant
            client = str(hello.get("tenant") or self._next_client())
            return tenant, f"{client}/"
        name = str(hello.get("tenant") or self._next_client())
        if name in self.tenants:
            # A reconnecting tenant continues its live session (and trace).
            return self.tenants[name], ""
        tenant = self._new_session(name)
        self.tenants[name] = tenant
        return tenant, ""

    def _new_session(self, name: str) -> TenantSession:
        generation = self._generations.get(name, 0) + 1
        self._generations[name] = generation
        stem = name if generation == 1 else f"{name}-r{generation}"
        return TenantSession(name, self.config, self._loop, stem=stem)

    def _next_client(self) -> str:
        self._client_counter += 1
        return f"client-{self._client_counter}"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, stream_writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(stream_writer)
        tenant: Optional[TenantSession] = None
        closed_by_client = False
        try:
            fault_point("serve.accept")
            hello = await read_frame(reader)
            if hello is None:
                return
            if hello.get("op") != "hello":
                await conn.send(
                    {"ok": False, "error": "first frame must be {'op': 'hello', ...}"}
                )
                return
            tenant, prefix = self._tenant_for(hello)
            tenant.connections += 1
            await conn.send(
                {
                    "ok": True,
                    "op": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "tenant": tenant.name if not prefix else prefix[:-1],
                    "mode": "shared" if self.config.shared_arena else "per-tenant",
                    "trace": tenant.trace_path,
                }
            )
            while True:
                message = await read_frame(reader)
                if message is None:
                    break
                op = message.get("op")
                if op == "batch":
                    try:
                        requests = decode_requests(message.get("reqs"), prefix)
                    except ProtocolError as error:
                        await conn.send(
                            {"ok": False, "seq": message.get("seq"), "error": str(error)}
                        )
                        continue
                    await tenant.queue.put(_Batch(requests, message.get("seq"), conn))
                elif op in ("stats", "snapshot", "drain"):
                    await tenant.queue.put(_Control(op, message, conn))
                elif op == "close":
                    closed_by_client = True
                    break
                else:
                    await conn.send(
                        {"ok": False, "seq": message.get("seq"), "error": f"unknown op {op!r}"}
                    )
        except ProtocolError as error:
            await conn.send({"ok": False, "error": str(error)})
        finally:
            if tenant is not None:
                tenant.connections -= 1
            if (
                tenant is not None
                and tenant.connections == 0
                and not self.config.shared_arena
                and tenant.name in self.tenants
            ):
                # A per-tenant arena's lifetime is its connection: finalize
                # the session so the v3 trace gets its trailer.  The shared
                # arena outlives connections and closes at server stop.
                del self.tenants[tenant.name]
                try:
                    result = await tenant.finalize()
                    self.results.append(result)
                    if closed_by_client:
                        await conn.send({"ok": True, "op": "close", "result": result})
                except Exception as error:
                    if closed_by_client:
                        await conn.send(
                            {"ok": False, "op": "close", "error": str(error)}
                        )
            elif closed_by_client:
                await conn.send({"ok": True, "op": "close"})
            try:
                stream_writer.close()
                await stream_writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass


# ---------------------------------------------------------------- entrypoints
async def _serve_until(config: ServeConfig, stop: asyncio.Event, ready=None) -> List[Dict[str, Any]]:
    server = ServeServer(config)
    await server.start()
    if not config.quiet:
        print(f"serving on {server.host}:{server.port}", flush=True)
    if ready is not None:
        ready(server)
    await stop.wait()
    return await server.stop()


def run_server(config: ServeConfig) -> int:
    """Blocking CLI entry: serve until SIGINT/SIGTERM, then drain and exit."""
    import signal

    async def _main() -> List[Dict[str, Any]]:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        return await _serve_until(config, stop)

    config.quiet = False
    results = asyncio.run(_main())
    for result in results:
        print(
            f"tenant {result['tenant']}: {result['requests']} request(s) "
            f"recorded to {result['trace']}"
        )
    return 0


@dataclass
class ServeHandle:
    """A server running on a background thread (tests and the bench)."""

    host: str
    port: int
    _loop: Any
    _stop: asyncio.Event
    _thread: threading.Thread
    results: List[Dict[str, Any]] = field(default_factory=list)

    def stop(self) -> List[Dict[str, Any]]:
        """Signal the server to drain and wait for the thread to finish."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=60)
        return self.results


def start_background(config: ServeConfig) -> ServeHandle:
    """Start a server on a daemon thread; returns once the port is bound."""
    started = threading.Event()
    box: Dict[str, Any] = {}

    def _thread_main() -> None:
        async def _main() -> List[Dict[str, Any]]:
            stop = asyncio.Event()
            box["stop"] = stop
            box["loop"] = asyncio.get_running_loop()

            def _ready(server: ServeServer) -> None:
                box["host"], box["port"] = server.host, server.port
                started.set()

            return await _serve_until(config, stop, ready=_ready)

        try:
            box["results"] = asyncio.run(_main())
        except Exception as error:  # pragma: no cover - surfaced via timeout
            box["error"] = error
        finally:
            started.set()

    thread = threading.Thread(target=_thread_main, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30) or "port" not in box:
        raise ServeError(f"server failed to start: {box.get('error')}")
    handle = ServeHandle(
        host=box["host"],
        port=box["port"],
        _loop=box["loop"],
        _stop=box["stop"],
        _thread=thread,
    )

    original_stop = handle.stop

    def _stop_and_collect() -> List[Dict[str, Any]]:
        original_stop()
        handle.results = box.get("results") or []
        return handle.results

    handle.stop = _stop_and_collect  # type: ignore[method-assign]
    return handle


# -------------------------------------------------------------------- restore
def restore_session(snapshot_path, trace_path) -> Tuple[EngineSession, int]:
    """Recover a served session after a crash: snapshot + recorded tail.

    Unpickles the last ``SNAPSHOT`` of the session, reads the (possibly
    trailer-less) v3 trace with :func:`~repro.workloads.read_trace_tail`,
    and replays every recorded request beyond the snapshot's
    ``requests_applied`` watermark.  Because batches are acked only after
    their applied prefix is recorded and synced, the restored session is
    state-identical to the crashed one for every acked request.

    Returns ``(session, replayed)`` — the reopened session and how many
    tail requests were replayed on top of the snapshot.
    """
    session = EngineSession.restore(snapshot_path)
    tail = read_trace_tail(trace_path)
    pending = tail.requests[session.requests_applied :]
    if pending:
        session.apply(pending)
    return session, len(pending)
