"""The engine session: the one way to replay a trace through an allocator.

Everything the paper measures reduces to "replay a trace through an
allocator and observe what happens".  :meth:`EngineSession.run` is that
replay: open, apply the whole trace as one batch, close (or abort on a
raise).  ``run_trace``, the sharded replay workers and the campaign cells
all replay through it.  The same session also runs incrementally, as the
live allocation service (:mod:`repro.serve`) does once per tenant: attach
the observers once (:meth:`open`), feed request batches as they arrive
(:meth:`apply`), read live stats and observer analytics (:meth:`stats` /
:meth:`analytics`), checkpoint to disk (:meth:`snapshot` /
:meth:`restore`), and finish or abort at the end (:meth:`close` /
:meth:`abort`).

Only *active* observers (those overriding a per-event hook) are attached
to the allocator, so a session with passive observers (or none) replays
on the allocator's zero-instrumentation fast path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.core.base import Allocator
from repro.engine.observers import Observer, needs_events
from repro.obs.telemetry import get_telemetry
from repro.storage.checkpoint import read_snapshot, write_snapshot
from repro.workloads.base import Request, RequestSource, Trace

#: What a replay can consume: a materialised trace, a streaming source
#: (e.g. :class:`~repro.workloads.replay.TraceFileSource`), or any iterable
#: of requests.
Replayable = Union[Trace, RequestSource, Iterable[Request]]

#: Snapshot payload format tag (see :meth:`EngineSession.snapshot`).
SESSION_SNAPSHOT_FORMAT = "repro-session-snapshot"
SESSION_SNAPSHOT_VERSION = 1


class SessionStateError(RuntimeError):
    """A session method was called in the wrong lifecycle state."""


@dataclass
class EngineRun:
    """The outcome of one session (:meth:`EngineSession.run` or
    :meth:`EngineSession.close`).

    ``label`` is the replayed trace's label (``"trace"`` for a bare
    iterable), or the session's label when it was fed plain batches.
    """

    allocator: Allocator
    trace: Any
    requests: int
    elapsed_seconds: float
    observers: List[Observer] = field(default_factory=list)
    label: str = "trace"

    @property
    def requests_per_second(self) -> float:
        """Throughput of the run; ``0.0`` on sub-clock-resolution runs.

        Never ``inf``: serve-mode stats serialise this straight into JSON,
        and ``Infinity`` is not valid JSON.
        """
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.requests / self.elapsed_seconds


class EngineSession:
    """One incremental replay: observers attached, requests applied in batches.

    Parameters
    ----------
    allocator:
        The allocator under test (its state persists across batches).
    observers:
        Observers wired into the session.  Active observers (overriding a
        per-event hook) see events as they happen; passive observers only
        see ``on_attach``/``on_finish``.
    finish_pending:
        Drive any deamortized flush to completion in :meth:`close` so final
        volumes and invariants are comparable across allocators.
    label:
        Label stamped on the :class:`EngineRun` that :meth:`close` returns
        when the session was fed plain batches (a :meth:`run` keeps the
        trace's own label).
    """

    def __init__(
        self,
        allocator: Allocator,
        observers: Sequence[Observer] = (),
        finish_pending: bool = True,
        label: str = "session",
    ) -> None:
        self.allocator = allocator
        self.observers: List[Observer] = list(observers)
        self.finish_pending = finish_pending
        self.label = label
        self._active: List[Observer] = []
        self._telemetry = None
        self._opened = False
        self._finalized = False
        self._elapsed = 0.0
        self._requests_before = 0
        self._moves_before = 0
        self._flushes_before = 0

    # ------------------------------------------------------------- lifecycle
    @property
    def opened(self) -> bool:
        return self._opened and not self._finalized

    def open(self) -> "EngineSession":
        """Attach observers and baseline the stats counters.

        One telemetry lookup for the whole session, an ``engine.attach``
        span around the ``on_attach`` hooks, and only *active* observers
        attached to the allocator so the zero-instrumentation fast path is
        preserved.
        """
        if self._opened:
            raise SessionStateError("session is already open")
        allocator = self.allocator
        self._telemetry = telemetry = get_telemetry()
        self._active = [obs for obs in self.observers if needs_events(obs)]
        with telemetry.span("engine.attach"):
            for observer in self.observers:
                observer.on_attach(allocator)
        for observer in self._active:
            allocator.attach_observer(observer)
        stats = allocator.stats
        self._requests_before = stats.requests
        self._moves_before = stats.total_moves
        self._flushes_before = stats.flushes
        self._opened = True
        return self

    def _require_open(self) -> None:
        if not self._opened:
            raise SessionStateError("session is not open (call open() first)")
        if self._finalized:
            raise SessionStateError("session is already closed or aborted")

    def run(self, trace: Replayable) -> EngineRun:
        """Serve ``trace`` (a :class:`Trace`, a streaming
        :class:`~repro.workloads.base.RequestSource`, or any iterable of
        requests) in one session and return the run outcome.

        Opens the session, applies the whole trace as one batch and closes
        it.  A streaming source is consumed one request at a time, so
        replaying a 10M-request on-disk trace never materialises it.
        Observers are attached for the duration of the call only, so the
        same allocator can be replayed again with different
        instrumentation.  A session runs once: a second :meth:`run` (or one
        after :meth:`open`) raises :class:`SessionStateError`.
        """
        self.open()
        try:
            self.apply(trace)
        except BaseException as error:
            # A raising replay never reaches on_finish; the abort path gives
            # every observer its on_abort (e.g. a trace recorder aborts its
            # writer so the partial file fails loudly) and detaches the
            # active observers.
            self.abort(error)
            raise
        return self.close(trace)

    # ----------------------------------------------------------------- apply
    def apply(self, batch: Union[Iterable[Request], Sequence[Request]]) -> int:
        """Feed ``batch`` (any iterable of requests) through the allocator.

        Returns the number of requests actually applied.  On a raising
        request the allocator rolls back that request's own bookkeeping
        (see ``Allocator._serve_insert``), so the applied count stays
        derivable from the stats delta even across a mid-batch failure —
        and the exception propagates to the caller, who decides whether to
        :meth:`abort` the session (:meth:`run` does) or keep it alive (the
        serve layer reports the error and carries on).
        """
        self._require_open()
        allocator = self.allocator
        before = allocator.stats.requests
        started = time.perf_counter()
        try:
            with self._telemetry.span("engine.replay"):
                allocator.run(batch)
        finally:
            self._elapsed += time.perf_counter() - started
        return allocator.stats.requests - before

    # ------------------------------------------------------------ live reads
    @property
    def requests_applied(self) -> int:
        """Requests applied so far in this session (stats delta)."""
        return self.allocator.stats.requests - self._requests_before

    @property
    def elapsed_seconds(self) -> float:
        """Wall time spent inside :meth:`apply` (and the closing flush)."""
        return self._elapsed

    def stats(self) -> Dict[str, Any]:
        """Live, JSON-safe session stats without finishing the run.

        ``requests_per_second`` is ``0.0`` (never ``inf``) on
        sub-clock-resolution sessions, so serving these over the wire never
        puts ``Infinity`` into a JSON document.
        """
        allocator = self.allocator
        stats = allocator.stats
        elapsed = self._elapsed
        requests = stats.requests - self._requests_before
        return {
            "label": self.label,
            "requests": requests,
            "moves": stats.total_moves - self._moves_before,
            "flushes": stats.flushes - self._flushes_before,
            "volume": allocator.volume,
            "footprint": allocator.footprint,
            "max_footprint": stats.max_footprint,
            "num_objects": allocator.num_objects,
            "elapsed_seconds": round(elapsed, 6),
            "requests_per_second": (
                round(requests / elapsed, 1) if elapsed > 0 else 0.0
            ),
        }

    def analytics(self) -> Dict[str, Any]:
        """Live exports of every observer exposing ``export_key``/``export``.

        Reading analytics does not finish the session; observers that only
        compute their export in ``on_finish`` reflect the state of their
        last finish (typically empty mid-session).
        """
        out: Dict[str, Any] = {}
        for observer in self.observers:
            key = getattr(observer, "export_key", None)
            export = getattr(observer, "export", None)
            if key and callable(export):
                out[str(key)] = export()
        return out

    # -------------------------------------------------------------- snapshot
    def snapshot(self, path) -> Dict[str, Any]:
        """Checkpoint the allocator (and snapshotable observers) to ``path``.

        The payload is written atomically via
        :func:`repro.storage.checkpoint.write_snapshot`.  Observers that
        hold external resources (an open trace writer, say) declare
        ``snapshotable = False`` and are skipped — their state lives in the
        artifact they manage.  Returns a JSON-safe description of what was
        snapshotted.
        """
        self._require_open()
        observers = [
            obs for obs in self.observers if getattr(obs, "snapshotable", True)
        ]
        # The allocator's attached-observer list is session wiring, not
        # allocator state: detach for the pickle (an unsnapshotable observer
        # there would drag its resources in; a snapshotable one would come
        # back twice, since restore() re-attaches the active observers).
        for observer in self._active:
            self.allocator.detach_observer(observer)
        payload = {
            "format": SESSION_SNAPSHOT_FORMAT,
            "version": SESSION_SNAPSHOT_VERSION,
            "label": self.label,
            "allocator": self.allocator,
            "observers": observers,
            "finish_pending": self.finish_pending,
            "requests_applied": self.requests_applied,
            "moves_applied": self.allocator.stats.total_moves - self._moves_before,
            "flushes_applied": self.allocator.stats.flushes - self._flushes_before,
            "elapsed_seconds": self._elapsed,
        }
        try:
            write_snapshot(path, payload)
        finally:
            for observer in self._active:
                self.allocator.attach_observer(observer)
        return {
            "path": str(path),
            "requests_applied": payload["requests_applied"],
            "observers": len(observers),
        }

    @classmethod
    def restore(cls, path) -> "EngineSession":
        """Reopen a session from a :meth:`snapshot` file.

        The allocator (with its full stats) and the snapshotable observers
        come back pickled; the session counters continue from the snapshot
        point, so :meth:`close` reports totals spanning the crash.  The
        restored session is already open — observers are *re-attached*
        without re-running ``on_attach`` (which would reset their state).
        """
        payload = read_snapshot(path)
        if payload.get("format") != SESSION_SNAPSHOT_FORMAT:
            raise ValueError(
                f"{path}: not a session snapshot "
                f"(format {payload.get('format')!r})"
            )
        session = cls(
            payload["allocator"],
            payload.get("observers", ()),
            finish_pending=payload.get("finish_pending", True),
            label=payload.get("label", "session"),
        )
        session._telemetry = get_telemetry()
        session._active = [obs for obs in session.observers if needs_events(obs)]
        for observer in session._active:
            session.allocator.attach_observer(observer)
        stats = session.allocator.stats
        session._requests_before = stats.requests - payload["requests_applied"]
        session._moves_before = stats.total_moves - payload.get("moves_applied", 0)
        session._flushes_before = stats.flushes - payload.get("flushes_applied", 0)
        session._elapsed = payload.get("elapsed_seconds", 0.0)
        session._opened = True
        return session

    # ------------------------------------------------------------ finalizers
    def abort(self, error: BaseException) -> None:
        """Run the abort semantics of a raising replay (idempotent).

        Record the abort against the ``engine.replay`` span, give every
        observer its ``on_abort`` (one observer's cleanup failing must
        neither starve the others of theirs nor replace the original
        error), then detach the active observers.
        """
        if self._finalized or not self._opened:
            return
        self._finalized = True
        allocator = self.allocator
        self._telemetry.abort("engine.replay", error)
        for observer in self.observers:
            try:
                observer.on_abort(allocator, error)
            except Exception:
                pass
        for observer in self._active:
            allocator.detach_observer(observer)

    def close(self, trace: Any = None) -> EngineRun:
        """Finish the session and return its :class:`EngineRun`.

        Drives pending deamortized work to completion (when
        ``finish_pending``), detaches the active observers, runs
        ``on_finish`` for all of them, and pushes the telemetry counters.
        A raising flush takes the abort path (observers see ``on_abort``)
        and re-raises.

        ``trace`` is what the run was fed, recorded on the returned
        :class:`EngineRun` with its label (batch callers leave it ``None``
        and the run carries the session's label).
        """
        self._require_open()
        allocator = self.allocator
        telemetry = self._telemetry
        try:
            if self.finish_pending and hasattr(allocator, "finish_pending_work"):
                started = time.perf_counter()
                try:
                    with telemetry.span("engine.flush_pending"):
                        allocator.finish_pending_work()
                finally:
                    self._elapsed += time.perf_counter() - started
        except BaseException as error:
            self.abort(error)
            raise
        self._finalized = True
        for observer in self._active:
            allocator.detach_observer(observer)
        with telemetry.span("engine.finish"):
            for observer in self.observers:
                observer.on_finish(allocator)
        stats = allocator.stats
        requests = stats.requests - self._requests_before
        elapsed = self._elapsed
        if telemetry.enabled:
            telemetry.add("engine.replays")
            telemetry.add("engine.requests", requests)
            telemetry.add("engine.moves", stats.total_moves - self._moves_before)
            telemetry.add("engine.flushes", stats.flushes - self._flushes_before)
            if elapsed > 0:
                telemetry.gauge("engine.requests_per_sec", round(requests / elapsed, 1))
            telemetry.gauge("engine.elapsed_seconds", round(elapsed, 6))
        return EngineRun(
            allocator=allocator,
            trace=trace,
            requests=requests,
            elapsed_seconds=elapsed,
            observers=self.observers,
            label=self.label if trace is None else getattr(trace, "label", "trace"),
        )
