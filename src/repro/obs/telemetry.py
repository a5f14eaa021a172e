"""Process-local telemetry: hierarchical spans, counters, gauges, JSONL sinks.

Design constraints, in order:

1. **Disabled must be free.**  Telemetry ships importable everywhere and off
   by default; ``bench_engine`` guards the zero-observer replay at <= 2%
   overhead with telemetry off.  Every entry point therefore collapses to a
   shared singleton when disabled: :meth:`Telemetry.span` returns
   :data:`NULL_SPAN` (an empty context manager), :meth:`Telemetry.counter`
   returns :data:`NULL_COUNTER` (whose ``value`` is pinned at 0), and no
   registry entry, event dict, or file is ever created.  Hot classes cache
   ``telemetry.counter(...)`` **at construction time only when enabled** and
   keep ``None`` otherwise, so their per-operation cost while off is a
   single attribute-is-None check.
2. **Stdlib only.**  This module is imported by the storage substrate and
   the binary trace codec; it must not import anything from ``repro``.
3. **One JSON object per line.**  Sinks receive plain dicts; the JSONL sink
   writes them verbatim, one per line, so any log is greppable and
   ``repro obs report`` can re-render it.

Event schema (every event carries ``ev``, ``name``, and ``t`` — seconds
since the telemetry session started, monotonic):

========== ============================================================
``ev``     extra fields
========== ============================================================
meta       ``attrs`` (pid, python, platform, unix_time)
span       ``path`` (slash-joined ancestry), ``depth``, ``start``, ``dur``,
           optional ``attrs``, optional ``error`` (exception class name)
counter    ``value`` (the delta accumulated since the previous flush)
gauge      ``value`` (last value set)
event      optional ``attrs``
abort      ``error``, ``error_type``
resources  ``fields`` (see :mod:`repro.obs.resources`)
========== ============================================================

Events re-emitted from a campaign cell additionally carry ``cell`` (the
cell id); their ``t``/``start`` are relative to that *cell's* session.
Counter events always carry deltas, so summing a log's counter events per
name yields correct totals no matter how many cells or flushes produced
them.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union


# ----------------------------------------------------------------- primitives
class Counter:
    """A monotonic counter; hot paths bump ``.value`` directly."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-value-wins instrument (e.g. requests/sec of the latest run)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class _NullCounter:
    """The shared counter returned while disabled: accepts adds, stays 0."""

    __slots__ = ()
    name = "null"

    @property
    def value(self) -> int:
        return 0

    def add(self, amount: Union[int, float] = 1) -> None:
        pass


class _NullSpan:
    """The shared no-op context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Singletons handed out whenever telemetry is disabled.  Identity-testable:
#: the no-op tests assert these exact objects come back.
NULL_COUNTER = _NullCounter()
NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------- sinks
class NullSink:
    """Swallows every event (disabled telemetry)."""

    def emit(self, event: Dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Buffers events in a list (campaign worker cells, tests).

    Threads may share one: each event is a single ``list.append``, which is
    atomic.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonlSink:
    """Writes one JSON object per line to ``path`` (created eagerly).

    Threads may share one (the serve tier's event loop and its snapshot
    thread emit concurrently): a line is encoded outside the lock and
    written whole under it, so lines never interleave.  Disabled telemetry never reaches
    a sink, so the lock costs nothing then.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = str(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()

    def emit(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._handle is not None:
                self._handle.write(line)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# ------------------------------------------------------------------ telemetry
class _Span:
    """A live span: times a block and emits one ``span`` event on exit."""

    __slots__ = ("_telemetry", "name", "attrs", "_start", "_depth")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict[str, Any]) -> None:
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        telemetry = self._telemetry
        stack = telemetry._stack
        self._depth = len(stack)
        stack.append(self.name)
        self._start = telemetry.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        telemetry = self._telemetry
        duration = telemetry.now() - self._start
        stack = telemetry._stack
        # Truncate rather than pop: a child span that never exited (its
        # block raised past it) must not leave the ancestry poisoned.
        path = "/".join(stack[: self._depth + 1])
        del stack[self._depth:]
        fields: Dict[str, Any] = {
            "path": path,
            "depth": self._depth,
            "start": round(self._start, 6),
            "dur": round(duration, 6),
        }
        if self.attrs:
            fields["attrs"] = self.attrs
        if exc_type is not None:
            fields["error"] = exc_type.__name__
        telemetry.emit("span", self.name, **fields)
        return False


class Telemetry:
    """A process-local telemetry session.

    A disabled instance (the default) is inert: no registry, no sink
    writes, shared no-op singletons from every factory method.  Each thread
    keeps its own span stack, so concurrent spans (the serve tier's loop and
    snapshot threads) never report each other as parent; counter and gauge updates
    are not locked.
    """

    def __init__(self, enabled: bool = False, sink: Optional[Any] = None) -> None:
        self.enabled = bool(enabled)
        if sink is None:
            sink = MemorySink() if self.enabled else NullSink()
        self.sink = sink
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._local = threading.local()
        self._t0 = time.perf_counter()

    @property
    def _stack(self) -> List[str]:
        """The calling thread's open span names, outermost first."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        return stack

    # ------------------------------------------------------------- plumbing
    def now(self) -> float:
        """Seconds since this telemetry session started (monotonic)."""
        return time.perf_counter() - self._t0

    def emit(self, ev: str, name: str, **fields: Any) -> None:
        """Emit one structured event to the sink (no-op while disabled)."""
        if not self.enabled:
            return
        event: Dict[str, Any] = {"ev": ev, "name": name, "t": round(self.now(), 6)}
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        self.sink.emit(event)

    def ingest(self, event: Dict[str, Any]) -> None:
        """Forward an already-formed event dict (cell re-emission)."""
        if self.enabled:
            self.sink.emit(event)

    # ---------------------------------------------------------- instruments
    def counter(self, name: str) -> Counter:
        """The named counter (created on first use; NULL_COUNTER while off)."""
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def add(self, name: str, amount: Union[int, float] = 1) -> None:
        """Bump the named counter (cold-path convenience)."""
        if self.enabled:
            self.counter(name).value += amount

    def gauge(self, name: str, value: Union[int, float]) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        if not self.enabled:
            return
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        gauge.value = value

    def span(self, name: str, **attrs: Any) -> Union[_Span, _NullSpan]:
        """A timed context manager; nested spans form slash-joined paths."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, attrs)

    def record_span(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Emit a ``span`` for an interval timed outside a ``with`` block.

        ``start`` and ``end`` are :func:`time.perf_counter` readings; the
        span nests under the calling thread's open spans, as :meth:`span`
        does.  A no-op while disabled.
        """
        if not self.enabled:
            return
        stack = self._stack
        self.emit(
            "span",
            name,
            path="/".join(stack + [name]),
            depth=len(stack),
            start=round(start - self._t0, 6),
            dur=round(end - start, 6),
            attrs=attrs or None,
        )

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point-in-time ``event`` record."""
        self.emit("event", name, attrs=attrs or None)

    def abort(self, name: str, error: BaseException) -> None:
        """Emit an ``abort`` event for a raising operation."""
        self.emit("abort", name, error=str(error), error_type=type(error).__name__)

    # ------------------------------------------------------------ snapshots
    def counter_values(self) -> Dict[str, Union[int, float]]:
        """Current counter values by name (empty while disabled)."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauge_values(self) -> Dict[str, Union[int, float]]:
        """Current gauge values by name (empty while disabled)."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def flush(self) -> None:
        """Emit every non-zero counter (as a delta) and gauge, then reset
        the counters — so repeated flushes never double-count."""
        if not self.enabled:
            return
        for name, counter in sorted(self._counters.items()):
            if counter.value:
                self.emit("counter", name, value=counter.value)
                counter.value = 0
        for name, gauge in sorted(self._gauges.items()):
            self.emit("gauge", name, value=gauge.value)

    def close(self) -> None:
        """Flush pending instrument values and close the sink."""
        self.flush()
        self.sink.close()


# ------------------------------------------------------------- current session
_CURRENT = Telemetry(enabled=False)


def get_telemetry() -> Telemetry:
    """The process-current telemetry session (disabled unless configured)."""
    return _CURRENT


def configure_telemetry(
    path: Optional[Union[str, os.PathLike]] = None,
    sink: Optional[Any] = None,
    enabled: bool = True,
) -> Telemetry:
    """Install (and return) a new process-current telemetry session.

    ``path`` selects a :class:`JsonlSink`; ``sink`` overrides it; with
    neither, an enabled session buffers into a :class:`MemorySink`.  The
    session-start ``meta`` event is emitted here, so logs are self-dating.
    """
    global _CURRENT
    if sink is None and path is not None:
        sink = JsonlSink(path)
    telemetry = Telemetry(enabled=enabled, sink=sink)
    if telemetry.enabled:
        telemetry.emit(
            "meta",
            "session",
            attrs={
                "pid": os.getpid(),
                "python": sys.version.split()[0],
                "platform": sys.platform,
                "unix_time": round(time.time(), 3),
            },
        )
    _CURRENT = telemetry
    return telemetry


def reset_telemetry() -> None:
    """Install a fresh disabled session (tests; does not close the old sink)."""
    global _CURRENT
    _CURRENT = Telemetry(enabled=False)


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Temporarily make ``telemetry`` the process-current session."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    try:
        yield telemetry
    finally:
        _CURRENT = previous


def _activate_from_env() -> None:
    """Honor ``REPRO_TELEMETRY`` at import: a path means a JSONL sink, a
    bare truthy value means an in-memory sink.  Activation failures warn
    instead of breaking every ``repro`` import."""
    value = os.environ.get("REPRO_TELEMETRY", "")
    if not value or value == "0":
        return
    try:
        if value in ("1", "mem", "memory"):
            configure_telemetry(sink=MemorySink())
        else:
            configure_telemetry(path=value)
    except OSError as error:  # pragma: no cover - defensive
        print(f"repro: cannot activate REPRO_TELEMETRY={value!r}: {error}", file=sys.stderr)
        return
    # Nothing else owns this session (unlike `repro sweep --telemetry`,
    # which closes its own sink), so flush pending counters/gauges at
    # interpreter exit — otherwise an env-activated log has spans only.
    import atexit

    atexit.register(lambda: _CURRENT.close())


_activate_from_env()
