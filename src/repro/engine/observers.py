"""The observer protocol: pluggable instrumentation for trace replay.

Every per-replay measurement beyond the allocator's own
:class:`~repro.core.stats.AllocatorStats` — footprint-over-time series, gap
histograms, device timing, trace recording — is an :class:`Observer`
attached to a replay.  Allocators emit events through their observer list
while a request is served:

* ``on_request(record)`` — after every insert/delete, with the full
  :class:`~repro.core.events.RequestRecord`;
* ``on_move(move)`` — at the instant of each placement or relocation;
* ``on_flush(flush)`` — when a buffer flush completes;
* ``on_checkpoint(count)`` — when checkpoints are spent;
* ``on_finish(allocator)`` — once, after the whole trace (and any pending
  deamortized work) has been served.

Observers that only override ``on_attach``/``on_finish`` are *passive*: the
engine never attaches them to the allocator, so they add zero per-request
work and keep the zero-instrumentation fast path (no ``RequestRecord`` or
``MoveEvent`` construction at all) intact.  Anything that overrides a
per-event hook is *active* and switches the replay into recording mode.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.events import FlushRecord, MoveEvent, RequestRecord
from repro.obs.telemetry import get_telemetry
from repro.workloads.base import Request


@dataclass
class ShardContext:
    """What a shard-replay worker knows about its slice of the trace.

    Handed to every mergeable observer via :meth:`Observer.begin_shard`
    before the shard's requests are replayed.  ``entry_live`` is the
    block-entry snapshot of the v3 trace — the exact ``(name, size)``
    objects live when the shard starts — which is what lets stream-derived
    observers reproduce the serial state without seeing the prefix.
    """

    shard: int  # this shard's position in the fan-out (0-based)
    shards: int  # total number of shards
    start_index: int  # global index of the shard's first request
    records: int  # requests in this shard
    total_records: int  # requests in the whole trace
    entry_live: List[Tuple[str, int]] = field(default_factory=list)


def planned_stride(total: int, max_points: int, every: int = 0) -> int:
    """The stride the adaptive sampler ends on after ``total`` requests.

    The serial sampler records every ``stride``-th request and, whenever it
    holds more than ``max_points`` samples, drops every other one and
    doubles the stride — so at any moment its buffer is exactly the
    multiples of the current stride.  The (max_points+1)-th multiple is
    what triggers each doubling, hence: the final stride is the smallest
    power of two ``s`` with ``max_points * s >= total``.  Shard workers
    sample at this stride from the start (at global indices), which makes
    the concatenated shard series byte-identical to the serial one.
    """
    if every:
        return every
    stride = 1
    while max_points * stride < total:
        stride *= 2
    return stride


class Observer:
    """No-op base class; subclass and override the hooks you need."""

    #: Whether shard-replay results of this observer can be combined via
    #: :meth:`merge`.  Order-dependent observers (anything whose output
    #: depends on the allocator's full placement history, like a footprint
    #: series) leave this False, which forces serial replay.
    mergeable = False
    #: True when a merged shard replay is byte-identical to the serial one
    #: (the observer is derived purely from the request stream).  False for
    #: mergeable observers with documented sharded-reduction semantics
    #: (per-shard allocator state combined by sum/max/concat).
    merge_exact = False
    #: Whether the observer's state can be pickled into a session snapshot
    #: (see :meth:`repro.engine.session.EngineSession.snapshot`).  Observers
    #: holding external resources — an open trace writer, a live file
    #: handle — set this False; their state lives in the artifact they
    #: manage, not in the snapshot.
    snapshotable = True

    def on_attach(self, allocator) -> None:
        """Called once when the observer joins a replay, before any request."""

    def begin_shard(self, context: ShardContext) -> None:
        """Called before a shard replay, instead of seeing the trace prefix.

        Mergeable observers use ``context`` (global start index, total
        request count, block-entry live snapshot) to set up state exactly
        as if the prefix had been replayed.  Only called when
        :attr:`mergeable` is True.
        """

    def merge(self, other: "Observer") -> None:
        """Fold the next shard's finished observer into this one, in order.

        Shards must be merged left to right starting from shard 0; the
        result accumulates in ``self``.  Only called when
        :attr:`mergeable` is True.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement merge()"
        )

    def on_request(self, record: RequestRecord) -> None:
        """Called after every served request with its full record."""

    def on_move(self, move: MoveEvent) -> None:
        """Called for every placement and relocation as it happens."""

    def on_flush(self, flush: FlushRecord) -> None:
        """Called when a buffer flush completes."""

    def on_checkpoint(self, count: int) -> None:
        """Called when ``count`` checkpoints are spent."""

    def on_finish(self, allocator) -> None:
        """Called once after the replay (including pending work) completes."""

    def on_abort(self, allocator, error: BaseException) -> None:
        """Called instead of ``on_finish`` when the replay raises.

        Observers holding external resources (an open trace writer, a file
        handle) release them here; ``on_finish`` is never called for an
        aborted replay.
        """


#: The per-event hooks whose presence makes an observer *active* (it must
#: see records/moves as they happen, so the allocator records events).
EVENT_HOOKS = ("on_request", "on_move", "on_flush", "on_checkpoint")


def needs_events(observer: Observer) -> bool:
    """True if ``observer`` overrides any per-event hook."""
    return any(
        getattr(type(observer), hook, None) is not getattr(Observer, hook)
        for hook in EVENT_HOOKS
    )


# ---------------------------------------------------------------------- series
def decimate_series(indices: List[int], series: Sequence[List]) -> None:
    """Drop every other sample in place, keeping ``series`` aligned with
    ``indices`` (the adaptive-mode step that accompanies stride doubling).
    Shared by :class:`SampledSeriesObserver` and
    :class:`~repro.engine.analytics.TraceAnalyticsObserver`."""
    indices[:] = indices[::2]
    for values in series:
        values[:] = values[::2]


class SampledSeriesObserver(Observer):
    """Base class for bounded request-indexed series observers.

    Two sampling modes, shared by every series observer:

    * ``every=N`` — record every ``N``-th request (the legacy ``sample_every``
      behaviour of ``run_trace``; the series grows with the trace).
    * ``max_points=M`` (the default, ``every=0``) — adaptive stride sampling:
      start recording every request, and whenever the buffer exceeds ``M``
      points drop every other sample and double the stride.  The series is
      deterministic, covers the whole trace, and never holds more than ``M``
      points — a 10M-request replay keeps the same bounded memory as a
      10k-request one.

    Subclasses implement ``_sample`` (append one sample to each of their
    series lists) and ``_series`` (return those lists so decimation keeps
    them aligned with :attr:`indices`).

    In shard mode (:meth:`begin_shard`) the observer counts requests at
    global trace indices and samples at the serial run's *final* stride
    (:func:`planned_stride`) from the start, so decimation never triggers
    and concatenating the shard series left to right reproduces the serial
    sample indices exactly.  Whether the sampled *values* match the serial
    run depends on the subclass (``merge_exact``).
    """

    def __init__(self, every: int = 0, max_points: int = 512) -> None:
        if every < 0:
            raise ValueError(f"every must be >= 0, got {every}")
        if max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        self.every = int(every)
        self.max_points = int(max_points)
        self.indices: List[int] = []
        self._seen = 0
        self._stride = self.every if self.every else 1
        self._shard: Optional[ShardContext] = None

    def _sample(self, record: RequestRecord) -> None:
        """Append one sample to every series list (subclass hook)."""
        raise NotImplementedError

    def _series(self) -> Tuple[List, ...]:
        """The sample lists decimated alongside ``indices`` (subclass hook)."""
        raise NotImplementedError

    def begin_shard(self, context: ShardContext) -> None:
        self._shard = context
        self._seen = context.start_index
        self._stride = planned_stride(context.total_records, self.max_points, self.every)

    def merge(self, other: "SampledSeriesObserver") -> None:
        self.indices.extend(other.indices)
        for mine, theirs in zip(self._series(), other._series()):
            mine.extend(theirs)
        self._seen = other._seen

    def on_request(self, record: RequestRecord) -> None:
        index = self._seen
        self._seen += 1
        if index % self._stride != 0:
            return
        self.indices.append(index)
        self._sample(record)
        if not self.every and self._shard is None and len(self.indices) > self.max_points:
            # Adaptive mode: decimate in place and double the stride.  Shard
            # mode already samples at the final stride, so a shard never
            # collects more than max_points samples and never decimates.
            decimate_series(self.indices, self._series())
            self._stride *= 2

    def _export_base(self) -> Dict[str, Any]:
        return {
            "stride": self._stride,
            "requests_seen": self._seen,
            "indices": list(self.indices),
        }


class FootprintSeriesObserver(SampledSeriesObserver):
    """Downsampled footprint/volume series with bounded memory."""

    export_key = "footprint_series"

    def __init__(self, every: int = 0, max_points: int = 512) -> None:
        super().__init__(every=every, max_points=max_points)
        self.footprint: List[int] = []
        self.volume: List[int] = []

    def _sample(self, record: RequestRecord) -> None:
        self.footprint.append(record.footprint_after)
        self.volume.append(record.volume_after)

    def _series(self) -> Tuple[List, ...]:
        return (self.footprint, self.volume)

    def export(self) -> Dict[str, Any]:
        """A JSON-serialisable summary (used by campaign artifacts)."""
        out = self._export_base()
        out["footprint"] = list(self.footprint)
        out["volume"] = list(self.volume)
        return out


class GapHistogramObserver(SampledSeriesObserver):
    """Power-of-two gap-size occupancy over time, with bounded memory.

    Each sample is a histogram of the allocator's current free gaps bucketed
    by power-of-two length — the fragmentation fingerprint the free-list
    policies differ on.  Free-list allocators expose their
    :class:`~repro.storage.gap_index.GapIndex` gaps via ``free_extents()``
    (an ordered O(n) walk); every other allocator falls back to the address
    space's gaps below the footprint (``space.free_gaps()``).

    Mergeable with sharded-reduction semantics (``merge_exact = False``):
    shard series concatenate at the serial sample indices, but each sample
    reads a per-shard allocator whose layout started from a freshly seeded
    block-entry snapshot, so the histograms approximate the serial ones.
    """

    mergeable = True
    export_key = "gap_histogram"

    def __init__(self, every: int = 0, max_points: int = 128) -> None:
        super().__init__(every=every, max_points=max_points)
        self.counts: List[Dict[int, int]] = []  # per sample: exponent -> gaps
        self.total_gaps: List[int] = []
        self.free_volume: List[int] = []
        self._allocator = None

    def on_attach(self, allocator) -> None:
        self._allocator = allocator

    def _gaps(self):
        allocator = self._allocator
        if hasattr(allocator, "free_extents"):
            return allocator.free_extents()
        return allocator.space.free_gaps()

    def _sample(self, record: RequestRecord) -> None:
        histogram: Dict[int, int] = {}
        total = 0
        volume = 0
        for extent in self._gaps():
            exponent = extent.length.bit_length() - 1
            histogram[exponent] = histogram.get(exponent, 0) + 1
            total += 1
            volume += extent.length
        self.counts.append(histogram)
        self.total_gaps.append(total)
        self.free_volume.append(volume)

    def _series(self) -> Tuple[List, ...]:
        return (self.counts, self.total_gaps, self.free_volume)

    def on_finish(self, allocator) -> None:
        # Sampling is over; dropping the allocator reference keeps the
        # observer small when it is pickled back from a shard worker.
        self._allocator = None

    def export(self) -> Dict[str, Any]:
        """Bucket-aligned count rows per sample (JSON-serialisable)."""
        exponents = sorted({e for sample in self.counts for e in sample})
        out = self._export_base()
        out["buckets"] = [[1 << e, (1 << (e + 1)) - 1] for e in exponents]
        out["counts"] = [[sample.get(e, 0) for e in exponents] for sample in self.counts]
        out["total_gaps"] = list(self.total_gaps)
        out["free_volume"] = list(self.free_volume)
        return out


class PerClassOccupancyObserver(SampledSeriesObserver):
    """Live object count and volume per power-of-two size class over time.

    Derived purely from the request stream (insert adds to the class of the
    object's size, delete removes), so it works identically on every
    allocator and never touches allocator internals.

    Exactly mergeable: a shard seeds its live-class state from the
    block-entry snapshot and samples at the serial stride, so merged shard
    results are byte-identical to a serial replay.
    """

    mergeable = True
    merge_exact = True
    export_key = "per_class_occupancy"

    def __init__(self, every: int = 0, max_points: int = 128) -> None:
        super().__init__(every=every, max_points=max_points)
        self._live_counts: Dict[int, int] = {}
        self._live_volumes: Dict[int, int] = {}
        self.counts: List[Dict[int, int]] = []
        self.volumes: List[Dict[int, int]] = []

    def begin_shard(self, context: ShardContext) -> None:
        super().begin_shard(context)
        for _name, size in context.entry_live:
            exponent = size.bit_length() - 1
            self._live_counts[exponent] = self._live_counts.get(exponent, 0) + 1
            self._live_volumes[exponent] = self._live_volumes.get(exponent, 0) + size

    def on_request(self, record: RequestRecord) -> None:
        exponent = record.size.bit_length() - 1
        if record.op == "insert":
            self._live_counts[exponent] = self._live_counts.get(exponent, 0) + 1
            self._live_volumes[exponent] = self._live_volumes.get(exponent, 0) + record.size
        else:
            count = self._live_counts.get(exponent, 0) - 1
            volume = self._live_volumes.get(exponent, 0) - record.size
            if count > 0:
                self._live_counts[exponent] = count
                self._live_volumes[exponent] = volume
            else:
                self._live_counts.pop(exponent, None)
                self._live_volumes.pop(exponent, None)
        super().on_request(record)

    def _sample(self, record: RequestRecord) -> None:
        self.counts.append(dict(self._live_counts))
        self.volumes.append(dict(self._live_volumes))

    def _series(self) -> Tuple[List, ...]:
        return (self.counts, self.volumes)

    def export(self) -> Dict[str, Any]:
        """Class-aligned count/volume rows per sample (JSON-serialisable)."""
        exponents = sorted(
            {e for sample in self.counts for e in sample}
            | {e for sample in self.volumes for e in sample}
        )
        out = self._export_base()
        out["classes"] = [[1 << e, (1 << (e + 1)) - 1] for e in exponents]
        out["count"] = [[sample.get(e, 0) for e in exponents] for sample in self.counts]
        out["volume"] = [[sample.get(e, 0) for e in exponents] for sample in self.volumes]
        return out


# -------------------------------------------------------------------- recorder
class TraceRecorderObserver(Observer):
    """Stream the replayed requests straight to an on-disk trace file.

    Attaching this observer to a live engine run records the workload it
    served — synthetic, adversarial, or generated on the fly — as a v3 (or
    v1; v0 and v2 are read-only) trace file via the same streaming
    :func:`~repro.workloads.replay.open_trace_writer` path ``repro trace
    convert`` uses, so a multi-million-request run is captured without ever
    materialising it.  If the replay raises, the partial file is aborted and
    left truncation-detectable (no END trailer: readers refuse it loudly).

    In a campaign spec, ``"{cell}"`` in ``path`` is replaced by the cell
    index, so parallel cells never clobber one another's recording.
    """

    export_key = "trace_recorder"
    #: The open writer (and its worker thread in background mode) cannot be
    #: pickled into a session snapshot; the recording itself is the artifact.
    snapshotable = False

    def __init__(
        self,
        path: str,
        version: int = 3,
        compress: Union[bool, str] = False,
        label: str = "recorded",
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not path:
            raise ValueError("trace_recorder needs a non-empty 'path'")
        self.path = str(path)
        self.version = int(version)
        # False / True (inline zlib) / "background" (writer-thread zlib,
        # byte-identical output) — validated by the writer at on_attach.
        self.compress = compress if isinstance(compress, str) else bool(compress)
        self.label = str(label)
        self.metadata = dict(metadata) if metadata else None
        self.requests_written = 0
        self.file_bytes = 0
        self.write_seconds = 0.0
        self._writer = None
        self._closed = False
        self._timed = False

    def bind_cell(self, index: int, cell_id: str) -> None:
        """Substitute the ``{cell}`` placeholder (called by the executor)."""
        self.path = self.path.replace("{cell}", str(index))

    def on_attach(self, allocator) -> None:
        from repro.workloads.replay import open_trace_writer

        self._writer = open_trace_writer(
            self.path,
            version=self.version,
            label=self.label,
            metadata=self.metadata,
            compress=self.compress,
        )
        self._closed = False
        self.requests_written = 0
        self.write_seconds = 0.0
        # Per-write timing only exists while telemetry is on; the decision
        # is made once per replay so the untimed path stays two branches.
        self._timed = get_telemetry().enabled

    def on_request(self, record: RequestRecord) -> None:
        if record.op == "insert":
            request = Request.insert(record.name, record.size)
        else:
            request = Request.delete(record.name)
        if self._timed:
            started = time.perf_counter()
            self._writer.write(request)
            self.write_seconds += time.perf_counter() - started
        else:
            self._writer.write(request)
        self.requests_written += 1

    def on_finish(self, allocator) -> None:
        if self._writer is not None and not self._closed:
            self._writer.close()
            self._closed = True
            self.file_bytes = os.path.getsize(self.path)
            if self._timed:
                telemetry = get_telemetry()
                telemetry.add("trace_recorder.write_seconds", round(self.write_seconds, 6))
                telemetry.add("trace_recorder.requests", self.requests_written)

    def on_abort(self, allocator, error: BaseException) -> None:
        if self._writer is not None and not self._closed:
            self._writer.abort()
            self._closed = True

    def export(self) -> Dict[str, Any]:
        """Where the recording went (JSON-serialisable)."""
        out = {
            "path": self.path,
            "version": self.version,
            "compressed": self.compress,
            "requests": self.requests_written,
            "file_bytes": self.file_bytes,
        }
        if self._timed:
            # Only recorded under telemetry, and nondeterministic — kept out
            # of the export otherwise so record-equality comparisons hold.
            out["write_seconds"] = round(self.write_seconds, 6)
        return out


class HistoryObserver(Observer):
    """Retain every :class:`RequestRecord` (the ``trace=True`` flag as an
    observer, usable on any replay without reconstructing the allocator)."""

    def __init__(self) -> None:
        self.records: List[RequestRecord] = []

    def on_request(self, record: RequestRecord) -> None:
        self.records.append(record)


# ---------------------------------------------------------------------- device
class DeviceObserver(Observer):
    """Drive a :class:`~repro.storage.devices.DeviceModel` with the replay.

    Every insert becomes a device write of the object and every reallocation
    a device move (read + write) — including the moves performed while a
    pending deamortized flush is drained at the end of the replay, so the
    device sees exactly the moves the allocator's stats count.

    Mergeable (inexact): under a sharded replay each shard's device times
    its own writes and moves; merging sums the counters and concatenates
    the per-operation timings.  Write traffic is stream-derived and thus
    exact; move traffic (and SSD erase accounting) reflects each shard's
    freshly seeded allocator.
    """

    mergeable = True

    def __init__(self, device) -> None:
        self.device = device

    def merge(self, other: "DeviceObserver") -> None:
        mine = self.device.stats
        theirs = other.device.stats
        mine.reads += theirs.reads
        mine.writes += theirs.writes
        mine.moves += theirs.moves
        mine.units_read += theirs.units_read
        mine.units_written += theirs.units_written
        mine.elapsed_ms += theirs.elapsed_ms
        mine.per_operation_ms.extend(theirs.per_operation_ms)
        for attr in ("dirty_pages", "erases"):  # SolidStateModel wear state
            if hasattr(self.device, attr) and hasattr(other.device, attr):
                setattr(
                    self.device,
                    attr,
                    getattr(self.device, attr) + getattr(other.device, attr),
                )

    def on_request(self, record: RequestRecord) -> None:
        if record.op == "insert":
            self.device.write(record.size)

    def on_move(self, move: MoveEvent) -> None:
        if move.is_reallocation:
            self.device.move(move.size)


# -------------------------------------------------------------------- registry
#: Observer kinds a campaign spec may request per cell, by name.  Every
#: registered class must be constructible from JSON-able keyword arguments
#: and expose ``export()`` returning a JSON-able result plus an
#: ``export_key`` naming the record field it fills.
OBSERVER_KINDS = {
    "footprint_series": FootprintSeriesObserver,
    "gap_histogram": GapHistogramObserver,
    "per_class_occupancy": PerClassOccupancyObserver,
    "trace_recorder": TraceRecorderObserver,
    # "trace_analytics" (streaming trace analytics) is registered by
    # repro.engine.__init__ — the class lives in repro.engine.analytics,
    # which imports this module.
}


def build_observer(entry) -> Observer:
    """Build a registered observer from a spec entry (string or dict)."""
    if isinstance(entry, str):
        entry = {"kind": entry}
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ValueError(f"observer entry {entry!r} must be a kind name or a dict with 'kind'")
    params = dict(entry)
    kind = params.pop("kind")
    if kind not in OBSERVER_KINDS:
        raise ValueError(f"unknown observer {kind!r}; known: {sorted(OBSERVER_KINDS)}")
    try:
        return OBSERVER_KINDS[kind](**params)
    except (TypeError, ValueError) as error:
        raise ValueError(f"bad parameters for observer {kind!r}: {error}") from error
