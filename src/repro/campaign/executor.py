"""Parallel campaign execution.

Each :class:`~repro.campaign.spec.CampaignCell` is an independent unit of
work: build the trace from the cell seed, replay it on a freshly built
allocator through :meth:`~repro.engine.EngineSession.run` (the device
model rides along as a :class:`~repro.engine.DeviceObserver`, any observers
requested by the spec are attached per cell), then charge the execution
under the cell's cost function.  Cells are therefore embarrassingly
parallel, and :func:`run_campaign` fans them out over a ``multiprocessing``
pool when ``jobs > 1``.

Resumption: ``run_campaign(..., completed=...)`` accepts records from an
earlier run keyed by ``cell_id``; cells :func:`reusable_record` accepts are
not re-executed — the old record is carried over (re-indexed, stamped
``"resumed": true``) and only the missing, failed or stale cells run.

Crash safety: ``run_campaign(..., journal=...)`` appends every freshly
executed record to a :class:`~repro.campaign.queue.CellJournal` the moment
it completes, and a ``KeyboardInterrupt`` mid-run (serial or pooled) stops
the sweep but *keeps* the records finished so far — the result is stamped
``metadata["interrupted"] = True`` so the artifact writer marks it and a
later ``--resume`` picks up the missing cells instead of restarting.

Fault isolation: the worker traps *any* exception (unknown spec kinds, bad
parameters, allocator bugs mid-trace) and returns an error record carrying
the traceback, so one broken cell shows up in the artifact instead of
killing the sweep.  Determinism: a cell's result depends only on its payload
(the seed is derived in the spec layer), so a parallel run produces exactly
the same records as a serial one, just possibly finishing out of order; the
campaign reorders them by cell index before returning.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    SpecError,
    build_allocator,
    build_cost,
    build_device,
    build_observer,
    build_workload,
)
from repro.engine import DeviceObserver, Observer
from repro.metrics.collector import run_trace
from repro.obs.resources import resource_record, snapshot_resources
from repro.obs.telemetry import MemorySink, Telemetry, get_telemetry, use_telemetry

#: Called after each cell finishes: ``progress(done, total, record)``.
ProgressCallback = Callable[[int, int, Dict[str, Any]], None]

#: Bumped whenever the fields or semantics of a cell record change, so a
#: resume never mixes records produced under older measurement semantics
#: into a new artifact.  v3 added the ``resources`` field (and, under
#: ``--telemetry``, the per-cell counter/span snapshots).
RECORD_VERSION = 3

#: Cap on the span events copied into a cell record: enough for the full
#: engine phase tree of a cell, bounded even if a future observer emits
#: spans per request.
_MAX_CELL_SPANS = 200


@dataclass
class CampaignResult:
    """All per-cell records of one campaign run plus run-level timing."""

    spec: CampaignSpec
    records: List[Dict[str, Any]]
    jobs: int
    elapsed_seconds: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok_records(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["status"] == "ok"]

    @property
    def error_records(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["status"] == "error"]


def reusable_record(
    completed: Optional[Dict[str, Dict[str, Any]]], cell: CampaignCell
) -> Optional[Dict[str, Any]]:
    """``cell``'s record from an earlier run (``completed`` maps ``cell_id``
    to record), re-indexed and stamped ``"resumed": true``; ``None`` when
    the cell must run again — no record, not ``"ok"``, or stale (another
    derived seed, observer configuration or :data:`RECORD_VERSION`).  The
    one reuse rule of both :func:`run_campaign` and the work queue."""
    previous = (completed or {}).get(cell.cell_id)
    if (
        previous is None
        or previous.get("status") != "ok"
        or previous.get("seed") != cell.seed
        or previous.get("observers", []) != list(cell.observers)
        or previous.get("record_version") != RECORD_VERSION
    ):
        return None
    return dict(previous, index=cell.index, resumed=True)


def run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one campaign cell; never raises (errors become records).

    Every record carries a ``resources`` field (CPU time, peak RSS, GC
    deltas over the cell).  With ``payload["telemetry"]`` set, the cell runs
    under its own in-memory telemetry session — the process-current session
    is swapped for the duration, so pool workers never write to a sink
    inherited over ``fork`` — and its counter values and span events land in
    ``record["telemetry"]``.  ``payload["profile_dir"]`` additionally wraps
    the cell in ``cProfile`` and dumps ``cell-<index>.pstats`` there.
    """
    started = time.perf_counter()
    record: Dict[str, Any] = {
        "index": payload["index"],
        "cell_id": payload["cell_id"],
        "workload": payload["workload"],
        "allocator": payload["allocator"],
        "cost": payload["cost"],
        "device": payload["device"],
        "seed": payload["seed"],
        "observers": payload.get("observers", []),
        "record_version": RECORD_VERSION,
    }
    telemetry_on = bool(payload.get("telemetry"))
    cell_telemetry = Telemetry(enabled=telemetry_on, sink=MemorySink() if telemetry_on else None)
    profile_dir = payload.get("profile_dir")
    profiler = None
    if profile_dir:
        import cProfile

        profiler = cProfile.Profile()
    before = snapshot_resources()
    with use_telemetry(cell_telemetry):
        try:
            if profiler is not None:
                profiler.enable()
            try:
                with cell_telemetry.span("cell", cell_id=payload["cell_id"]):
                    record.update(_execute(payload))
            finally:
                if profiler is not None:
                    profiler.disable()
            record["status"] = "ok"
        except Exception:
            record["status"] = "error"
            record["error"] = traceback.format_exc(limit=20)
    record["elapsed_seconds"] = round(time.perf_counter() - started, 6)
    record["resources"] = resource_record(before, snapshot_resources())
    if telemetry_on:
        spans = [e for e in cell_telemetry.sink.events if e.get("ev") == "span"]
        record["telemetry"] = {
            "counters": cell_telemetry.counter_values(),
            "gauges": cell_telemetry.gauge_values(),
            "spans": spans[:_MAX_CELL_SPANS],
        }
    if profiler is not None:
        profile_path = os.path.join(profile_dir, f"cell-{payload['index']:04d}.pstats")
        try:
            profiler.dump_stats(profile_path)
            record["profile"] = profile_path
        except OSError:
            pass
    return record


def _execute(payload: Dict[str, Any]) -> Dict[str, Any]:
    trace = build_workload(payload["workload"], seed=payload["seed"])
    allocator = build_allocator(payload["allocator"])
    cost = build_cost(payload["cost"])
    device = build_device(payload["device"])
    spec_observers = [build_observer(entry) for entry in payload.get("observers", [])]
    for observer in spec_observers:
        # Cell-aware observers (e.g. trace_recorder's "{cell}" path
        # placeholder) learn which cell they instrument; parallel cells
        # must never share an output path.
        bind = getattr(observer, "bind_cell", None)
        if callable(bind):
            bind(index=payload["index"], cell_id=payload["cell_id"])

    observers: List[Observer] = list(spec_observers)
    device_observer = None
    if device is not None:
        device_observer = DeviceObserver(device)
        observers.append(device_observer)
    metrics = run_trace(
        allocator,
        trace,
        cost_functions=(cost,),
        observers=observers,
        # Streaming replay workloads may request a sharded replay of their
        # block-indexed trace ("jobs": N in the spec entry); everything else
        # replays serially.  Inside a pooled campaign worker the sharded
        # path falls back to serial on its own (no nested pools).
        jobs=int(getattr(trace, "replay_jobs", 1)),
    )

    # Trace-shape statistics come from the allocator, not the workload: a
    # streaming source (replay workload with "stream": true) has no len()
    # or precomputed properties, and for a materialised Trace the freshly
    # built allocator's view agrees exactly (the streaming-equivalence
    # tests pin this down).
    stats = allocator.stats
    result: Dict[str, Any] = {
        "trace_label": metrics.trace,
        "requests": metrics.requests,
        "inserts": stats.inserts,
        "deletes": stats.deletes,
        "delta": allocator.delta,
        "inserted_volume": stats.total_allocated_volume,
        "final_volume": metrics.final_volume,
        "final_footprint": metrics.final_footprint,
        "max_footprint": metrics.max_footprint,
        "max_footprint_ratio": round(metrics.max_footprint_ratio, 6),
        "mean_footprint_ratio": round(metrics.mean_footprint_ratio, 6),
        "cost_ratio": round(metrics.cost_ratios[cost.name], 6),
        "total_moves": metrics.total_moves,
        "total_moved_volume": metrics.total_moved_volume,
        "moves_per_insert": round(metrics.moves_per_insert, 6),
        "max_request_moved_volume": metrics.max_request_moved_volume,
    }
    if device_observer is not None:
        # Read through the observer, not the local: a sharded replay adopts
        # the merged worker device into the observer instance.
        device_stats = device_observer.device.stats
        result["device_elapsed_ms"] = round(device_stats.elapsed_ms, 3)
        result["device_units_written"] = device_stats.units_written
        result["device_moves"] = device_stats.moves
    for observer in spec_observers:
        key = getattr(observer, "export_key", None)
        export = getattr(observer, "export", None)
        if key and callable(export):
            result[key] = export()
    return result


def _emit_cell_telemetry(telemetry: Telemetry, record: Dict[str, Any]) -> None:
    """Re-emit one finished cell's telemetry into the campaign-level sink.

    Pool workers buffer their cell's events in memory (they cannot share
    the parent's JSONL file handle); as each record arrives the parent
    stamps the events with the cell id and forwards them, which is what
    lets ``repro obs report`` render per-cell span trees from one log.
    Cell counter values are per-cell totals, i.e. deltas of the whole log,
    so the report's per-name summation stays correct.
    """
    if not telemetry.enabled:
        return
    cell_id = str(record.get("cell_id", "?"))
    telemetry.event(
        "cell.done",
        cell=cell_id,
        status=record.get("status"),
        elapsed_seconds=record.get("elapsed_seconds"),
        resumed=bool(record.get("resumed")),
    )
    resources = record.get("resources")
    if isinstance(resources, dict):
        telemetry.emit("resources", "cell", cell=cell_id, fields=resources)
    cell_data = record.get("telemetry")
    if not isinstance(cell_data, dict):
        return
    for span in cell_data.get("spans", []):
        event = dict(span)
        event["cell"] = cell_id
        telemetry.ingest(event)
    now = round(telemetry.now(), 6)
    for name, value in cell_data.get("counters", {}).items():
        if value:
            telemetry.ingest({"ev": "counter", "name": name, "t": now, "value": value, "cell": cell_id})
    for name, value in cell_data.get("gauges", {}).items():
        telemetry.ingest({"ev": "gauge", "name": name, "t": now, "value": value, "cell": cell_id})


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    completed: Optional[Dict[str, Dict[str, Any]]] = None,
    telemetry: bool = False,
    profile_dir: Optional[str] = None,
    journal: Optional[Any] = None,
) -> CampaignResult:
    """Run every cell of ``spec``, serially or over ``jobs`` processes.

    ``jobs <= 0`` means one worker per available CPU.  The returned records
    are ordered by cell index regardless of completion order.

    ``completed`` maps ``cell_id`` to a record from an earlier run of the
    same spec (see :func:`repro.campaign.artifacts.completed_records`).  A
    cell is skipped only when :func:`reusable_record` accepts its previous
    record, which is carried into the result; only the remaining cells
    execute.  This is what ``repro sweep --resume`` uses to finish a
    half-completed sweep; anything stale simply re-runs.

    ``telemetry=True`` (or an enabled process-current telemetry session)
    makes every cell capture counter/span snapshots into its record; the
    campaign re-emits them — stamped with the cell id — into the current
    session's sink.  ``profile_dir`` enables per-cell ``cProfile`` dumps.

    ``journal`` (anything with an ``append(record)`` method, normally a
    :class:`~repro.campaign.queue.CellJournal`) receives every freshly
    executed record the moment it finishes, so completed work survives a
    crash that never reaches the artifact writer.  A ``KeyboardInterrupt``
    mid-run is trapped: the records completed so far are returned (and
    journaled) and ``metadata["interrupted"]`` is set.
    """
    cells = spec.expand()
    session = get_telemetry()
    telemetry = bool(telemetry) or session.enabled
    if profile_dir:
        os.makedirs(profile_dir, exist_ok=True)
    if len(cells) > 1:
        # A recorder path without the {cell} placeholder would be opened
        # (and truncated) by every cell: serially each cell destroys the
        # previous recording, in parallel the interleaved writes corrupt
        # the file — while every record still claims its own recording.
        for entry in spec.observers:
            if entry.get("kind") == "trace_recorder" and "{cell}" not in str(
                entry.get("path", "")
            ):
                raise SpecError(
                    f"trace_recorder path {entry.get('path')!r} is shared by "
                    f"{len(cells)} cells; add a '{{cell}}' placeholder (replaced "
                    "by the cell index) so cells do not clobber one another's "
                    "recording"
                )
    payloads: List[Dict[str, Any]] = []
    reused: List[Dict[str, Any]] = []
    for cell in cells:
        record = reusable_record(completed, cell)
        if record is not None:
            reused.append(record)
        else:
            payload = cell.payload()
            if telemetry:
                payload["telemetry"] = True
            if profile_dir:
                payload["profile_dir"] = profile_dir
            payloads.append(payload)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, max(1, len(payloads)))

    started = time.perf_counter()
    records: List[Dict[str, Any]] = list(reused)
    done = 0
    interrupted = False

    def collect(record: Dict[str, Any]) -> None:
        # Durability first: the record reaches the journal before anything
        # that might raise (telemetry sinks, progress callbacks), so a
        # Ctrl-C landing in either never loses a finished cell.
        nonlocal done
        records.append(record)
        if journal is not None:
            journal.append(record)
        _emit_cell_telemetry(session, record)
        done += 1
        if progress is not None:
            progress(done, len(payloads), record)

    with session.span("sweep.run", campaign=spec.name, cells=len(cells), jobs=jobs):
        try:
            if jobs == 1:
                for payload in payloads:
                    collect(run_cell(payload))
            else:
                with multiprocessing.Pool(processes=jobs) as pool:
                    for record in pool.imap_unordered(run_cell, payloads):
                        collect(record)
        except KeyboardInterrupt:
            # The sweep stops here, but every completed record is already
            # collected (and journaled): the caller writes a partial artifact
            # stamped "interrupted" and --resume finishes the matrix later.
            # The pool context manager terminates any still-running workers.
            interrupted = True
    session.flush()
    records.sort(key=lambda r: r["index"])
    elapsed = time.perf_counter() - started

    return CampaignResult(
        spec=spec,
        records=records,
        jobs=jobs,
        elapsed_seconds=elapsed,
        metadata={
            "cells": len(records),
            "ok": sum(1 for r in records if r["status"] == "ok"),
            "errors": sum(1 for r in records if r["status"] == "error"),
            "resumed": len(reused),
            "interrupted": interrupted,
            "telemetry": telemetry,
            "profile_dir": profile_dir,
        },
    )
