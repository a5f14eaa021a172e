"""Campaign cell execution.

Each :class:`~repro.campaign.spec.CampaignCell` is an independent unit of
work: build the trace from the cell seed, replay it on a freshly built
allocator through :meth:`~repro.engine.EngineSession.run` (the device
model rides along as a :class:`~repro.engine.DeviceObserver`, any observers
requested by the spec are attached per cell), then charge the execution
under the cell's cost function.  :func:`run_cell` does exactly that for one
cell payload; :func:`repro.campaign.queue.run_campaign` drains a whole
campaign through the work queue, in the calling process or over worker
processes.

Resumption: :func:`reusable_record` is the one rule that decides whether a
record from an earlier run is carried over (re-indexed, stamped
``"resumed": true``) instead of re-running its cell; anything missing,
failed or stale simply runs again.

Fault isolation: :func:`run_cell` traps *any* exception (unknown spec
kinds, bad parameters, allocator bugs mid-trace) and returns an error
record carrying the traceback, so one broken cell shows up in the artifact
instead of killing the sweep.  Determinism: a cell's result depends only on
its payload (the seed is derived in the spec layer), so any number of
workers produces exactly the records of a serial run.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    build_allocator,
    build_cost,
    build_device,
    build_observer,
    build_workload,
)
from repro.engine import DeviceObserver, Observer
from repro.metrics.collector import run_trace
from repro.obs.resources import resource_record, snapshot_resources
from repro.obs.telemetry import MemorySink, Telemetry, use_telemetry

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
    one reuse rule of every resume and of the queue's merge."""
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
    is swapped for the duration, so worker processes never write to a sink
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
        # placeholder) learn which cell they instrument; concurrent cells
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
        # replays serially.  Inside a campaign worker process the sharded
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
