"""Sharded parallel replay of block-indexed (v3) traces.

A v3 trace file carries a footer index of self-contained blocks, each
opening with a snapshot of the objects live at its entry.  That is exactly
what a parallel replay needs: split the block list into contiguous ranges,
hand each range to a worker process that seeds a fresh allocator from the
entry snapshot and replays only its range, then fold the per-shard
observers back together left to right with :meth:`Observer.merge`.

What sharding can and cannot promise is an observer property:

* ``merge_exact`` observers (trace analytics, per-class occupancy) are
  derived purely from the request stream, so the merged result is
  byte-identical to a serial replay.
* Mergeable-but-inexact observers (gap histograms, device models) reduce
  per-shard allocator measurements by sum/max/concat; the numbers describe
  allocators that each started from a freshly seeded layout.  The
  allocator's own stats are folded the same way (:func:`_fold_stats`), and
  the caller's allocator ends in the last shard's final state.
* Unmergeable observers (footprint series, history, trace recording) are
  order-dependent; a replay that includes one falls back to serial with a
  clear message.

Workers run with telemetry disabled (a forked JSONL sink shared by several
processes would interleave); the coordinating process emits
``parallel.replay`` / ``parallel.merge`` spans and shard counters instead.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.analytics import TraceAnalyticsObserver
from repro.engine.observers import Observer, ShardContext
from repro.engine.session import EngineRun, EngineSession
from repro.obs.telemetry import Telemetry, get_telemetry, use_telemetry
from repro.workloads.base import Request
from repro.workloads.binary import BlockIndex, read_block_index


class SerialFallbackWarning(UserWarning):
    """A requested parallel replay fell back to serial (reason in the message)."""


#: Marks a sweep's worker processes: like the daemonic pool workers, they
#: replay serially (no nested pools).  They are not daemonic themselves, as
#: a ``--cell-timeout`` watchdog child (which inherits the marker) needs.
SWEEP_WORKER_ENV = "REPRO_SWEEP_WORKER"


def unmergeable_observers(observers: Sequence[Observer]) -> List[str]:
    """Class names of the observers that force a serial replay."""
    return [
        type(observer).__name__
        for observer in observers
        if not getattr(observer, "mergeable", False)
    ]


def shard_plan(index: BlockIndex, jobs: int) -> List[Tuple[int, int]]:
    """Split the block list into at most ``jobs`` contiguous ranges.

    Boundaries land on the block edges closest to an even split by record
    count, and every shard gets at least one block, so the plan is balanced
    whenever blocks are (the writer cuts them at a fixed record count).
    """
    blocks = index.blocks
    shards = max(1, min(int(jobs), len(blocks)))
    if shards == 1:
        return [(0, len(blocks))]
    cumulative: List[int] = []
    seen = 0
    for block in blocks:
        seen += block.records
        cumulative.append(seen)
    total = cumulative[-1]
    bounds = [0]
    for shard in range(1, shards):
        cut = bisect_left(cumulative, shard * total / shards) + 1
        cut = max(cut, bounds[-1] + 1)  # at least one block per shard…
        cut = min(cut, len(blocks) - (shards - shard))  # …including the tail
        bounds.append(cut)
    bounds.append(len(blocks))
    return list(zip(bounds, bounds[1:]))


def _shard_context(
    index: BlockIndex, start: int, stop: int, shard: int, shards: int
) -> ShardContext:
    first = index.blocks[start]
    records = sum(block.records for block in index.blocks[start:stop])
    entry = index.entry_snapshot(start) if start else []
    return ShardContext(
        shard=shard,
        shards=shards,
        start_index=first.start,
        records=records,
        total_records=index.total_records,
        entry_live=entry,
    )


def _in_shard(payload):
    """Pool entry point: run one shard's worker with telemetry disabled."""
    worker, path, start, stop, shard, shards, extra = payload
    with use_telemetry(Telemetry(enabled=False)):
        index = read_block_index(path)
        context = _shard_context(index, start, stop, shard, shards)
        return worker(index.iter_range(start, stop), context, *extra)


def _run_shards(
    path: str,
    index: BlockIndex,
    jobs: int,
    mode: str,
    worker: Callable[..., Any],
    extra: Tuple[Any, ...],
) -> List[Any]:
    """Run ``worker`` over each shard of ``index`` in a process pool.

    Each call gets the shard's request iterator, its :class:`ShardContext`
    and ``*extra``; the results come back in shard order.  Callers check
    first that ``jobs`` and the block count both allow two or more shards.
    """
    plan = shard_plan(index, jobs)
    shards = len(plan)
    telemetry = get_telemetry()
    payloads = [
        (worker, path, start, stop, shard, shards, extra)
        for shard, (start, stop) in enumerate(plan)
    ]
    with telemetry.span("parallel.replay", path=path, shards=shards, mode=mode):
        with multiprocessing.Pool(processes=shards) as pool:
            results = pool.map(_in_shard, payloads)
    telemetry.add("parallel.shards", shards)
    telemetry.add("parallel.requests", index.total_records)
    return results


# ------------------------------------------------------------------ analytics
def _analyze_shard(requests, context, death_buckets, max_points) -> TraceAnalyticsObserver:
    observer = TraceAnalyticsObserver(death_buckets=death_buckets, max_points=max_points)
    observer.begin_shard(context)
    observe = observer.observe
    for request in requests:
        observe(request)
    return observer


def analyze_trace_parallel(
    path: Union[str, os.PathLike],
    jobs: int,
    death_buckets: int = 10,
    max_points: int = 512,
) -> Optional[TraceAnalyticsObserver]:
    """Sharded one-pass analytics over a block-indexed trace.

    Returns the merged :class:`TraceAnalyticsObserver` — byte-identical to
    a serial pass (the observer is ``merge_exact``) — or ``None`` when the
    file cannot shard (not a plain-container v3 trace, or fewer than two
    blocks) so the caller can run the ordinary serial path.
    """
    path = os.fspath(path)
    if jobs <= 1 or multiprocessing.current_process().daemon or SWEEP_WORKER_ENV in os.environ:
        return None
    index = read_block_index(path)
    if index is None or len(index.blocks) < 2 or index.total_records == 0:
        return None
    shards = _run_shards(
        path, index, jobs, "analyze", _analyze_shard, (death_buckets, max_points)
    )
    with get_telemetry().span("parallel.merge", shards=len(shards)):
        merged = shards[0]
        for other in shards[1:]:
            merged.merge(other)
    return merged


# -------------------------------------------------------------- engine replay
#: AllocatorStats counters folded back into the coordinating allocator as
#: per-shard deltas (value at shard end minus value after snapshot seeding).
_SUM_FIELDS = (
    "requests",
    "inserts",
    "deletes",
    "flushes",
    "checkpoints",
    "total_allocated_volume",
    "total_moved_volume",
    "total_moves",
    "footprint_ratio_sum",
    "footprint_ratio_samples",
)
#: AllocatorStats fields folded by max (maxima over any shard's replay).
_MAX_FIELDS = (
    "max_footprint",
    "max_footprint_ratio",
    "max_request_moved_volume",
    "max_request_checkpoints",
)


def _stats_baseline(allocator) -> Dict[str, Any]:
    stats = allocator.stats
    base = {field: getattr(stats, field) for field in _SUM_FIELDS}
    base["allocated_sizes"] = dict(stats.allocated_sizes)
    base["moved_sizes"] = dict(stats.moved_sizes)
    return base


def _stats_delta(allocator, base: Dict[str, Any]) -> Dict[str, Any]:
    stats = allocator.stats
    delta = {field: getattr(stats, field) - base[field] for field in _SUM_FIELDS}
    for field in _MAX_FIELDS:
        delta[field] = getattr(stats, field)
    for name in ("allocated_sizes", "moved_sizes"):
        histogram = {}
        baseline = base[name]
        for size, count in getattr(stats, name).items():
            count -= baseline.get(size, 0)
            if count:
                histogram[size] = count
        delta[name] = histogram
    delta["delta"] = allocator.delta
    return delta


def _fold_stats(allocator, deltas: Sequence[Dict[str, Any]]) -> None:
    """Fold per-shard stat deltas into the coordinating allocator's stats.

    After the fold its counters read as totals over all shards: exact for
    stream-derived counts like inserts/deletes/allocated volume, and
    per-shard reductions (sum of deltas, max of maxima) for move and
    footprint numbers, since each shard's allocator started from a freshly
    seeded layout.  This is the one place sharded replay metrics are merged.
    """
    stats = allocator.stats
    for delta in deltas:
        for field in _SUM_FIELDS:
            setattr(stats, field, getattr(stats, field) + delta[field])
        for field in _MAX_FIELDS:
            setattr(stats, field, max(getattr(stats, field), delta[field]))
        for size, count in delta["allocated_sizes"].items():
            stats.allocated_sizes[size] += count
        for size, count in delta["moved_sizes"].items():
            stats.moved_sizes[size] += count
        if delta["delta"] > allocator._delta:
            allocator._delta = delta["delta"]


def _replay_shard(requests, context, allocator, observers, finish_pending):
    if context.entry_live:
        # Seed the shard's allocator with the objects live at its entry —
        # observer-free, so seeding takes the zero-instrumentation fast path
        # and observers never mistake it for trace requests.
        allocator.run(Request.insert(name, size) for name, size in context.entry_live)
    for observer in observers:
        observer.begin_shard(context)
    baseline = _stats_baseline(allocator)
    EngineSession(allocator, observers, finish_pending=finish_pending).run(requests)
    # Only the last shard's allocator ends where a serial replay would, so
    # only it crosses back for the caller's allocator to adopt.
    last = allocator if context.shard == context.shards - 1 else None
    return observers, _stats_delta(allocator, baseline), last


def replay_unshardable_reason(source, observers: Sequence[Observer]) -> Optional[str]:
    """Why ``source``/``observers`` cannot replay sharded (None if they can).

    Checked before any worker is spawned so the caller can fall back to a
    serial replay with a clear message.
    """
    if multiprocessing.current_process().daemon or SWEEP_WORKER_ENV in os.environ:
        return "already inside a worker process (nested process pools are not allowed)"
    blocking = unmergeable_observers(observers)
    if blocking:
        return (
            f"order-dependent observers cannot merge across shards: "
            f"{', '.join(sorted(set(blocking)))}"
        )
    path = getattr(source, "path", None)
    if path is None:
        return "trace is not an on-disk trace file (need a TraceFileSource)"
    index = read_block_index(path)
    if index is None:
        return (
            "trace is not a block-indexed plain v3 file "
            "(convert it with: repro trace convert --format v3)"
        )
    if len(index.blocks) < 2:
        return "trace has a single block (nothing to shard)"
    return None


def run_replay_sharded(
    allocator,
    source,
    observers: Sequence[Observer],
    jobs: int,
    finish_pending: bool = True,
) -> Optional[EngineRun]:
    """Replay ``source`` sharded over ``jobs`` worker processes.

    Every observer must be mergeable and ``source`` a
    :class:`~repro.workloads.replay.TraceFileSource` over a plain-container
    v3 trace; returns ``None`` (having done nothing) when those conditions
    do not hold — use :func:`replay_unshardable_reason` for the message.

    Each worker receives a pickled copy of ``allocator`` and of the
    observers, seeds its copy from the shard's block-entry snapshot,
    replays its block range, and sends the observers (plus its stat
    deltas) back; the last shard also sends its allocator.  The merged
    state is adopted into the observers passed in, ``allocator`` adopts the
    last shard's final state (objects, layout, pending work) while keeping
    its own stats, into which every shard's deltas are folded to read as
    totals over all shards.  Afterwards ``allocator`` and the returned
    :class:`EngineRun` are shaped like a serial run's.
    """
    if jobs <= 1 or replay_unshardable_reason(source, observers) is not None:
        return None
    path = os.fspath(source.path)
    index = read_block_index(path)
    extra = (allocator, list(observers), finish_pending)
    try:
        pickle.dumps(extra)
    except Exception:
        # An unpicklable allocator or observer cannot cross the process
        # boundary; the caller falls back to a serial replay.
        return None
    started = time.perf_counter()
    results = _run_shards(path, index, jobs, "engine", _replay_shard, extra)
    with get_telemetry().span("parallel.merge", shards=len(results)):
        merged = results[0][0]
        for others, _, _ in results[1:]:
            for mine, theirs in zip(merged, others):
                mine.merge(theirs)
        stats = allocator.stats
        allocator.__dict__.update(results[-1][2].__dict__)
        allocator.stats = stats
        _fold_stats(allocator, [delta for _, delta, _ in results])
        # Callers hold references to the observer instances they passed in
        # (campaign cells export from them afterwards); adopt the merged
        # worker state into those originals so sharded and serial replays
        # leave the caller's observers equally finished.
        for original, result in zip(observers, merged):
            original.__dict__.update(result.__dict__)
    return EngineRun(
        allocator=allocator,
        trace=source,
        requests=index.total_records,
        elapsed_seconds=time.perf_counter() - started,
        observers=list(observers),
        label=getattr(source, "label", "trace"),
    )
