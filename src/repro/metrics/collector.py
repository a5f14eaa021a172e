"""Run a trace against an allocator and collect the paper's metrics.

:func:`run_trace` is a thin composition over one
:meth:`~repro.engine.EngineSession.run` (or a sharded
:func:`~repro.engine.run_replay_sharded`, which leaves the allocator as a
serial run would): every headline number of an :class:`ExecutionMetrics`
is read afterwards from the allocator's
:class:`~repro.core.stats.AllocatorStats`, volume and footprint, and the
cost ratios are charged after the fact from its size histograms.  Only a
requested footprint series needs an observer
(:class:`~repro.engine.FootprintSeriesObserver`), so a plain
``run_trace(allocator, trace)`` keeps the allocator's zero-instrumentation
fast path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.base import Allocator
from repro.costs.base import CostFunction
from repro.engine import (
    EngineSession,
    FootprintSeriesObserver,
    Observer,
    Replayable,
    SerialFallbackWarning,
    replay_unshardable_reason,
    run_replay_sharded,
)


@dataclass
class ExecutionMetrics:
    """Everything measured while replaying one trace on one allocator.

    The two headline numbers are :attr:`max_footprint_ratio` (the paper's
    ``a``: largest footprint divided by live volume, over all requests) and
    :attr:`cost_ratios` (the paper's ``b`` per cost function: reallocation
    cost divided by mandatory allocation cost).
    """

    allocator: str
    trace: str
    requests: int
    elapsed_seconds: float
    final_volume: int
    final_footprint: int
    max_footprint: int
    max_footprint_ratio: float
    mean_footprint_ratio: float
    total_moves: int
    total_moved_volume: int
    moves_per_insert: float
    max_request_moved_volume: int
    max_request_checkpoints: int
    total_checkpoints: int
    flushes: int
    cost_ratios: Dict[str, float] = field(default_factory=dict)
    footprint_series: List[int] = field(default_factory=list)
    volume_series: List[int] = field(default_factory=list)
    series_indices: List[int] = field(default_factory=list)

    @property
    def requests_per_second(self) -> float:
        """Throughput of the replay; ``0.0`` (never ``inf``) when the run
        finished under the clock's resolution, so the value always
        serialises cleanly into JSON."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.requests / self.elapsed_seconds

    def summary_row(self, cost_names: Optional[Sequence[str]] = None) -> List[str]:
        """A table row (strings) for the benchmark reports."""
        names = list(cost_names) if cost_names is not None else sorted(self.cost_ratios)
        row = [
            self.allocator,
            f"{self.max_footprint_ratio:.3f}",
            f"{self.moves_per_insert:.2f}",
        ]
        row.extend(f"{self.cost_ratios.get(name, 0.0):.2f}" for name in names)
        return row


def run_trace(
    allocator: Allocator,
    trace: Replayable,
    cost_functions: Sequence[CostFunction] = (),
    sample_every: int = 0,
    finish_pending: bool = True,
    observers: Sequence[Observer] = (),
    jobs: int = 1,
) -> ExecutionMetrics:
    """Replay ``trace`` on ``allocator`` and return the collected metrics.

    ``trace`` may be a materialised :class:`~repro.workloads.base.Trace`, a
    streaming :class:`~repro.workloads.base.RequestSource` (e.g. a
    :class:`~repro.workloads.replay.TraceFileSource` over an on-disk v3
    file), or any iterable of requests; the metrics are identical either
    way since every number is derived from what the allocator observed.

    Parameters
    ----------
    cost_functions:
        Cost functions to charge the execution under (after the fact — the
        allocator never sees them, which is the whole point of cost
        obliviousness).
    sample_every:
        If positive, record the footprint and volume every that many requests
        (used to regenerate the footprint-over-time figure).
    finish_pending:
        Drive any deamortized flush to completion at the end so final volumes
        and invariants are comparable across allocators.
    observers:
        Additional observers wired into the replay (experiment-specific
        instrumentation; see :mod:`repro.engine`).
    jobs:
        If greater than one, replay the trace sharded over that many worker
        processes.  Requires ``trace`` to be a
        :class:`~repro.workloads.replay.TraceFileSource` over a
        block-indexed (plain-container v3) file and every wired observer to
        be mergeable; otherwise the replay falls back to serial with a
        :class:`~repro.engine.SerialFallbackWarning` naming the reason.
        Note the footprint series is order-dependent, so requesting
        ``sample_every`` also forces serial.
    """
    series_observer: Optional[FootprintSeriesObserver] = None
    wired: List[Observer] = []
    if sample_every:
        series_observer = FootprintSeriesObserver(every=sample_every)
        wired.append(series_observer)
    wired.extend(observers)

    # A sharded replay folds every shard's stats into ``allocator`` and
    # leaves it in the last shard's final state, so both paths are read
    # the same way below.
    run = None
    if jobs > 1:
        run = run_replay_sharded(allocator, trace, wired, jobs, finish_pending=finish_pending)
        if run is None:
            reason = replay_unshardable_reason(trace, wired) or "allocator or observers cannot be pickled across processes"
            warnings.warn(
                f"parallel replay (jobs={jobs}) fell back to serial: {reason}",
                SerialFallbackWarning,
                stacklevel=2,
            )
    if run is None:
        run = EngineSession(allocator, wired, finish_pending=finish_pending).run(trace)

    stats = allocator.stats
    return ExecutionMetrics(
        allocator=allocator.describe(),
        trace=run.label,
        requests=run.requests,
        elapsed_seconds=run.elapsed_seconds,
        final_volume=allocator.volume,
        final_footprint=allocator.footprint,
        max_footprint=stats.max_footprint,
        max_footprint_ratio=stats.max_footprint_ratio,
        mean_footprint_ratio=stats.mean_footprint_ratio,
        total_moves=stats.total_moves,
        total_moved_volume=stats.total_moved_volume,
        moves_per_insert=stats.amortized_moves_per_insert,
        max_request_moved_volume=stats.max_request_moved_volume,
        max_request_checkpoints=stats.max_request_checkpoints,
        total_checkpoints=stats.checkpoints,
        flushes=stats.flushes,
        cost_ratios={f.name: stats.cost_ratio(f) for f in cost_functions},
        footprint_series=series_observer.footprint if series_observer else [],
        volume_series=series_observer.volume if series_observer else [],
        series_indices=series_observer.indices if series_observer else [],
    )
