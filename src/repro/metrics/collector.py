"""Run a trace against an allocator and collect the paper's metrics.

:func:`run_trace` is a thin composition over one observer-based
:meth:`~repro.engine.EngineSession.run`: an :class:`ExecutionMetrics` is the
product of a :class:`~repro.engine.MetricsObserver` (headline scalars), a
:class:`~repro.engine.CostObserver` (after-the-fact cost charging), and —
when sampling is requested — a
:class:`~repro.engine.FootprintSeriesObserver` (footprint/volume over time).
The first two are passive, so a plain ``run_trace(allocator, trace)`` keeps
the allocator's zero-instrumentation fast path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.base import Allocator
from repro.costs.base import CostFunction
from repro.engine import (
    CostObserver,
    EngineSession,
    FootprintSeriesObserver,
    MetricsObserver,
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
    metrics_observer = MetricsObserver()
    cost_observer = CostObserver(cost_functions)
    series_observer: Optional[FootprintSeriesObserver] = None
    wired: List[Observer] = [metrics_observer, cost_observer]
    if sample_every:
        series_observer = FootprintSeriesObserver(every=sample_every)
        wired.append(series_observer)
    wired.extend(observers)

    # A sharded replay adopts the merged state into ``wired``, so both
    # paths leave the same observers finished for the metrics below.
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

    return ExecutionMetrics(
        allocator=allocator.describe(),
        trace=run.label,
        requests=run.requests,
        elapsed_seconds=run.elapsed_seconds,
        cost_ratios=cost_observer.cost_ratios,
        footprint_series=series_observer.footprint if series_observer else [],
        volume_series=series_observer.volume if series_observer else [],
        series_indices=series_observer.indices if series_observer else [],
        **metrics_observer.snapshot,
    )
