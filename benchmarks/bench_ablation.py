"""Ablations of the deamortized work factor and of epsilon.

Two knobs the paper's analysis fixes and our implementation exposes:

* the deamortized **work factor** (the paper's ``4/eps'``) — how much flush
  work each update performs.  Too small and flushes cannot finish before the
  tail buffer refills (forcing back-to-back flushes); larger values trade a
  bigger per-request burst for fewer outstanding flushes.
* the reallocator's **epsilon** — the footprint slack — which directly trades
  space against amortized moved volume (the E1 trade-off, measured here as a
  single ratio per epsilon for the record).
"""

import pytest

from repro.core import CostObliviousReallocator, DeamortizedReallocator
from repro.costs import LinearCost
from repro.metrics import ascii_table, run_trace
from repro.workloads import UniformSizes, churn_trace

TRACE = churn_trace(2000, UniformSizes(1, 64), target_live=150, seed=77)


def test_work_factor_ablation(benchmark):
    """Sweep the deamortized work factor and report burst vs flush backlog."""

    def sweep():
        rows = []
        for factor in (8.0, 32.0, 128.0, 512.0):
            allocator = DeamortizedReallocator(epsilon=0.25, work_factor=factor)
            metrics = run_trace(allocator, TRACE, cost_functions=(LinearCost(),))
            rows.append(
                [
                    factor,
                    metrics.max_request_moved_volume,
                    metrics.flushes,
                    round(metrics.cost_ratios["linear"], 2),
                    round(metrics.max_footprint_ratio, 3),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        ascii_table(
            ["work factor", "worst request moved volume", "flushes", "linear ratio", "max footprint/V"],
            rows,
            title="Ablation: deamortized work factor (paper: 4/eps')",
        )
    )
    worst_bursts = [row[1] for row in rows]
    assert worst_bursts == sorted(worst_bursts), "larger work factors allow larger bursts"


def test_epsilon_ablation(benchmark):
    """The space/move trade-off as a single table (complements E1)."""

    def sweep():
        rows = []
        for epsilon in (0.5, 0.25, 0.125, 0.0625):
            allocator = CostObliviousReallocator(epsilon=epsilon)
            metrics = run_trace(allocator, TRACE, cost_functions=(LinearCost(),))
            rows.append(
                [
                    epsilon,
                    round(metrics.max_footprint_ratio, 3),
                    round(metrics.cost_ratios["linear"], 2),
                    round(metrics.total_moved_volume / max(1, TRACE.total_inserted_volume), 2),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        ascii_table(
            ["epsilon", "max footprint/V", "linear ratio", "moved/inserted volume"],
            rows,
            title="Ablation: epsilon (space vs movement)",
        )
    )
    footprints = [row[1] for row in rows]
    assert footprints == sorted(footprints, reverse=True)
