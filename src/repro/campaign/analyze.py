"""Trace analytics: what does a workload look like before it hits an allocator?

WiscSee-style pipelines first characterise the collected trace (sizes,
lifetimes, death times, footprint) and only then sweep configurations.
:func:`repro.engine.analyze_source` is that characterisation step for any
request stream — a synthetic or adversarial
:class:`~repro.workloads.base.Trace`, or a streaming
:class:`~repro.workloads.replay.TraceFileSource` over an on-disk file that
is never materialised — and this module renders its result as tables.

All statistics are derived purely from the request stream in **one pass**
(the heavy lifting lives in
:class:`~repro.engine.analytics.TraceAnalyticsObserver`, which also rides
along on live engine runs):

* **footprint profile** — live volume over time (peak / mean / final), the
  denominator of every competitive ratio in the paper;
* **object size distribution** — power-of-two histogram plus percentiles,
  which determines the size-class structure the reallocator builds;
* **lifetime distribution** — requests between an object's insert and its
  delete (objects alive at the end are censored at the trace length);
* **death-time grouping** — which fraction of inserted volume dies in each
  tenth of the trace, separating churn-heavy from grow-only workloads.
"""

from __future__ import annotations

from repro.engine.analytics import TraceAnalytics
from repro.harness.results import ExperimentResult
from repro.metrics.report import render_sparkline


def analytics_result(analytics: TraceAnalytics) -> ExperimentResult:
    """Render analytics as an :class:`ExperimentResult` for terminal output."""
    result = ExperimentResult(
        experiment_id="TRACE",
        title=f"Trace analytics — {analytics.label}",
        headers=["metric", "value"],
    )
    result.rows.extend(
        [
            ["requests", analytics.requests],
            ["inserts / deletes", f"{analytics.inserts} / {analytics.deletes}"],
            ["Delta (largest object)", analytics.delta],
            ["inserted volume", analytics.inserted_volume],
            ["peak / mean / final volume",
             f"{analytics.peak_volume} / {analytics.mean_volume} / {analytics.final_volume}"],
            ["turnover (inserted / peak)", analytics.turnover],
            ["size p50 / p90 / p99 / max",
             " / ".join(str(analytics.sizes[k]) for k in ("p50", "p90", "p99", "max"))],
            ["lifetime p50 / p90 / p99 / max",
             " / ".join(str(analytics.lifetimes[k]) for k in ("p50", "p90", "p99", "max"))],
            ["immortal objects (volume)",
             f"{analytics.immortal_objects} ({analytics.immortal_volume})"],
        ]
    )
    result.data["analytics"] = analytics.to_dict()

    histogram = ExperimentResult(
        experiment_id="TRACE",
        title="Object size histogram (power-of-two buckets)",
        headers=["bucket", "count", "volume"],
    )
    for bucket in analytics.histogram:
        histogram.rows.append(
            [f"[{bucket['low']}, {bucket['high']}]", bucket["count"], bucket["volume"]]
        )
    result.notes.append(histogram.to_text())
    if analytics.histogram:
        result.notes.append(
            "size buckets  count "
            f"|{render_sparkline([b['count'] for b in analytics.histogram])}|"
            "  volume "
            f"|{render_sparkline([b['volume'] for b in analytics.histogram])}|"
        )

    deaths = ExperimentResult(
        experiment_id="TRACE",
        title="Death-time grouping (tenths of the trace)",
        headers=["tenth", "objects dying", "volume dying", "fraction of inserted volume"],
    )
    for bucket in analytics.death_groups:
        deaths.rows.append(
            [bucket["bucket"], bucket["objects"], bucket["volume"], bucket["volume_fraction"]]
        )
    result.notes.append(deaths.to_text())
    if analytics.death_groups:
        result.notes.append(
            "death tenths  objects "
            f"|{render_sparkline([b['objects'] for b in analytics.death_groups])}|"
            "  volume "
            f"|{render_sparkline([b['volume'] for b in analytics.death_groups])}|"
        )
    return result
