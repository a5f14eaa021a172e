"""Render recorded campaign artifacts as terminal tables and charts.

``repro sweep report <dir>`` loads the ``results.json`` a previous sweep
wrote and turns it back into the terminal view of the run — the per-cell
summary table plus, for every cell that carried series observers, terminal
charts: the footprint/volume series (``footprint_series``), the
power-of-two gap-size occupancy over time (``gap_histogram``), and the
per-size-class live volume (``per_class_occupancy``).  Nothing re-runs:
this is a pure view over the artifact, so it works on results produced on
another machine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.campaign.spec import entry_tag
from repro.harness.results import ExperimentResult
from repro.metrics.report import render_bucket_series, render_series
from repro.obs.format import format_bytes, format_duration


def document_table(document: Dict[str, Any]) -> ExperimentResult:
    """The per-cell summary table of a ``results.json`` document.

    ``repro sweep`` renders the run it just finished through this too, via
    :func:`~repro.campaign.artifacts.campaign_to_dict`.
    """
    records = document.get("records", [])
    errors = sum(1 for record in records if record.get("status") != "ok")
    table = ExperimentResult(
        experiment_id="SWEEP",
        title=(
            f"Campaign {document.get('campaign', '?')!r}: {len(records)} cells, "
            f"{errors} errors, jobs={document.get('jobs', '?')}, "
            f"{format_duration(float(document.get('elapsed_seconds', 0.0)))} (recorded)"
        ),
        headers=[
            "workload",
            "allocator",
            "cost",
            "device",
            "status",
            "max footprint/V",
            "cost ratio",
            "moved volume",
            "device ms",
        ],
    )
    for record in records:
        axes = [
            entry_tag(record["workload"]),
            entry_tag(record["allocator"]),
            entry_tag(record["cost"]),
            entry_tag(record["device"]),
        ]
        if record.get("status") == "ok":
            table.rows.append(
                axes
                + [
                    "ok",
                    round(record["max_footprint_ratio"], 3),
                    round(record["cost_ratio"], 2),
                    record["total_moved_volume"],
                    record.get("device_elapsed_ms", "-"),
                ]
            )
        else:
            error = record.get("error", "").strip().splitlines()
            table.rows.append(axes + ["ERROR", "-", "-", "-", error[-1][:60] if error else "?"])
    if errors:
        table.notes.append(
            f"{errors} cell(s) failed; full tracebacks are in "
            "results.json (status == 'error')."
        )
    return table


def _cell_charts(record: Dict[str, Any], width: int, height: int) -> List[str]:
    parts: List[str] = []
    series = record.get("footprint_series")
    if isinstance(series, dict) and series.get("footprint"):
        parts.append(
            render_series(
                series["footprint"],
                width=width,
                height=height,
                label=f"footprint over {series.get('requests_seen', '?')} requests",
            )
        )
        parts.append(
            render_series(
                series["volume"],
                width=width,
                height=height,
                label="live volume (same sample points)",
            )
        )
    histogram = record.get("gap_histogram")
    if isinstance(histogram, dict) and histogram.get("counts"):
        buckets = histogram.get("buckets", [])
        rows = [
            [sample[index] for sample in histogram["counts"]]
            for index in range(len(buckets))
        ]
        parts.append(
            render_bucket_series(
                [f"[{low}, {high}]" for low, high in buckets],
                rows,
                width=width,
                title="free gaps per power-of-two length bucket over time",
            )
        )
    occupancy = record.get("per_class_occupancy")
    if isinstance(occupancy, dict) and occupancy.get("volume"):
        classes = occupancy.get("classes", [])
        rows = [
            [sample[index] for sample in occupancy["volume"]]
            for index in range(len(classes))
        ]
        parts.append(
            render_bucket_series(
                [f"[{low}, {high}]" for low, high in classes],
                rows,
                width=width,
                title="live volume per power-of-two size class over time",
            )
        )
    return parts


def _median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _telemetry_section(
    document: Dict[str, Any], cell_filter: Optional[str]
) -> List[str]:
    """Per-cell resource table plus recorded counter/span views.

    Outlier flagging compares each cell against the median of the ok
    cells: anything past 2x the median elapsed time or peak RSS is marked
    so a skewed cell stands out of a large matrix at a glance.
    """
    from repro.obs.report import _span_tree_lines, format_metric

    records = document.get("records", [])
    ok_records = [r for r in records if r.get("status") == "ok"]
    median_elapsed = _median(
        [float(r.get("elapsed_seconds", 0.0)) for r in ok_records]
    )
    median_rss = _median(
        [float((r.get("resources") or {}).get("max_rss_kb", 0)) for r in ok_records]
    )
    table = ExperimentResult(
        experiment_id="SWEEP",
        title="per-cell resources (flags mark >2x the ok-cell median)",
        headers=["cell", "status", "elapsed", "cpu", "peak rss", "gc", "flags"],
    )
    for record in records:
        resources = record.get("resources") or {}
        elapsed = float(record.get("elapsed_seconds", 0.0))
        rss_kb = float(resources.get("max_rss_kb", 0))
        flags = []
        if median_elapsed and elapsed > 2 * median_elapsed:
            flags.append("elapsed!")
        if median_rss and rss_kb > 2 * median_rss:
            flags.append("rss!")
        table.rows.append(
            [
                record.get("cell_id", "?"),
                record.get("status", "?"),
                format_duration(elapsed),
                format_duration(float(resources.get("cpu_seconds", 0.0)))
                if resources
                else "-",
                format_bytes(rss_kb * 1024) if resources else "-",
                resources.get("gc_collections", "-") if resources else "-",
                " ".join(flags) or "-",
            ]
        )
    parts = ["", table.to_text()]
    for record in records:
        recorded = record.get("telemetry")
        if not isinstance(recorded, dict):
            continue
        cell_id = record.get("cell_id", "?")
        if cell_filter and cell_filter not in cell_id:
            continue
        parts.append("")
        parts.append(f"--- telemetry {cell_id} ---")
        spans = recorded.get("spans") or []
        if spans:
            parts.extend(_span_tree_lines(spans))
        for label in ("counters", "gauges"):
            values = recorded.get(label) or {}
            if values:
                summary = "  ".join(
                    f"{name}={format_metric(name, value)}"
                    for name, value in sorted(values.items())
                )
                parts.append(f"  {label}: {summary}")
    return parts


def sweep_report(
    document: Dict[str, Any],
    cell_filter: Optional[str] = None,
    width: int = 60,
    height: int = 10,
    telemetry: bool = False,
) -> str:
    """The full terminal report for a loaded ``results.json`` document.

    ``cell_filter`` (substring match on ``cell_id``) limits which cells are
    charted; the summary table always covers every record.  ``telemetry``
    adds the per-cell resource/outlier table and any recorded counter and
    span views (``repro sweep report <dir> --telemetry``).
    """
    parts = [document_table(document).to_text()]
    if telemetry:
        parts.extend(_telemetry_section(document, cell_filter))
    for record in document.get("records", []):
        if record.get("status") != "ok":
            continue
        if cell_filter and cell_filter not in record.get("cell_id", ""):
            continue
        charts = _cell_charts(record, width=width, height=height)
        if not charts:
            continue
        parts.append("")
        parts.append(f"--- {record.get('cell_id', '?')} ---")
        parts.extend(charts)
    return "\n".join(parts)
