"""Plain-text tables and series for benchmark output.

Every benchmark prints its experiment's table through these helpers so the
shape of the output matches from run to run and can be diffed between
runs.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render a fixed-width table with a header rule."""
    normalised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in normalised:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [str(cell).ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    rule = "+-" + "-+-".join("-" * width for width in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(rule)
    lines.append(render_row([str(h) for h in headers]))
    lines.append(rule)
    for row in normalised:
        lines.append(render_row(row))
    lines.append(rule)
    return "\n".join(lines)


def format_ratio(value: float, digits: int = 3) -> str:
    """Format a competitive ratio compactly."""
    if value == float("inf"):
        return "inf"
    return f"{value:.{digits}f}"


#: Density ramp used by :func:`render_bucket_series` sparklines.
_DENSITY_RAMP = " .:-=+*#%@"


def render_sparkline(values: Sequence[float]) -> str:
    """One density character per value, normalised by the maximum.

    Deterministic output (same input, same characters); all-zero or empty
    input renders as blanks so callers can embed it between ``|`` rails
    unconditionally.
    """
    values = list(values)
    top = max(values) if values else 0
    if top <= 0:
        return " " * len(values)
    scale = len(_DENSITY_RAMP) - 1
    return "".join(
        _DENSITY_RAMP[min(scale, int((value / top) * scale + 0.5))] for value in values
    )


def render_bucket_series(
    labels: Sequence[str],
    rows: Sequence[Sequence[float]],
    width: int = 60,
    title: str = "",
) -> str:
    """Render one density sparkline per bucket (gap/size-class histograms).

    ``rows[i]`` is the series of bucket ``labels[i]`` over time; each line
    is normalised by its own maximum, so shape is comparable across buckets
    whose magnitudes differ by orders of magnitude.  Deterministic output:
    same input, same characters.
    """
    if not labels or not rows:
        return "(empty histogram series)"
    label_width = max(len(str(label)) for label in labels)
    lines = [title] if title else []
    for label, series in zip(labels, rows):
        values = list(series)
        if len(values) > width:
            step = len(values) / width
            values = [values[int(i * step)] for i in range(width)]
        top = max(values) if values else 0
        spark = render_sparkline(values)
        lines.append(f"{str(label).rjust(label_width)} |{spark}| max={top}")
    return "\n".join(lines)


def render_series(
    values: Sequence[float],
    width: int = 60,
    height: int = 12,
    label: str = "",
) -> str:
    """Render a numeric series as a coarse ASCII chart (footprint figures)."""
    if not values:
        return "(empty series)"
    lo = min(values)
    hi = max(values)
    span = max(hi - lo, 1e-9)
    # Downsample to the requested width.
    if len(values) > width:
        step = len(values) / width
        sampled = [values[int(i * step)] for i in range(width)]
    else:
        sampled = list(values)
    rows = []
    for level in range(height, 0, -1):
        threshold = lo + span * (level - 0.5) / height
        row = "".join("#" if v >= threshold else " " for v in sampled)
        rows.append(row)
    header = f"{label} (min={lo:.0f}, max={hi:.0f})" if label else f"min={lo:.0f}, max={hi:.0f}"
    return header + "\n" + "\n".join(rows)
