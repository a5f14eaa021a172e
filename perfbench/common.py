"""Estimators, process probes and the result shape shared by the workloads.

Every timed workload repeats the same inputs several times in one run and
reduces the repetitions index by index.  The replay workloads report
*per-index minima*: the time of request ``i`` is the fastest of its times
across the repetitions (``serve_bench`` says why it takes medians
instead).  On the shared two-core machine this benchmark was sized on,
other tenants slow a plain Python loop by 10-40% in spells lasting from
milliseconds to minutes, so a replay run's median moved by up to 37%
between runs of identical code while the per-index minimum moved by 15%.
Interference only ever adds time, so the fastest repetition of each
request is the best estimate of what the program itself costs.
Throughput is the work of one repetition divided by the sum of those
minima, so every request is still charged.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: Percentiles a tail is read at, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0)


def per_index_minima(reps: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise minimum over equally long repetitions."""
    return [min(column) for column in zip(*reps)]


def per_index_medians(reps: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise median over equally long repetitions."""
    return [statistics.median(column) for column in zip(*reps)]


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest of ``TAIL_PERCENTILES`` with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; ``value`` is the nearest-rank
    percentile of ``values``.
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * count)
        if count - rank >= TAIL_BEYOND:
            return ordered[rank - 1], percentile, count
    raise ValueError(f"{count} samples are too few for a tail percentile")


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of ``values`` (all three equal for one value)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def fingerprint() -> Dict[str, object]:
    """What a ledger reader needs to tell a regression from another box."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def peak_rss_mb(pid: str = "self") -> float:
    """The process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_seconds(pid: str = "self") -> float:
    """User plus system CPU time the process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of proc(5) (utime, stime); the split drops 2.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def put_timings(outcome: "Outcome", work: int, walls, latencies, reduce=per_index_minima) -> None:
    """Throughput, p50 and tail latency from repetitions of the same work.

    ``walls`` holds, per repetition, the wall time of each step (together
    the repetition's ``work`` requests); ``latencies`` the latency of each
    sample.  Both are reduced across repetitions by ``reduce``; the
    quartiles recorded beside each metric are those of the single
    repetitions.
    """
    wall = reduce(walls)
    latency = reduce(latencies)
    outcome.put("throughput_rps", work / sum(wall), "1/s", [work / sum(w) for w in walls])
    outcome.put(
        "latency_p50_us",
        statistics.median(latency) * 1e6,
        "us",
        [statistics.median(rep) * 1e6 for rep in latencies],
    )
    value, percentile, samples = tail(latency)
    outcome.put("latency_tail_us", value * 1e6, "us", [tail(rep)[0] * 1e6 for rep in latencies])
    outcome.details["tail"] = {"percentile": percentile, "samples": samples}
    outcome.details["repetitions"] = len(walls)
    outcome.details["requests_per_repetition"] = work


class Outcome:
    """One run's metrics, correctness verdict and operation counts."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.quartiles: Dict[str, List[float]] = {}
        self.details: Dict[str, object] = {}
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, unit: str, per_rep: Sequence[float] = ()) -> None:
        """Record a metric; ``per_rep`` holds its value in each repetition."""
        self.metrics[name] = {"value": float(value), "unit": unit}
        if per_rep:
            self.quartiles[name] = quartiles(list(per_rep))

    def check(self, ok: bool, message: str) -> None:
        """Record a failed correctness check (the run goes on)."""
        if not ok:
            self.errors.append(message)
