"""Shared helpers for the benchmark suite.

Every experiment benchmark runs its experiment exactly once under
``pytest-benchmark`` (timing the whole table regeneration) and prints the
resulting table, so ``pytest benchmarks/ --benchmark-only`` both times the
harness and emits the experiment tables (see ``repro list`` for the ids).

Set ``REPRO_BENCH_FULL=1`` to regenerate the tables with full-size traces.

Benches record their headline numbers via
:mod:`benchmarks.bench_artifact`; at session end one ``BENCH_<name>.json``
per bench is written (to ``REPRO_BENCH_ARTIFACT_DIR``, default the current
directory) so CI can upload machine-readable results.
"""

import os
import sys
import time

import pytest

from benchmarks.bench_artifact import record_metric, write_artifacts


@pytest.fixture(scope="session")
def quick_mode() -> bool:
    """Whether benchmarks should use the quick trace sizes (the default)."""
    return os.environ.get("REPRO_BENCH_FULL", "") != "1"


def _caller_bench_name(depth: int = 2) -> str:
    """The bench name of the module ``depth`` frames up (``bench_`` stripped)."""
    module = sys._getframe(depth).f_globals.get("__name__", "bench")
    name = module.rsplit(".", 1)[-1]
    return name[len("bench_"):] if name.startswith("bench_") else name


def run_and_print(benchmark, experiment_id: str, quick: bool):
    """Run one registered experiment under the benchmark timer and print it."""
    from repro.harness import run_experiment

    started = time.perf_counter()
    result = benchmark.pedantic(
        run_experiment, args=(experiment_id,), kwargs={"quick": quick}, rounds=1, iterations=1
    )
    record_metric(
        _caller_bench_name(),
        f"{experiment_id.lower()}_elapsed_seconds",
        round(time.perf_counter() - started, 6),
        "seconds",
    )
    print()
    print(result.to_text())
    return result


def pytest_sessionfinish(session, exitstatus):
    """Flush the recorded bench metrics to BENCH_<name>.json artifacts."""
    for path in write_artifacts():
        print(f"bench artifact: {path}")
