"""The repository's benchmark: replay the paper's reallocators and serve a
closed loop, and print end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-amortized --seed 1 --seconds 35 --trace 0

Workloads (why each is here: see ``replay_bench`` and ``serve_bench``):

``replay-amortized``    cost-oblivious reallocator over a churn trace
``replay-deamortized``  deamortized reallocator over the same churn
``serve-closed``        a ``repro serve`` process driven in a closed loop

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs the layers one by one with their boundaries timed and
counted and prints the per-layer metrics.  A layer a workload does not
exercise reads 0 and is named under ``not_exercised``.

The program is imported from ``src/`` of the same checkout; nothing is
installed or built.  Scratch files go to ``.perfbench-work/`` in the
checkout and are removed when the run ends.

Stdout ends with two JSON lines: the run's details (machine fingerprint,
each metric's quartiles across the repetitions of this run, tail
percentile and sample count, failed checks), then the result object.

Seed 1 is the development seed.  Seed 2 is held out: a change that claims a
gain must show it on seed 2 too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("replay-amortized", "replay-deamortized", "serve-closed")


def _load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, seed: int, seconds: float, traced: bool, workdir: str):
    from common import fingerprint

    if workload == "serve-closed":
        import serve_bench

        run = serve_bench.run_traced if traced else serve_bench.run_end_to_end
        outcome = run(SRC, seed, seconds, workdir)
    else:
        import replay_bench

        run = replay_bench.run_traced if traced else replay_bench.run_end_to_end
        outcome = run(workload, seed, seconds, workdir)
    outcome.details["fingerprint"] = fingerprint()
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    contract = _load_contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        outcome = _run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    metrics = {}
    missing = []
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        measured = outcome.metrics.get(name)
        if measured is None:
            missing.append(name)
            measured = {"value": 0.0, "unit": unit}
        elif measured["unit"] != unit:
            outcome.check(False, f"{name}: measured in {measured['unit']}, declared {unit}")
        metrics[name] = {"value": measured["value"], "unit": unit}
    if not args.trace:
        outcome.check(not missing, f"end-to-end metrics not measured: {missing}")
    correct = not outcome.errors and outcome.failed == 0
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "not_exercised": missing,
        "quartiles": {k: v for k, v in outcome.quartiles.items() if k in metrics},
        "errors": outcome.errors[:20],
        **outcome.details,
    }
    print(json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
