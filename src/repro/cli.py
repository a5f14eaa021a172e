"""Command-line entry point: experiments, campaign sweeps, trace analytics.

Examples
--------

List everything that can be reproduced::

    python -m repro list

Run the footprint experiment with full-size traces::

    python -m repro run E1 --full

Sweep a campaign matrix over four worker processes::

    python -m repro sweep campaign.json --jobs 4 --out results/demo

Characterise a recorded trace before sweeping it (streams — a 10M-request
v3 file is analyzed without materialising it)::

    python -m repro trace analyze traces/prod.trace

Re-render the tables and terminal charts of an already-recorded sweep::

    python -m repro sweep report results/demo

Sweep with telemetry on and inspect the recorded spans and counters::

    python -m repro sweep campaign.json --telemetry --out results/demo
    python -m repro obs report results/demo/telemetry.jsonl
    python -m repro sweep report results/demo --telemetry

Re-encode a text trace into the compressed, block-indexed binary v3 format
and inspect it (both stream, so multi-million-request files are fine)::

    python -m repro trace convert traces/prod.trace traces/prod.v3z --compress
    python -m repro trace info traces/prod.v3z

Analyze a v3 trace sharded over four worker processes (byte-identical
output, a fraction of the wall time)::

    python -m repro trace analyze traces/prod.v3 --jobs 4

Legacy v2 binary files are read-only; upgrade one to v3 with::

    python -m repro trace convert traces/old.v2 traces/old.v3 --format v3
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.harness import EXPERIMENTS, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-oblivious storage reallocation (PODS 2014) reproduction harness",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list the registered experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. E1, F3, or 'all'")
    run_parser.add_argument(
        "--full",
        action="store_true",
        help="use full-size traces instead of the quick defaults",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help=(
            "run a campaign spec (workloads x allocators x costs x devices); "
            "subcommands: report DIR, enqueue SPEC DIR, work DIR, merge DIR, "
            "diff BASELINE CANDIDATE"
        ),
    )
    sweep_parser.add_argument(
        "spec",
        help=(
            "path to a campaign spec JSON file, or one of the literals "
            "'report', 'enqueue', 'work', 'merge', 'diff'"
        ),
    )
    sweep_parser.add_argument(
        "args",
        nargs="*",
        default=[],
        metavar="ARG",
        help=(
            "subcommand arguments: report DIR | enqueue SPEC DIR | work DIR | "
            "merge DIR | diff BASELINE CANDIDATE (artifact dirs or "
            "results.json paths)"
        ),
    )
    sweep_parser.add_argument(
        "--cell",
        default=None,
        metavar="SUBSTR",
        help="(report) only chart cells whose id contains this substring",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes draining the sweep's file-backed work queue "
            "(default 1 = in this process; 0 = one per CPU); the queue "
            "directory is <out>, and more 'repro sweep work <out>' workers "
            "may join from other hosts on a shared filesystem"
        ),
    )
    sweep_parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="artifact directory (default: campaign-<spec name>)",
    )
    sweep_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-cell progress lines on stderr",
    )
    sweep_parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "skip cells already recorded ok in DIR/results.json (or its "
            "crash-safe journals) and only run the missing or failed ones "
            "(artifacts default to DIR)"
        ),
    )
    sweep_parser.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=(
            "record spans/counters/resources while sweeping (JSONL to PATH, "
            "default <out>/telemetry.jsonl); with 'sweep report', render the "
            "recorded per-cell telemetry tables"
        ),
    )
    sweep_parser.add_argument(
        "--profile",
        action="store_true",
        help="dump a cProfile .pstats file per cell under <out>/profiles/",
    )
    sweep_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "(sweep/work/merge) seconds before an unheartbeated lease is "
            "presumed dead and its cell re-queued (default 300; must exceed "
            "the longest single cell)"
        ),
    )
    sweep_parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="(work) stop this worker after N cells instead of draining the queue",
    )
    sweep_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "(sweep/work) run each cell in a watchdog subprocess and record "
            "a typed worker_timeout error instead of hanging if it overruns"
        ),
    )
    sweep_parser.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="METRIC=PCT",
        help=(
            "(diff) allow METRIC to rise by up to PCT percent before it "
            "counts as a regression (repeatable; unlisted metrics are exact)"
        ),
    )
    sweep_parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help=(
            "(diff) exit 1 on any metric regression, missing cell, or newly "
            "erroring cell — the CI gate mode"
        ),
    )

    trace_parser = subparsers.add_parser("trace", help="trace file utilities")
    trace_sub = trace_parser.add_subparsers(dest="trace_command")
    analyze_parser = trace_sub.add_parser(
        "analyze",
        help="print footprint / size / lifetime / death-time analytics (streaming)",
    )
    analyze_parser.add_argument("path", help="path to a trace file (any known format)")
    analyze_parser.add_argument(
        "--no-chart",
        action="store_true",
        help="suppress the live-volume terminal chart after the tables",
    )
    analyze_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard the scan over N worker processes (block-indexed v3 traces; "
        "output is byte-identical to the serial scan)",
    )
    convert_parser = trace_sub.add_parser(
        "convert", help="re-encode a trace file into another format version (streaming)"
    )
    convert_parser.add_argument("input", help="source trace file (any known format)")
    convert_parser.add_argument("output", help="destination trace file")
    convert_parser.add_argument(
        "--format",
        choices=["v1", "v3"],
        default="v3",
        help="output format version (default: v3, the block-indexed binary "
        "format; legacy v0 and v2 inputs are read but never written)",
    )
    convert_parser.add_argument(
        "--compress",
        action="store_true",
        help="zlib-compress each v3 block body",
    )
    convert_parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        metavar="RECORDS",
        help="records per block for v3 output (default: 65536)",
    )
    info_parser = trace_sub.add_parser(
        "info", help="print a trace file's format, counts, and peak volume (streaming)"
    )
    info_parser.add_argument("path", help="path to a trace file (any known format)")

    obs_parser = subparsers.add_parser("obs", help="telemetry log utilities")
    obs_sub = obs_parser.add_subparsers(dest="obs_command")
    obs_report_parser = obs_sub.add_parser(
        "report",
        help="render a telemetry JSONL log: span timeline, counters, per-cell trees",
    )
    obs_report_parser.add_argument("path", help="path to a telemetry .jsonl log")
    obs_report_parser.add_argument(
        "--cell",
        default=None,
        metavar="SUBSTR",
        help="only render cells whose id contains this substring",
    )
    obs_report_parser.add_argument(
        "--check",
        action="store_true",
        help="validate every event against the schema and exit nonzero on problems",
    )

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="fault-injection chaos testing of the distributed sweep machinery",
    )
    chaos_sub = chaos_parser.add_subparsers(dest="chaos_command")
    chaos_sub.add_parser("sites", help="list every named fault site")
    chaos_sweep_parser = chaos_sub.add_parser(
        "sweep",
        help=(
            "run a campaign spec repeatedly under fault schedules and check "
            "every run converges to the fault-free result"
        ),
    )
    chaos_sweep_parser.add_argument("spec", help="path to a campaign spec JSON file")
    chaos_sweep_parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help=(
            "run one explicit fault plan (JSON: {seed, rules: [{site, action, "
            "...}]}) instead of the generated schedules"
        ),
    )
    chaos_sweep_parser.add_argument(
        "--seeds",
        type=int,
        default=0,
        metavar="N",
        help="append N seeded multi-fault schedules (seeds 0..N-1)",
    )
    chaos_sweep_parser.add_argument(
        "--single-faults",
        action="store_true",
        help="prepend the systematic battery: one raise and one crash per site",
    )
    chaos_sweep_parser.add_argument(
        "--sites",
        default=None,
        metavar="GLOB",
        help="restrict generated schedules to sites matching this glob",
    )
    chaos_sweep_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per faulted round (default 1)",
    )
    chaos_sweep_parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="root directory for schedule artifacts (default: chaos-<spec name>)",
    )
    chaos_sweep_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="lease TTL for the faulted rounds (default 30)",
    )
    chaos_sweep_parser.add_argument(
        "--baseline",
        default=None,
        metavar="DIR",
        help="write the fault-free baseline artifact here (default <out>/baseline)",
    )
    chaos_sweep_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-schedule progress lines on stderr",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "serve live allocation sessions over a socket (one replayable "
            "v3 trace per tenant; STATS/SNAPSHOT/DRAIN control verbs)"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="N",
        help="TCP port (default 0 = pick a free port; printed on startup)",
    )
    serve_parser.add_argument(
        "--allocator",
        default="first_fit",
        metavar="KIND",
        help=(
            "allocator spec per arena: a kind name (first_fit, buddy, ...) or "
            'a JSON object like \'{"kind": "cost_oblivious", "epsilon": 0.25}\''
        ),
    )
    arena = serve_parser.add_mutually_exclusive_group()
    arena.add_argument(
        "--arena-per-tenant",
        dest="shared",
        action="store_false",
        help="give every tenant its own allocator arena (the default)",
    )
    arena.add_argument(
        "--shared",
        dest="shared",
        action="store_true",
        help="one shared arena; tenant object names are namespaced",
    )
    serve_parser.set_defaults(shared=False)
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=None,
        metavar="N",
        help="cap on one coalesced batch fed to the allocator (default 4096)",
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant queue depth before backpressure (default 32)",
    )
    serve_parser.add_argument(
        "--trace-dir",
        default=".",
        metavar="DIR",
        help="directory for the per-tenant v3 session traces (default .)",
    )
    serve_parser.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="directory for SNAPSHOT files (default: --trace-dir)",
    )
    serve_parser.add_argument(
        "--label",
        default="serve",
        help="artifact filename prefix (default 'serve')",
    )

    load_parser = subparsers.add_parser(
        "load",
        help="saturation load harness against a running 'repro serve'",
    )
    load_parser.add_argument(
        "target", metavar="HOST:PORT", help="server address, e.g. 127.0.0.1:9876"
    )
    load_parser.add_argument(
        "--clients", type=int, default=4, metavar="N", help="client threads (default 4)"
    )
    load_parser.add_argument(
        "--requests",
        type=int,
        default=10_000,
        metavar="M",
        help="requests per client (default 10000)",
    )
    load_parser.add_argument(
        "--pattern",
        choices=["churn", "grow_shrink", "sliding"],
        default="churn",
        help="synthetic workload shape per client (default churn)",
    )
    load_parser.add_argument(
        "--target-live",
        type=int,
        default=200,
        metavar="N",
        help="steady-state live objects per client (churn/sliding; default 200)",
    )
    load_parser.add_argument(
        "--seed", type=int, default=0, help="base workload seed (client i uses seed+i)"
    )
    load_parser.add_argument(
        "--batch",
        type=int,
        default=500,
        metavar="N",
        help="requests per wire batch (default 500)",
    )
    load_parser.add_argument(
        "--window",
        type=int,
        default=4,
        metavar="N",
        help="pipelined batches kept in flight per client (default 4)",
    )
    load_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full report as JSON instead of the summary line",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    targets = sorted(EXPERIMENTS) if args.experiment.lower() == "all" else [args.experiment]
    for target in targets:
        try:
            result = run_experiment(target, quick=not args.full)
        except KeyError as error:
            # get_experiment raises KeyError("unknown experiment 'X'; known: ...").
            print(f"repro run: {error.args[0]}", file=sys.stderr)
            return 2
        print(result.to_text())
        print()
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    import os

    from repro.campaign import load_results, sweep_report

    if not args.args:
        print(
            "repro sweep report: name the campaign artifact directory "
            "(repro sweep report <dir>)",
            file=sys.stderr,
        )
        return 2
    results_path = os.path.join(args.args[0], "results.json")
    try:
        document = load_results(results_path)
    except (OSError, ValueError) as error:
        print(f"repro sweep report: cannot load {results_path!r}: {error}", file=sys.stderr)
        return 2
    print(
        sweep_report(
            document, cell_filter=args.cell, telemetry=args.telemetry is not None
        )
    )
    return 0


def _load_artifact(target: str):
    """Load a results document from an artifact directory or a file path."""
    import os

    from repro.campaign import load_results

    path = os.path.join(target, "results.json") if os.path.isdir(target) else target
    return path, load_results(path)


def _cmd_sweep_enqueue(args: argparse.Namespace) -> int:
    import os

    from repro.campaign import CampaignSpec, completed_records, enqueue_campaign, load_results
    from repro.campaign.queue import QueueError, results_path

    if len(args.args) != 1:
        print(
            "repro sweep enqueue: usage: repro sweep enqueue <spec.json> <dir>",
            file=sys.stderr,
        )
        return 2
    spec_file, directory = args.spec_file, args.args[0]
    try:
        spec = CampaignSpec.from_json(spec_file)
    except (OSError, ValueError) as error:
        print(f"repro sweep enqueue: cannot load spec {spec_file!r}: {error}", file=sys.stderr)
        return 2
    # A previously merged artifact in the directory is the resume point:
    # cells it records ok are not re-enqueued (the merge keeps their records).
    completed = None
    merged = results_path(directory)
    if os.path.exists(merged):
        try:
            document = load_results(merged)
        except (OSError, ValueError) as error:
            print(f"repro sweep enqueue: cannot read {merged!r}: {error}", file=sys.stderr)
            return 2
        if int(document.get("seed", 0)) != spec.seed or document.get("campaign") != spec.name:
            print(
                f"repro sweep enqueue: {directory!r} holds artifacts of campaign "
                f"{document.get('campaign')!r} (seed {document.get('seed')}); "
                "use a fresh directory",
                file=sys.stderr,
            )
            return 2
        if document.get("spec", {}).get("observers", []) != spec.observers:
            print(
                f"repro sweep enqueue: observer configuration changed since "
                f"{merged!r} was recorded; use a fresh directory",
                file=sys.stderr,
            )
            return 2
        completed = completed_records(document)
    try:
        enqueued = enqueue_campaign(
            spec,
            directory,
            completed=completed,
            telemetry=args.telemetry is not None,
            profile_dir=os.path.join(directory, "profiles") if args.profile else None,
        )
    except (QueueError, OSError, ValueError) as error:
        print(f"repro sweep enqueue: {error}", file=sys.stderr)
        return 2
    skipped = len(spec.expand()) - enqueued
    line = f"enqueued {enqueued} cell(s) into {directory}"
    if skipped:
        line += f" ({skipped} already complete in results.json)"
    print(line)
    print(f"drain with: repro sweep work {directory}  (any number of workers)")
    print(f"then merge: repro sweep merge {directory}")
    return 0


def _cmd_sweep_work(args: argparse.Namespace) -> int:
    from repro.campaign import work_queue
    from repro.campaign.queue import DEFAULT_LEASE_TTL, QueueError, worker_token

    if len(args.args) != 1:
        print("repro sweep work: usage: repro sweep work <dir>", file=sys.stderr)
        return 2
    directory = args.args[0]
    token = worker_token()

    def progress(done, _total, record):
        if not args.quiet:
            status = "ok   " if record["status"] == "ok" else "ERROR"
            print(
                f"[{token}] {status} {record['cell_id']} "
                f"({record['elapsed_seconds']:.2f}s, {done} done)",
                file=sys.stderr,
            )

    try:
        executed = work_queue(
            directory,
            token=token,
            lease_ttl=args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL,
            max_cells=args.max_cells,
            progress=progress,
            cell_timeout=args.cell_timeout,
        )
    except (QueueError, OSError) as error:
        print(f"repro sweep work: {error}", file=sys.stderr)
        return 2
    print(f"worker {token}: executed {executed} cell(s) from {directory}")
    return 0


def _cmd_sweep_merge(args: argparse.Namespace) -> int:
    from repro.campaign import document_table, merge_queue
    from repro.campaign.queue import DEFAULT_LEASE_TTL, QueueError

    if len(args.args) != 1:
        print("repro sweep merge: usage: repro sweep merge <dir>", file=sys.stderr)
        return 2
    try:
        merged = merge_queue(
            args.args[0],
            lease_ttl=args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL,
        )
    except (QueueError, ValueError, OSError) as error:
        print(f"repro sweep merge: {error}", file=sys.stderr)
        return 2
    print(document_table(merged.document).to_text())
    print()
    summary = (
        f"merged {merged.records} record(s) "
        f"({merged.from_journals} from {len(merged.workers)} worker journal(s), "
        f"{merged.from_previous} carried from the previous artifact)"
    )
    if merged.reclaimed_leases:
        summary += f"; reclaimed {merged.reclaimed_leases} expired lease(s)"
    if merged.skipped_lines:
        summary += f"; skipped {merged.skipped_lines} truncated journal line(s)"
    print(summary)
    if merged.pending:
        print(
            f"pending: {len(merged.pending)} cell(s) still queued — keep workers "
            "running and merge again"
        )
    print(f"artifacts: {merged.paths['results']}  {merged.paths['csv']}")
    errors = merged.document.get("errors", 0)
    return 1 if errors else 0


def _cmd_sweep_diff(args: argparse.Namespace) -> int:
    from repro.campaign import ToleranceError, diff_documents, diff_table, parse_tolerances

    if len(args.args) != 2:
        print(
            "repro sweep diff: usage: repro sweep diff <baseline> <candidate> "
            "[--tolerance metric=pct] [--fail-on-regression] "
            "(artifact directories or results.json paths)",
            file=sys.stderr,
        )
        return 2
    try:
        tolerances = parse_tolerances(args.tolerance)
    except ToleranceError as error:
        print(f"repro sweep diff: {error}", file=sys.stderr)
        return 2
    documents = []
    for target in args.args:
        try:
            path, document = _load_artifact(target)
        except (OSError, ValueError) as error:
            print(f"repro sweep diff: cannot load {target!r}: {error}", file=sys.stderr)
            return 2
        documents.append(document)
    diff = diff_documents(documents[0], documents[1], tolerances=tolerances)
    print(diff_table(diff).to_text())
    if diff.regressions:
        print()
        print(
            f"{len(diff.regressions)} metric regression(s) beyond tolerance "
            f"across {len({d.cell_id for d in diff.regressions})} cell(s)"
        )
    if args.fail_on_regression and diff.gate_failures:
        print(
            f"repro sweep diff: gate FAILED ({len(diff.regressions)} regression(s), "
            f"{len(diff.missing_cells)} missing cell(s), "
            f"{len(diff.new_errors)} new error(s))",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    if args.spec == "report":
        return _cmd_sweep_report(args)
    if args.spec == "work":
        return _cmd_sweep_work(args)
    if args.spec == "merge":
        return _cmd_sweep_merge(args)
    if args.spec == "diff":
        return _cmd_sweep_diff(args)
    if args.spec == "enqueue":
        if not args.args:
            print(
                "repro sweep enqueue: usage: repro sweep enqueue <spec.json> <dir>",
                file=sys.stderr,
            )
            return 2
        args.spec_file, args.args = args.args[0], args.args[1:]
        return _cmd_sweep_enqueue(args)
    if args.args:
        print(
            f"repro sweep: unexpected extra argument {args.args[0]!r} "
            "(did you mean 'repro sweep report <dir>'?)",
            file=sys.stderr,
        )
        return 2

    from repro.campaign import (
        CampaignSpec,
        ProgressReporter,
        SpecError,
        campaign_to_dict,
        completed_records,
        document_table,
        load_results,
        run_campaign,
    )
    from repro.campaign.queue import DEFAULT_LEASE_TTL, QueueError, results_path

    try:
        spec = CampaignSpec.from_json(args.spec)
    except (OSError, ValueError) as error:
        print(f"repro sweep: cannot load spec {args.spec!r}: {error}", file=sys.stderr)
        return 2
    completed = None
    if args.resume is not None:
        try:
            document = load_results(results_path(args.resume))
        except (OSError, ValueError) as error:
            print(f"repro sweep: cannot resume from {args.resume!r}: {error}", file=sys.stderr)
            return 2
        # Cell ids do not encode the campaign seed, so records produced
        # under a different seed would be silently reused as matches.
        if int(document.get("seed", 0)) != spec.seed:
            print(
                f"repro sweep: cannot resume from {args.resume!r}: campaign seed "
                f"differs (recorded {document.get('seed')}, spec {spec.seed})",
                file=sys.stderr,
            )
            return 2
        # Observer config is not part of cell ids either; records produced
        # under different instrumentation would carry stale exports (e.g. a
        # series sampled with another max_points), so re-run everything.
        recorded_observers = document.get("spec", {}).get("observers", [])
        if recorded_observers != spec.observers:
            print(
                "repro sweep: observer configuration changed since the recorded "
                "run; re-running all cells",
                file=sys.stderr,
            )
        else:
            completed = completed_records(document)
    # The artifact directory is settled before the run so the default
    # telemetry log and the per-cell profile dumps can live inside it.
    out_dir = args.out
    if out_dir is None:
        out_dir = args.resume if args.resume is not None else f"campaign-{spec.name}"
    telemetry_session = None
    telemetry_path = None
    if args.telemetry is not None:
        from repro.obs import JsonlSink, configure_telemetry, reset_telemetry

        telemetry_path = args.telemetry or os.path.join(out_dir, "telemetry.jsonl")
        parent = os.path.dirname(telemetry_path)
        try:
            if parent:
                os.makedirs(parent, exist_ok=True)
            telemetry_session = configure_telemetry(sink=JsonlSink(telemetry_path))
        except OSError as error:
            print(
                f"repro sweep: cannot open telemetry log {telemetry_path!r}: {error}",
                file=sys.stderr,
            )
            return 2
    profile_dir = os.path.join(out_dir, "profiles") if args.profile else None
    reporter = None if args.quiet else ProgressReporter()
    try:
        result = run_campaign(
            spec,
            jobs=args.jobs,
            progress=reporter,
            completed=completed,
            telemetry=args.telemetry is not None,
            profile_dir=profile_dir,
            directory=out_dir,
            lease_ttl=args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL,
            cell_timeout=args.cell_timeout,
        )
    except (QueueError, SpecError) as error:
        # Matrix-level spec problems (e.g. a trace_recorder path shared by
        # every cell) and a queue another sweep owns are refused before any
        # cell runs; per-cell problems land as error records instead.
        print(f"repro sweep: {error}", file=sys.stderr)
        return 2
    finally:
        if telemetry_session is not None:
            telemetry_session.close()
            reset_telemetry()
    if reporter is not None:
        reporter.summary(len(result.records), result.elapsed_seconds)
    if result.metadata.get("resumed"):
        print(f"resumed: {result.metadata['resumed']} cell(s) reused from {args.resume}")
    print(document_table(campaign_to_dict(result)).to_text())
    print()
    artifact_line = f"artifacts: {results_path(out_dir)}  {os.path.join(out_dir, 'results.csv')}"
    if telemetry_path is not None:
        artifact_line += f"  {telemetry_path}"
    print(artifact_line)
    if result.metadata.get("interrupted"):
        print(
            f"interrupted: {len(result.records)} record(s) saved; finish with "
            f"repro sweep {args.spec} --resume {out_dir}",
            file=sys.stderr,
        )
        return 130
    # Any failed cell makes the sweep exit nonzero so CI can gate on it; the
    # sweep itself still ran to completion and wrote every record.
    return 1 if result.error_records else 0


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    from repro.campaign import analytics_result
    from repro.engine import TraceAnalyticsObserver
    from repro.metrics.report import render_series
    from repro.workloads import TraceFileSource

    # One streaming pass: the observer accumulates every statistic while the
    # file is read request by request, so a multi-million-request trace is
    # analyzed without ever materialising it.  With --jobs N and a
    # block-indexed (v3) trace, the pass shards over worker processes and
    # the merged observer is byte-identical to the serial one; anything
    # unshardable just scans serially after a note.
    observer = None
    try:
        source = TraceFileSource(args.path)
        if args.jobs > 1:
            from repro.engine import analyze_trace_parallel

            observer = analyze_trace_parallel(args.path, jobs=args.jobs)
            if observer is None:
                print(
                    f"repro trace analyze: note: --jobs {args.jobs} needs a "
                    "block-indexed plain v3 trace with at least two blocks "
                    "(convert with: repro trace convert --format v3); "
                    "scanning serially",
                    file=sys.stderr,
                )
        if observer is None:
            observer = TraceAnalyticsObserver()
            for request in source:
                observer.observe(request)
    except (OSError, ValueError) as error:
        print(f"repro trace analyze: {error}", file=sys.stderr)
        return 2
    analytics = observer.result(label=source.label)
    result = analytics_result(analytics)
    print(result.to_text())
    if source.metadata:
        print(f"metadata: {source.metadata}")
    if not args.no_chart and observer.series_volume:
        print()
        print(
            render_series(
                observer.series_volume,
                label=f"live volume over {analytics.requests} requests",
            )
        )
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    import os

    from repro.workloads import TraceFileSource, open_trace_writer

    version = int(args.format[1:])
    if args.block_size is not None and version != 3:
        print(
            f"repro trace convert: --block-size only applies to the v3 "
            f"block-indexed format, not {args.format}",
            file=sys.stderr,
        )
        return 2
    if os.path.abspath(args.input) == os.path.abspath(args.output):
        print(
            "repro trace convert: input and output are the same file; "
            "conversion streams the input while writing, so it would corrupt it",
            file=sys.stderr,
        )
        return 2
    try:
        source = TraceFileSource(args.input)
    except (OSError, ValueError) as error:
        print(f"repro trace convert: {error}", file=sys.stderr)
        return 2
    writer_options = {}
    if args.block_size is not None:
        writer_options["block_records"] = args.block_size
    try:
        writer = open_trace_writer(
            args.output,
            version=version,
            label=source.label,
            metadata=source.metadata,
            compress=args.compress,
            **writer_options,
        )
    except (OSError, ValueError) as error:
        print(f"repro trace convert: {error}", file=sys.stderr)
        return 2
    try:
        for request in source:
            writer.write(request)
        writer.close()
    except (OSError, ValueError) as error:
        writer.abort()
        if os.path.exists(args.output):
            os.unlink(args.output)
        print(f"repro trace convert: {error}", file=sys.stderr)
        return 2
    print(
        f"wrote {writer.count} request(s) to {args.output} "
        f"({args.format}{', zlib-compressed' if args.compress else ''}, "
        f"{os.path.getsize(args.output)} bytes)"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    import json

    from repro.workloads import trace_info

    try:
        info = trace_info(args.path)
    except (OSError, ValueError) as error:
        print(f"repro trace info: {error}", file=sys.stderr)
        return 2
    if info.seekable:
        seek_row = (
            f"yes ({info.blocks} block(s), up to {info.block_records} "
            f"records per block)"
        )
    else:
        seek_row = "not seekable (no block index; convert with --format v3 to seek)"
    rows = [
        ("path", info.path),
        ("format", info.format_description),
        ("seekable", seek_row),
        ("file size", f"{info.file_bytes} bytes"),
        ("label", info.label),
        ("requests", f"{info.requests} ({info.inserts} inserts / {info.deletes} deletes)"),
        ("distinct names", str(info.distinct_names)),
        ("delta (max object size)", str(info.delta)),
        ("peak live volume", str(info.peak_volume)),
        ("final live volume", str(info.final_volume)),
        ("total inserted volume", str(info.total_inserted_volume)),
    ]
    if info.metadata:
        rows.append(("metadata", json.dumps(info.metadata, sort_keys=True)))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import load_events, obs_report, validate_events

    try:
        events = load_events(args.path)
    except (OSError, ValueError) as error:
        print(f"repro obs report: {error}", file=sys.stderr)
        return 2
    if args.check:
        problems = validate_events(events)
        if problems:
            for problem in problems:
                print(f"repro obs report: {problem}", file=sys.stderr)
            return 1
    print(obs_report(events, cell_filter=args.cell))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    print(
        "repro obs: choose a subcommand (try: repro obs report <telemetry.jsonl>)",
        file=sys.stderr,
    )
    return 2


def _cmd_chaos_sites(args: argparse.Namespace) -> int:
    from repro.faults import SITES

    width = max(len(site) for site in SITES)
    for site in sorted(SITES):
        print(f"{site.ljust(width)}  {SITES[site]}")
    return 0


def _cmd_chaos_sweep(args: argparse.Namespace) -> int:
    import fnmatch
    import os

    from repro.campaign import CampaignSpec
    from repro.faults import SITES, FaultPlan, FaultPlanError
    from repro.faults import chaos

    try:
        spec = CampaignSpec.from_json(args.spec)
    except (OSError, ValueError) as error:
        print(f"repro chaos sweep: cannot load spec {args.spec!r}: {error}", file=sys.stderr)
        return 2
    sites = None
    if args.sites is not None:
        sites = [site for site in SITES if fnmatch.fnmatchcase(site, args.sites)]
        if not sites:
            print(
                f"repro chaos sweep: no fault site matches {args.sites!r} "
                "(see: repro chaos sites)",
                file=sys.stderr,
            )
            return 2
    plans = []
    if args.faults is not None:
        try:
            plans.append(FaultPlan.from_json(args.faults))
        except FaultPlanError as error:
            print(f"repro chaos sweep: {error}", file=sys.stderr)
            return 2
    if args.single_faults:
        plans.extend(chaos.single_fault_plans(sites=sites))
    plans.extend(chaos.seeded_plan(seed, sites=sites) for seed in range(args.seeds))
    if not plans:
        print(
            "repro chaos sweep: nothing to run — give --faults PLAN.json, "
            "--single-faults, and/or --seeds N",
            file=sys.stderr,
        )
        return 2
    out_root = args.out if args.out is not None else f"chaos-{spec.name}"

    def progress(schedule):
        if not args.quiet:
            status = "ok   " if schedule.passed else "FAIL "
            detail = f" ({schedule.detail})" if schedule.detail else ""
            print(
                f"[chaos] {status} {schedule.label} "
                f"rounds={schedule.rounds} exits={schedule.worker_exits}{detail}",
                file=sys.stderr,
            )

    report = chaos.run_chaos(
        spec,
        plans,
        out_root,
        workers=args.workers,
        lease_ttl=args.lease_ttl if args.lease_ttl is not None else chaos.HARNESS_LEASE_TTL,
        baseline_dir=args.baseline,
        progress=progress,
    )
    passed = len(report.schedules) - len(report.failed)
    print(f"chaos: {passed}/{len(report.schedules)} schedule(s) converged to the baseline")
    if report.baseline_dir:
        print(f"baseline artifact: {os.path.join(report.baseline_dir, 'results.json')}")
    for schedule in report.failed:
        print(
            f"repro chaos sweep: FAILED {schedule.label}: "
            f"{schedule.detail or 'did not match the baseline'} "
            f"(artifacts under {schedule.directory})",
            file=sys.stderr,
        )
    return 1 if report.failed else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.chaos_command == "sites":
        return _cmd_chaos_sites(args)
    if args.chaos_command == "sweep":
        return _cmd_chaos_sweep(args)
    print(
        "repro chaos: choose a subcommand (try: repro chaos sites, or "
        "repro chaos sweep <spec.json> --single-faults --seeds 5)",
        file=sys.stderr,
    )
    return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.campaign.spec import SpecError
    from repro.serve import ServeConfig, run_server

    allocator = args.allocator
    if allocator.strip().startswith("{"):
        try:
            allocator = json.loads(allocator)
        except json.JSONDecodeError as error:
            print(f"repro serve: --allocator is not valid JSON: {error}", file=sys.stderr)
            return 2
    config = ServeConfig(
        allocator=allocator,
        host=args.host,
        port=args.port,
        shared_arena=args.shared,
        trace_dir=args.trace_dir,
        snapshot_dir=args.snapshot_dir,
        label=args.label,
    )
    if args.max_batch is not None:
        if args.max_batch < 1:
            print("repro serve: --max-batch must be >= 1", file=sys.stderr)
            return 2
        config.max_batch = args.max_batch
    if args.queue_depth is not None:
        if args.queue_depth < 1:
            print("repro serve: --queue-depth must be >= 1", file=sys.stderr)
            return 2
        config.queue_depth = args.queue_depth
    try:
        return run_server(config)
    except (SpecError, OSError, ValueError) as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2


def _cmd_load(args: argparse.Namespace) -> int:
    import json

    from repro.serve import run_load

    host, sep, port_text = args.target.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        print(
            f"repro load: target must be HOST:PORT, got {args.target!r}",
            file=sys.stderr,
        )
        return 2
    if args.clients < 1 or args.requests < 1 or args.batch < 1 or args.window < 1:
        print(
            "repro load: --clients/--requests/--batch/--window must be >= 1",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_load(
            host,
            int(port_text),
            clients=args.clients,
            requests=args.requests,
            pattern=args.pattern,
            target_live=args.target_live,
            seed=args.seed,
            batch=args.batch,
            window=args.window,
        )
    except OSError as error:
        print(f"repro load: cannot reach {args.target}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"{len(report.clients)} client(s): {report.applied}/{report.sent} "
            f"request(s) applied in {report.elapsed_seconds:.2f}s "
            f"({report.requests_per_second} req/s aggregate), "
            f"{report.errors} error(s)"
        )
    return 1 if report.errors or report.applied != report.sent else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "analyze": _cmd_trace_analyze,
        "convert": _cmd_trace_convert,
        "info": _cmd_trace_info,
    }
    handler = handlers.get(args.trace_command)
    if handler is None:
        print(
            "repro trace: choose a subcommand (try: repro trace analyze <path>, "
            "repro trace convert <in> <out> --format v3, or repro trace info <path>)",
            file=sys.stderr,
        )
        return 2
    return handler(args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        width = max(len(key) for key in EXPERIMENTS)
        for key in sorted(EXPERIMENTS):
            experiment = EXPERIMENTS[key]
            print(f"{key.ljust(width)}  {experiment.title}  [{experiment.paper_reference}]")
        return 0
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "load":
        return _cmd_load(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
