"""The chaos harness: distributed sweeps under fault schedules.

One *schedule* is one :class:`~repro.faults.injector.FaultPlan` applied to
one distributed sweep of a spec.  The harness:

1. enqueues the spec into a fresh queue directory;
2. runs round 0 *faulted*: worker processes (and one merge attempt) with
   the plan armed — workers may crash mid-write, tear journal lines, see
   injected ``EIO``/``ENOSPC``, or run on a skewed clock;
3. force-expires the leases of the (now joined, possibly dead) workers and
   keeps running *clean* recovery rounds — drain, merge, re-enqueue
   errored cells — until the merge reports no pending cells and no errors;
4. checks the converged artifact against a fault-free baseline, comparing
   records with timing/host fields stripped.

Lease force-expiry is sound here because every worker the harness spawned
has been joined before it runs — any surviving lease belongs to a dead
process.  Real deployments rely on the TTL instead.

This module may import the campaign layer (it is *not* imported by
``repro.faults.__init__``, which the hot paths pull in).
"""

from __future__ import annotations

import multiprocessing
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.campaign.artifacts import completed_records, load_results
from repro.campaign.queue import (
    QueueError,
    enqueue_campaign,
    merge_queue,
    results_path,
    run_campaign,
    work_queue,
)
from repro.campaign.spec import CampaignSpec
from repro.faults.injector import FaultPlan, activate_plan
from repro.faults.retry import RetryPolicy
from repro.faults.sites import SITES

#: Fields that legitimately differ between two runs of the same cell.
VOLATILE_RECORD_FIELDS = (
    "elapsed_seconds",
    "resources",
    "telemetry",
    "profile",
    "worker",
    "resumed",
)

#: Short lease TTL for harness runs: workers are joined before recovery,
#: so the TTL only has to beat the force-expiry path racing nothing.
HARNESS_LEASE_TTL = 30.0

#: Bounded fast retries so injected transients are survived without
#: stretching test wall-clock.
HARNESS_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05, seed=0)


def comparable_records(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Strip the volatile fields so two runs' records can be compared."""
    return [
        {k: v for k, v in record.items() if k not in VOLATILE_RECORD_FIELDS}
        for record in records
    ]


def fault_free_baseline(
    spec: CampaignSpec, out_dir: Optional[Union[str, os.PathLike]] = None
) -> List[Dict[str, Any]]:
    """Run ``spec`` serially with no faults; optionally into ``out_dir``."""
    return comparable_records(run_campaign(spec, directory=out_dir).records)


# ------------------------------------------------------------- plan builders
def single_fault_plans(
    sites: Optional[Iterable[str]] = None,
    actions: Sequence[str] = ("raise", "crash"),
) -> List[FaultPlan]:
    """One plan per (site, action): the systematic enumeration battery."""
    plans = []
    for site in sorted(sites if sites is not None else SITES):
        for action in actions:
            plans.append(FaultPlan(rules=[_rule(site, action)], seed=0))
    return plans


def seeded_plan(
    seed: int,
    sites: Optional[Sequence[str]] = None,
    max_rules: int = 3,
) -> FaultPlan:
    """A deterministic multi-fault schedule drawn from ``seed``."""
    pool = sorted(sites if sites is not None else SITES)
    rng = random.Random(seed)
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        site = rng.choice(pool)
        action = rng.choice(("raise", "raise", "torn", "crash", "delay", "skew"))
        rules.append(_rule(site, action, rng))
    return FaultPlan(rules=rules, seed=seed)


def _rule(site: str, action: str, rng: Optional[random.Random] = None):
    from repro.faults.injector import FaultRule

    kwargs: Dict[str, Any] = {"site": site, "action": action, "times": 1}
    if rng is not None:
        kwargs["after"] = rng.randint(0, 1)
        kwargs["times"] = rng.randint(1, 2)
        if action == "raise":
            kwargs["error"] = rng.choice(("EIO", "ENOSPC"))
        elif action == "skew":
            kwargs["skew_seconds"] = rng.choice((-120.0, 120.0))
    if action == "delay":
        kwargs["delay_seconds"] = 0.01
    return FaultRule(**kwargs)


def plan_label(plan: FaultPlan) -> str:
    """A short filesystem-safe tag for one plan."""
    if len(plan.rules) == 1:
        rule = plan.rules[0]
        return f"{rule.site}.{rule.action}".replace("*", "any").replace("/", "_")
    return f"seed-{plan.seed}-x{len(plan.rules)}"


# ------------------------------------------------------------ schedule runner
@dataclass
class ScheduleResult:
    """What one chaos schedule produced."""

    label: str
    plan: FaultPlan
    directory: str
    rounds: int = 0
    worker_exits: List[int] = field(default_factory=list)
    faults_fired: int = 0
    converged: bool = False
    identical: bool = False
    artifact_ok: bool = True
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.converged and self.identical and self.artifact_ok


def force_expire_leases(directory: Union[str, os.PathLike]) -> int:
    """Backdate every lease to the epoch so the next claim steals it.

    Only sound when no spawned worker is still alive (the harness joins
    them first); returns the number of leases expired.
    """
    lease_dir = os.path.join(os.fspath(directory), "leases")
    expired = 0
    try:
        names = os.listdir(lease_dir)
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".lease"):
            continue
        try:
            os.utime(os.path.join(lease_dir, name), (1, 1))
            expired += 1
        except OSError:
            pass
    return expired


def _chaos_worker_entry(
    directory: str, token: str, plan_dict: Dict[str, Any], lease_ttl: float
) -> None:
    """Worker process entry: arm the plan, drain until it can't."""
    activate_plan(FaultPlan.from_dict(plan_dict))
    try:
        work_queue(
            directory,
            token=token,
            lease_ttl=lease_ttl,
            retry=HARNESS_RETRY,
        )
    except (QueueError, OSError):
        pass  # a worker dying ugly is part of the schedule


def _chaos_merge_entry(directory: str, plan_dict: Dict[str, Any], lease_ttl: float) -> None:
    """Merge attempt under injection: exercises the artifact.write sites."""
    activate_plan(FaultPlan.from_dict(plan_dict))
    try:
        merge_queue(directory, lease_ttl=lease_ttl)
    except (QueueError, ValueError, OSError):
        pass


def _artifact_intact(directory: Union[str, os.PathLike]) -> bool:
    """``results.json`` must be absent or fully valid — never torn."""
    path = results_path(directory)
    if not os.path.exists(path):
        return True
    try:
        load_results(path)
    except (OSError, ValueError):
        return False
    return True


def run_schedule(
    spec: CampaignSpec,
    plan: FaultPlan,
    directory: Union[str, os.PathLike],
    baseline: List[Dict[str, Any]],
    workers: int = 1,
    lease_ttl: float = HARNESS_LEASE_TTL,
    max_rounds: int = 6,
) -> ScheduleResult:
    """Run one fault schedule to convergence; see the module docstring."""
    directory = os.fspath(directory)
    result = ScheduleResult(label=plan_label(plan), plan=plan, directory=directory)
    enqueue_campaign(spec, directory)
    plan_dict = plan.to_dict()
    context = multiprocessing.get_context()
    merged = None
    for round_number in range(max_rounds):
        result.rounds = round_number + 1
        if round_number == 0:
            processes = [
                context.Process(
                    target=_chaos_worker_entry,
                    args=(directory, f"chaos-w{rank}", plan_dict, lease_ttl),
                )
                for rank in range(max(1, workers))
            ]
            for process in processes:
                process.start()
            for process in processes:
                process.join()
            result.worker_exits = [process.exitcode or 0 for process in processes]
            force_expire_leases(directory)
            merge_attempt = context.Process(
                target=_chaos_merge_entry, args=(directory, plan_dict, lease_ttl)
            )
            merge_attempt.start()
            merge_attempt.join()
        else:
            try:
                work_queue(
                    directory,
                    token=f"recover-{round_number}",
                    lease_ttl=lease_ttl,
                    retry=HARNESS_RETRY,
                )
            except OSError:
                pass
        if not _artifact_intact(directory):
            result.artifact_ok = False
            result.detail = "results.json is torn/corrupt after the faulted round"
            return result
        force_expire_leases(directory)
        merged = merge_queue(directory, lease_ttl=lease_ttl)
        errors = merged.document.get("errors", 0)
        if not merged.pending and not errors:
            result.converged = True
            break
        if errors and not merged.pending:
            # Errored cells were dequeued; put them back for the next round.
            enqueue_campaign(spec, directory, completed=completed_records(merged.document))
    if not result.converged:
        pending = len(merged.pending) if merged is not None else -1
        errors = merged.document.get("errors", "?") if merged is not None else "?"
        result.detail = (
            f"did not converge in {max_rounds} round(s): "
            f"{pending} pending, {errors} error(s)"
        )
        return result
    got = comparable_records(merged.document.get("records", []))
    result.identical = got == baseline
    if not result.identical:
        result.detail = "converged records differ from the fault-free baseline"
    return result


@dataclass
class ChaosReport:
    """Every schedule's outcome for one ``repro chaos sweep`` invocation."""

    schedules: List[ScheduleResult] = field(default_factory=list)
    baseline_dir: Optional[str] = None

    @property
    def failed(self) -> List[ScheduleResult]:
        return [schedule for schedule in self.schedules if not schedule.passed]


def run_chaos(
    spec: CampaignSpec,
    plans: Sequence[FaultPlan],
    out_root: Union[str, os.PathLike],
    workers: int = 1,
    lease_ttl: float = HARNESS_LEASE_TTL,
    baseline: Optional[List[Dict[str, Any]]] = None,
    baseline_dir: Optional[Union[str, os.PathLike]] = None,
    progress=None,
) -> ChaosReport:
    """Run every plan as its own schedule under ``out_root``."""
    out_root = os.fspath(out_root)
    os.makedirs(out_root, exist_ok=True)
    if baseline is None:
        baseline_dir = baseline_dir or os.path.join(out_root, "baseline")
        baseline = fault_free_baseline(spec, baseline_dir)
    report = ChaosReport(
        baseline_dir=os.fspath(baseline_dir) if baseline_dir is not None else None
    )
    for index, plan in enumerate(plans):
        directory = os.path.join(out_root, f"schedule-{index:03d}-{plan_label(plan)}")
        schedule = run_schedule(
            spec, plan, directory, baseline, workers=workers, lease_ttl=lease_ttl
        )
        report.schedules.append(schedule)
        if progress is not None:
            progress(schedule)
    return report
