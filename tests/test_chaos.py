"""End-to-end chaos schedules: distributed sweeps under injected faults.

The contract under test (ISSUE 9's acceptance bar): for every armed
single-fault site — including crash-the-process at every site — and for a
battery of seeded multi-fault schedules, a distributed sweep driven by the
chaos harness converges, after resume/merge, to a ``results.json`` whose
records are identical to a fault-free run (timing/host fields aside), with
no torn artifact, no undetectable trace truncation, and no stuck lease.
"""

import json
import os

import pytest

from repro.allocators import FirstFitAllocator
from repro.campaign import CampaignSpec, load_results
from repro.cli import main
from repro.faults import CRASH_EXIT_CODE, FaultPlan, FaultRule, SITES, deactivate_faults
from repro.faults import chaos
from repro.serve import ProtocolError, ServeClient, ServeClientError, restore_session
from repro.workloads import UniformSizes, churn_trace, read_trace_tail, trace_info
from test_serve import _spawn_server, layout


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    deactivate_faults()


def chaos_spec(tmp_path, cells=1):
    """A tiny spec that exercises *every* fault site: the checkpointed
    allocator hits ``checkpoint.persist``, the trace recorder hits the
    ``trace.write.*`` sites, the queue/artifact sites fire on any sweep."""
    workloads = [
        {"kind": "churn", "requests": 40, "target_live": 10},
        {"kind": "grow_shrink", "requests": 30},
    ][: max(1, cells)]
    return CampaignSpec.from_dict(
        {
            "name": "chaos-v3",
            "seed": 13,
            "workloads": workloads,
            "allocators": [{"kind": "checkpointed"}],
            "costs": ["linear"],
            "observers": [
                {
                    "kind": "trace_recorder",
                    "path": str(tmp_path / "rec-{cell}.v3"),
                    "version": 3,
                }
            ],
        }
    )


def assert_all_passed(report):
    failed = [
        f"{schedule.label}: {schedule.detail or 'records differ'} "
        f"(rounds={schedule.rounds}, exits={schedule.worker_exits})"
        for schedule in report.failed
    ]
    assert not failed, "chaos schedules failed:\n" + "\n".join(failed)


# ---------------------------------------------------------------- the battery
def test_single_fault_battery_every_site_raise_and_crash(tmp_path):
    """One raise and one crash schedule per armed site, all converging."""
    spec = chaos_spec(tmp_path)
    # serve.* (and the session-snapshot site) never fire in a campaign
    # sweep; their crash/restore coverage lives in tests/test_serve.py.
    sites = sorted(
        site
        for site in SITES
        if not site.startswith("serve.")
        and site != "checkpoint.snapshot"
    )
    plans = chaos.single_fault_plans(sites=sites)
    assert len(plans) == 2 * len(sites)
    report = chaos.run_chaos(spec, plans, tmp_path / "chaos")
    assert len(report.schedules) == len(plans)
    assert_all_passed(report)
    # Crash schedules really did kill a worker (exit code 86), and the
    # lease it died holding was recovered, not stuck.
    crashed = [
        s for s in report.schedules
        if s.plan.rules[0].action == "crash" and 86 in s.worker_exits
    ]
    assert crashed, "no crash schedule actually killed a worker"
    for schedule in report.schedules:
        assert os.listdir(os.path.join(schedule.directory, "leases")) == []
    # The converged trace files are valid end to end — no silent truncation.
    info = trace_info(tmp_path / "rec-0.v3")
    assert info.requests == 40


def test_seeded_multi_fault_schedules_converge(tmp_path):
    """>= 20 seeded multi-fault schedules, two workers each."""
    spec = chaos_spec(tmp_path, cells=2)
    plans = [chaos.seeded_plan(seed) for seed in range(20)]
    report = chaos.run_chaos(spec, plans, tmp_path / "chaos", workers=2)
    assert len(report.schedules) == 20
    assert_all_passed(report)


def test_seeded_plans_are_deterministic():
    for seed in range(10):
        assert chaos.seeded_plan(seed).to_dict() == chaos.seeded_plan(seed).to_dict()
    distinct = {json.dumps(chaos.seeded_plan(seed).to_dict()) for seed in range(20)}
    assert len(distinct) > 10


def test_comparable_records_strip_only_volatile_fields():
    record = {"cell_id": "c", "status": "ok", "elapsed_seconds": 1.5,
              "worker": "w-1", "resources": {}, "max_footprint": 9}
    [stripped] = chaos.comparable_records([record])
    assert stripped == {"cell_id": "c", "status": "ok", "max_footprint": 9}


# ---------------------------------------------------------------- serve tier
def test_crash_mid_continuation_block_restores_the_acked_prefix(tmp_path):
    """Crash a served tenant while it writes its third continuation block
    (each acked batch syncs one block: batch 1 the snapshot block, batches
    2.. continuation blocks).  The torn block must cost exactly the
    unacked batch: the tail holds the acked prefix, and snapshot + tail
    restore to the offline replay's layout."""
    plan_path = tmp_path / "plan.json"
    FaultPlan(
        rules=[FaultRule(site="trace.write.block", action="crash", after=3)],
        seed=0,
    ).to_json(plan_path)
    process, host, port = _spawn_server(
        tmp_path, "cont", env_extra={"REPRO_FAULTS": str(plan_path)}
    )
    trace = list(churn_trace(300, UniformSizes(1, 32), target_live=40, seed=34))
    acked = 0
    try:
        try:
            client = ServeClient(host, port, tenant="c")
            for index in range(6):
                ack = client.apply(trace[index * 50 : (index + 1) * 50])
                assert ack["ok"]
                acked += ack["applied"]
                if index == 1:
                    assert client.snapshot()["requests_applied"] == 100
            raise AssertionError("server should have crashed mid-continuation")
        except (ServeClientError, ProtocolError, OSError):
            pass
        assert process.wait(timeout=30) == CRASH_EXIT_CODE
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    assert acked == 150  # the fourth batch's continuation block was torn

    tail = read_trace_tail(tmp_path / "cont-c.v3")
    assert not tail.complete
    assert tail.blocks == 3  # one snapshot and two continuation blocks
    assert [(r.op, r.name, r.size) for r in tail.requests] == [
        (r.op, str(r.name), r.size) for r in trace[:150]
    ]
    session, replayed = restore_session(tmp_path / "cont-c.snap", tmp_path / "cont-c.v3")
    assert replayed == 50
    assert session.requests_applied == 150
    offline = FirstFitAllocator()
    offline.run(trace[:150])
    assert layout(session.allocator) == sorted(
        (str(name), start, length) for name, start, length in layout(offline)
    )


# ------------------------------------------------------------------------ CLI
def test_cli_chaos_sweep_smoke_and_diff_gate(tmp_path, capsys):
    """The CI smoke in miniature: explicit plan + seeded schedules, then the
    sweep-diff regression gate against the fault-free baseline."""
    spec = chaos_spec(tmp_path)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    plan_path = tmp_path / "plan.json"
    FaultPlan(
        rules=[
            FaultRule(site="queue.dequeue", action="crash"),
            FaultRule(site="queue.lease.steal", action="raise"),
        ],
        seed=1,
    ).to_json(plan_path)
    out = tmp_path / "chaos-out"
    assert (
        main(
            [
                "chaos", "sweep", str(spec_path),
                "--faults", str(plan_path),
                "--seeds", "2",
                "--workers", "2",
                "--out", str(out),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "3/3 schedule(s) converged" in captured.out
    baseline = load_results(out / "baseline" / "results.json")
    assert baseline["cells"] == 1
    # Every schedule directory holds a mergeable artifact identical to the
    # baseline: the sweep-diff CI gate passes against each one.
    schedules = sorted(d for d in os.listdir(out) if d.startswith("schedule-"))
    assert len(schedules) == 3
    for schedule in schedules:
        assert (
            main(
                [
                    "sweep", "diff",
                    str(out / "baseline"),
                    str(out / schedule),
                    "--fail-on-regression",
                ]
            )
            == 0
        )
    capsys.readouterr()
