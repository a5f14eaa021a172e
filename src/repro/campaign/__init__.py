"""Campaign engine: declarative sweep matrices over the reproduction harness.

A *campaign* expands a declarative spec (workloads x allocators x cost
functions x device models) into independent cells, drains them through a
work queue — in-process or over worker processes — with per-cell seeding
and fault isolation, and writes structured artifacts (``results.json`` /
``results.csv``) plus the same ASCII tables the registered experiments print.  The companion
:mod:`~repro.campaign.analyze` module characterises any trace (footprint
profile, size/lifetime distributions, death-time grouping) before it is
swept.

Entry points: ``repro sweep <spec.json> [--jobs N] [--out DIR]`` and
``repro trace analyze <path>``.
"""

from repro.campaign.analyze import analytics_result
from repro.engine.analytics import TraceAnalytics, TraceAnalyticsObserver
from repro.campaign.report import document_table, sweep_report
from repro.campaign.artifacts import (
    ArtifactError,
    atomic_write,
    campaign_to_dict,
    completed_records,
    load_results,
    write_results,
)
from repro.campaign.diff import (
    DIFF_METRICS,
    CampaignDiff,
    MetricDelta,
    ToleranceError,
    diff_documents,
    diff_table,
    parse_tolerances,
)
from repro.campaign.executor import CampaignResult, run_cell
from repro.campaign.progress import ProgressReporter
from repro.campaign.queue import (
    CellJournal,
    MergeResult,
    QueueError,
    claim_cell,
    enqueue_campaign,
    merge_queue,
    read_journal,
    run_campaign,
    work_queue,
)
from repro.campaign.spec import (
    ALLOCATOR_KINDS,
    COST_KINDS,
    DEVICE_KINDS,
    CampaignCell,
    CampaignSpec,
    SpecError,
    build_allocator,
    build_cost,
    build_device,
    build_observer,
    build_workload,
)

__all__ = [
    "ALLOCATOR_KINDS",
    "COST_KINDS",
    "DEVICE_KINDS",
    "DIFF_METRICS",
    "ArtifactError",
    "CampaignCell",
    "CampaignDiff",
    "CampaignResult",
    "CampaignSpec",
    "CellJournal",
    "MergeResult",
    "MetricDelta",
    "ProgressReporter",
    "QueueError",
    "SpecError",
    "ToleranceError",
    "TraceAnalytics",
    "TraceAnalyticsObserver",
    "analytics_result",
    "atomic_write",
    "claim_cell",
    "diff_documents",
    "diff_table",
    "document_table",
    "sweep_report",
    "build_allocator",
    "build_cost",
    "build_device",
    "build_workload",
    "build_observer",
    "campaign_to_dict",
    "completed_records",
    "enqueue_campaign",
    "load_results",
    "merge_queue",
    "parse_tolerances",
    "read_journal",
    "run_campaign",
    "run_cell",
    "work_queue",
    "write_results",
]
