"""Observer-based simulation engine.

The one instrumentation seam shared by the metrics collector, the experiment
harness, and the campaign executor: replay a trace through an allocator with
pluggable :class:`Observer` instances via :meth:`EngineSession.run`.  See
``README.md`` ("Analytics & observers") for the registered observer kinds
and a worked example of writing a custom observer.
"""

from repro.engine.session import EngineRun, EngineSession, Replayable, SessionStateError
from repro.engine.observers import (
    EVENT_HOOKS,
    OBSERVER_KINDS,
    DeviceObserver,
    FootprintSeriesObserver,
    GapHistogramObserver,
    HistoryObserver,
    Observer,
    PerClassOccupancyObserver,
    SampledSeriesObserver,
    ShardContext,
    TraceRecorderObserver,
    build_observer,
    needs_events,
    planned_stride,
)
from repro.engine.analytics import (
    TraceAnalytics,
    TraceAnalyticsObserver,
    analyze_source,
    percentile,
    size_histogram,
    size_histogram_from_counts,
)
from repro.engine.parallel import (
    SerialFallbackWarning,
    analyze_trace_parallel,
    replay_unshardable_reason,
    run_replay_sharded,
    shard_plan,
    unmergeable_observers,
)

# The analytics observer lives in repro.engine.analytics (which itself
# imports the Observer base class), so it registers here rather than in
# repro.engine.observers.
OBSERVER_KINDS["trace_analytics"] = TraceAnalyticsObserver

__all__ = [
    "EVENT_HOOKS",
    "OBSERVER_KINDS",
    "DeviceObserver",
    "EngineRun",
    "EngineSession",
    "FootprintSeriesObserver",
    "GapHistogramObserver",
    "HistoryObserver",
    "Observer",
    "PerClassOccupancyObserver",
    "Replayable",
    "SampledSeriesObserver",
    "SerialFallbackWarning",
    "SessionStateError",
    "ShardContext",
    "TraceAnalytics",
    "TraceAnalyticsObserver",
    "TraceRecorderObserver",
    "analyze_source",
    "analyze_trace_parallel",
    "build_observer",
    "needs_events",
    "percentile",
    "planned_stride",
    "replay_unshardable_reason",
    "run_replay_sharded",
    "shard_plan",
    "size_histogram",
    "size_histogram_from_counts",
    "unmergeable_observers",
]
