"""Cost-oblivious storage reallocation (Bender et al., PODS 2014).

A reference implementation of the paper's cost-oblivious storage
reallocators, the substrates they run on (simulated devices, block
translation layer, checkpointing), the baselines they are compared against,
and a benchmark harness that regenerates an experiment for every theorem,
lemma, and figure in the paper.

Quickstart
----------

>>> from repro import CostObliviousReallocator
>>> realloc = CostObliviousReallocator(epsilon=0.25)
>>> _ = realloc.insert("block-1", size=16)
>>> _ = realloc.insert("block-2", size=4)
>>> realloc.footprint <= 1.25 * realloc.volume + 1
True

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
experiment suite registered in :mod:`repro.harness.experiments`.
"""

from repro.core import (
    Allocator,
    AllocationError,
    CostObliviousReallocator,
    CheckpointedReallocator,
    DeamortizedReallocator,
    Defragmenter,
    DefragmentationResult,
    check_invariants,
    render_layout,
)
from repro.costs import (
    CostFunction,
    LinearCost,
    ConstantCost,
    AffineCost,
    PowerCost,
    LogCost,
    RotatingDiskCost,
    SolidStateCost,
    MainMemoryCost,
    STANDARD_COST_SUITE,
)
from repro.engine import (
    EngineSession,
    FootprintSeriesObserver,
    GapHistogramObserver,
    HistoryObserver,
    Observer,
    PerClassOccupancyObserver,
    TraceAnalyticsObserver,
    TraceRecorderObserver,
)
from repro.metrics import run_trace
from repro.workloads import (
    Request,
    RequestSource,
    Trace,
    TraceFileSource,
    iter_trace,
    load_trace,
    save_trace,
    trace_info,
)

__version__ = "1.0.0"

__all__ = [
    "Allocator",
    "AllocationError",
    "CostObliviousReallocator",
    "CheckpointedReallocator",
    "DeamortizedReallocator",
    "Defragmenter",
    "DefragmentationResult",
    "check_invariants",
    "render_layout",
    "CostFunction",
    "LinearCost",
    "ConstantCost",
    "AffineCost",
    "PowerCost",
    "LogCost",
    "RotatingDiskCost",
    "SolidStateCost",
    "MainMemoryCost",
    "STANDARD_COST_SUITE",
    "EngineSession",
    "FootprintSeriesObserver",
    "GapHistogramObserver",
    "HistoryObserver",
    "Observer",
    "PerClassOccupancyObserver",
    "TraceAnalyticsObserver",
    "TraceRecorderObserver",
    "run_trace",
    "Request",
    "RequestSource",
    "Trace",
    "TraceFileSource",
    "iter_trace",
    "load_trace",
    "save_trace",
    "trace_info",
    "__version__",
]
