"""Implementations of the experiments registered in :mod:`repro.harness.experiments`.

Each ``run_*`` function accepts ``quick`` (smaller traces, used by the test
suite and the default benchmark run) and returns an
:class:`~repro.harness.results.ExperimentResult`.  The ``full`` runs merely
use longer traces; they do not change the experiment's structure.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.allocators import (
    AppendOnlyAllocator,
    BestFitAllocator,
    BuddyAllocator,
    FirstFitAllocator,
    IdealPackingReallocator,
    LoggingCompactingReallocator,
    NextFitAllocator,
    SizeClassGapReallocator,
    WorstFitAllocator,
)
from repro.analysis import (
    memory_allocation_lower_bound,
    predicted_checkpoints_per_flush,
    predicted_cost_ratio,
    predicted_footprint_ratio,
    predicted_worst_case_moved_volume,
)
from repro.core import (
    CheckpointedReallocator,
    CostObliviousReallocator,
    DeamortizedReallocator,
    Defragmenter,
    render_layout,
)
from repro.costs import (
    STANDARD_COST_SUITE,
    ConstantCost,
    LinearCost,
    RotatingDiskCost,
    SolidStateCost,
)
from repro.engine import Observer
from repro.harness.results import ExperimentResult
from repro.metrics import run_trace
from repro.metrics.report import render_series
from repro.workloads import (
    BimodalSizes,
    DatabaseBlockSizes,
    UniformSizes,
    ZipfSizes,
    churn_trace,
    fragmentation_attack_trace,
    large_then_small_trace,
    lower_bound_trace,
    repeated_large_delete_trace,
    sawtooth_trace,
    small_flood_trace,
)

#: Epsilons swept by the footprint / checkpoint experiments.
EPSILON_SWEEP = (0.5, 0.25, 0.125, 0.0625)


# ------------------------------------------------------ experiment observers
class _ReservedSpaceObserver(Observer):
    """E1: track max reserved-space and quiescent-footprint ratios."""

    def __init__(self) -> None:
        self.reserved_ratio = 0.0
        self.footprint_ratio = 0.0
        self._allocator = None

    def on_attach(self, allocator) -> None:
        self._allocator = allocator

    def on_request(self, record) -> None:
        if record.volume_after <= 0:
            return
        self.reserved_ratio = max(
            self.reserved_ratio, self._allocator.bounded_space() / record.volume_after
        )
        # The footprint guarantee applies between flushes; the deamortized
        # variant may legitimately hold an extra O(Delta) of working space
        # while a flush is in progress (Lemma 3.5), so sample its footprint
        # when quiescent.
        if not getattr(self._allocator, "flush_in_progress", False):
            self.footprint_ratio = max(
                self.footprint_ratio, record.footprint_after / record.volume_after
            )


class _WorstRequestObserver(Observer):
    """E3: the largest number of objects moved by any single request."""

    def __init__(self) -> None:
        self.worst_moves = 0

    def on_request(self, record) -> None:
        if record.move_count > self.worst_moves:
            self.worst_moves = record.move_count


class _WorstCaseBoundObserver(Observer):
    """E7: per-request moved volume against the Lemma 3.6 bound."""

    def __init__(self, epsilon: float) -> None:
        self.epsilon = epsilon
        self.worst_moved = 0
        self.worst_bound = 0.0
        self.violations = 0
        self._allocator = None

    def on_attach(self, allocator) -> None:
        self._allocator = allocator

    def on_request(self, record) -> None:
        allocator = self._allocator
        deamortized = isinstance(allocator, DeamortizedReallocator)
        if deamortized:
            bound = allocator.work_factor * record.size + max(allocator.delta, 1)
        else:
            bound = predicted_worst_case_moved_volume(
                self.epsilon,
                record.size,
                max(allocator.delta, 1),
                constant=4.0 / (self.epsilon / 3),
            )
        moved = record.moved_volume
        if moved > self.worst_moved:
            self.worst_moved = moved
            self.worst_bound = bound
        if deamortized and moved > bound:
            self.violations += 1


class _WorstRequestCostObserver(Observer):
    """E8: the most expensive single request under each cost function."""

    def __init__(self, costs) -> None:
        self.costs = tuple(costs)
        self.worst_cost = {f.name: 0.0 for f in self.costs}
        self.worst_moved = 0
        self.worst_moves = 0

    def on_request(self, record) -> None:
        moved_sizes = [m.size for m in record.moves if m.is_reallocation]
        self.worst_moved = max(self.worst_moved, sum(moved_sizes))
        self.worst_moves = max(self.worst_moves, len(moved_sizes))
        for f in self.costs:
            self.worst_cost[f.name] = max(
                self.worst_cost[f.name], sum(f(s) for s in moved_sizes)
            )

#: The three reallocator variants the paper develops, in presentation order.
PAPER_VARIANTS = (
    ("amortized (Sec. 2)", CostObliviousReallocator),
    ("checkpointed (Sec. 3.2)", CheckpointedReallocator),
    ("deamortized (Sec. 3.3)", DeamortizedReallocator),
)


def _trace_sizes(quick: bool) -> Dict[str, int]:
    return {
        "churn": 2500 if quick else 20000,
        "live": 150 if quick else 600,
        "defrag": 150 if quick else 800,
        "scaling": (500, 1500, 3000) if quick else (2000, 8000, 32000),
    }


# --------------------------------------------------------------------------- E1
def run_e1_footprint(quick: bool = True) -> ExperimentResult:
    """Theorem 2.1, footprint half: measured ratio vs the (1 + eps) bound."""
    sizes = _trace_sizes(quick)
    result = ExperimentResult(
        experiment_id="E1",
        title="Footprint competitiveness vs epsilon (Theorem 2.1)",
        headers=[
            "variant",
            "epsilon",
            "bound (1+eps)",
            "max footprint/V",
            "max reserved/V",
            "moves per insert",
        ],
    )
    measured: Dict[str, Dict[float, float]] = {}
    for label, cls in PAPER_VARIANTS:
        measured[label] = {}
        for epsilon in EPSILON_SWEEP:
            trace = churn_trace(
                sizes["churn"], UniformSizes(1, 64), target_live=sizes["live"], seed=11
            )
            allocator = cls(epsilon=epsilon)
            watcher = _ReservedSpaceObserver()
            run_trace(allocator, trace, observers=[watcher])
            stats = allocator.stats
            measured[label][epsilon] = watcher.reserved_ratio
            result.rows.append(
                [
                    label,
                    epsilon,
                    round(predicted_footprint_ratio(epsilon), 4),
                    round(watcher.footprint_ratio, 4),
                    round(watcher.reserved_ratio, 4),
                    round(stats.amortized_moves_per_insert, 2),
                ]
            )
    result.data["measured"] = measured
    result.notes.append(
        "Every measured reserved-space ratio must stay below its 1+eps bound; "
        "smaller eps buys a tighter footprint at the price of more moves per insert."
    )
    return result


# --------------------------------------------------------------------------- E2
def run_e2_cost_obliviousness(quick: bool = True) -> ExperimentResult:
    """Theorem 2.1, cost half: one execution charged under many cost functions."""
    sizes = _trace_sizes(quick)
    epsilon = 0.25
    trace = churn_trace(
        sizes["churn"], BimodalSizes(4, 256, 0.06), target_live=sizes["live"], seed=23
    )
    result = ExperimentResult(
        experiment_id="E2",
        title="Cost obliviousness: reallocation/allocation cost ratio per cost function",
        headers=["variant"] + [f.name for f in STANDARD_COST_SUITE],
    )
    bound = predicted_cost_ratio(epsilon)
    ratios_by_variant: Dict[str, Dict[str, float]] = {}
    for label, cls in PAPER_VARIANTS:
        allocator = cls(epsilon=epsilon)
        metrics = run_trace(allocator, trace, cost_functions=STANDARD_COST_SUITE)
        ratios_by_variant[label] = metrics.cost_ratios
        result.rows.append(
            [label] + [round(metrics.cost_ratios[f.name], 2) for f in STANDARD_COST_SUITE]
        )
    result.data["ratios"] = ratios_by_variant
    result.data["epsilon"] = epsilon
    result.notes.append(
        f"The same execution is charged after the fact under every cost function; "
        f"all ratios stay within a constant factor of the (1/eps)log(1/eps) = "
        f"{bound:.1f} shape, without the algorithm knowing which f applies."
    )
    return result


# --------------------------------------------------------------------------- E3
def run_e3_baselines(quick: bool = True) -> ExperimentResult:
    """Section 1/2 comparison: non-moving and cost-specific baselines.

    Three workloads, each designed to expose one family's weakness:

    * ``churn`` (bimodal sizes) — steady-state traffic; non-moving allocators
      fragment, and the per-request move burst of logging-and-compacting
      shows up in the "worst single request" column.
    * ``fragmentation`` — adversarial deletions; non-moving footprints are
      stuck at the peak.
    * ``small-flood`` — the counterexample against the size-class-gap scheme
      under linear (bandwidth-dominated) costs: its ratio grows with
      ``log Delta`` while the cost-oblivious reallocator's does not.
    """
    sizes = _trace_sizes(quick)
    churn = churn_trace(
        sizes["churn"], BimodalSizes(4, 256, 0.05), target_live=sizes["live"], seed=31
    )
    bandwidth_adversary = small_flood_trace(max_exponent=8 if quick else 11)
    fragmentation = fragmentation_attack_trace(
        pairs=60 if quick else 300, small_size=2, large_size=64
    )
    costs = (LinearCost(), ConstantCost(), RotatingDiskCost())
    contenders = [
        FirstFitAllocator,
        BestFitAllocator,
        NextFitAllocator,
        WorstFitAllocator,
        BuddyAllocator,
        AppendOnlyAllocator,
        LoggingCompactingReallocator,
        SizeClassGapReallocator,
        lambda: CostObliviousReallocator(epsilon=0.25),
        IdealPackingReallocator,
    ]
    result = ExperimentResult(
        experiment_id="E3",
        title="Baseline comparison: every baseline breaks somewhere",
        headers=[
            "allocator",
            "churn max footprint/V",
            "fragmentation max footprint/V",
            "churn linear-cost ratio",
            "churn constant-cost ratio",
            "flood linear-cost ratio (log-Delta test)",
            "worst single request: objects moved",
        ],
    )
    summary: Dict[str, Dict[str, float]] = {}
    for factory in contenders:
        churn_alloc = factory()
        worst_watcher = _WorstRequestObserver()
        run_trace(churn_alloc, churn, observers=[worst_watcher])
        worst_moves = worst_watcher.worst_moves
        churn_stats = churn_alloc.stats
        frag_alloc = factory()
        frag_metrics = run_trace(frag_alloc, fragmentation, cost_functions=costs)
        bw_alloc = factory()
        bw_metrics = run_trace(bw_alloc, bandwidth_adversary, cost_functions=costs)
        summary[churn_alloc.describe()] = {
            "churn_footprint": churn_stats.max_footprint_ratio,
            "fragmentation_footprint": frag_metrics.max_footprint_ratio,
            "churn_linear_ratio": churn_stats.cost_ratio(LinearCost()),
            "churn_constant_ratio": churn_stats.cost_ratio(ConstantCost()),
            "flood_linear_ratio": bw_metrics.cost_ratios["linear"],
            "worst_single_request_moves": worst_moves,
        }
        result.rows.append(
            [
                churn_alloc.describe(),
                round(churn_stats.max_footprint_ratio, 3),
                round(frag_metrics.max_footprint_ratio, 3),
                round(churn_stats.cost_ratio(LinearCost()), 2),
                round(churn_stats.cost_ratio(ConstantCost()), 2),
                round(bw_metrics.cost_ratios["linear"], 2),
                worst_moves,
            ]
        )
    result.data["summary"] = summary
    result.data["non_moving_lower_bound"] = memory_allocation_lower_bound(
        len(churn), 256
    )
    result.notes.append(
        "Non-moving allocators pay with footprint (stuck at the peak after "
        "adversarial deletions, 2-4x fragmented even under friendly churn); "
        "logging-compaction keeps a 2x footprint but must periodically move "
        "every live object in one request (worst-single-request column) — the "
        "behaviour the paper's Section 2 calls out for seek-dominated costs; "
        "the size-class-gap scheme moves little per request but its linear-cost "
        "ratio grows with log Delta on the small-flood adversary; the "
        "cost-oblivious reallocator keeps the footprint and every cost ratio "
        "bounded simultaneously (and its Section 3.3 variant, measured in E7, "
        "additionally bounds the per-request burst)."
    )
    return result


# --------------------------------------------------------------------------- E4
def run_e4_defragmentation(quick: bool = True) -> ExperimentResult:
    """Theorem 2.7: sort a fragmented layout within (1+eps)V + Delta space."""
    sizes = _trace_sizes(quick)
    import random as _random

    result = ExperimentResult(
        experiment_id="E4",
        title="Cost-oblivious defragmentation / sorting (Theorem 2.7)",
        headers=[
            "objects",
            "epsilon",
            "volume V",
            "Delta",
            "space bound (1+eps)V+Delta",
            "peak space",
            "moves per object",
            "linear cost ratio",
            "constant cost ratio",
        ],
    )
    for epsilon in (0.5, 0.25):
        for count in (sizes["defrag"] // 2, sizes["defrag"]):
            rng = _random.Random(count * 31 + int(epsilon * 100))
            objects = [(f"obj-{i}", rng.randint(1, 64)) for i in range(count)]
            volume = sum(size for _, size in objects)
            delta = max(size for _, size in objects)
            # Build a fragmented initial layout inside (1+eps)V: shuffle the
            # objects and leave the eps*V slack spread as holes between them.
            order = list(range(count))
            rng.shuffle(order)
            slack = int(epsilon * volume)
            allocation = {}
            cursor = 0
            for position, index in enumerate(order):
                name, size = objects[index]
                allocation[name] = cursor
                cursor += size
                if slack > 0 and position % 3 == 0:
                    hole = min(slack, rng.randint(0, max(1, delta // 4)))
                    cursor += hole
                    slack -= hole
            defrag = Defragmenter(epsilon=epsilon, key=lambda name: int(name.split("-")[1]))
            outcome = defrag.defragment(objects, allocation)
            bound = (1 + epsilon) * volume + delta
            result.rows.append(
                [
                    count,
                    epsilon,
                    volume,
                    delta,
                    int(bound),
                    outcome.peak_footprint,
                    round(outcome.moves_per_object, 2),
                    round(outcome.cost_ratio(LinearCost()), 2),
                    round(outcome.cost_ratio(ConstantCost()), 2),
                ]
            )
            result.data.setdefault("outcomes", []).append(
                {
                    "count": count,
                    "epsilon": epsilon,
                    "peak": outcome.peak_footprint,
                    "bound": bound,
                    "sorted": outcome.layout,
                    "min_gap": outcome.min_prefix_suffix_gap,
                }
            )
    result.notes.append(
        "Peak space stays at or below the (1+eps)V + Delta bound while the "
        "objects end up sorted by key; the move cost per object is a small "
        "constant under every cost function."
    )
    return result


# --------------------------------------------------------------------------- E5
def run_e5_checkpoints(quick: bool = True) -> ExperimentResult:
    """Lemma 3.3: a flush completes within O(1/eps) checkpoints."""
    sizes = _trace_sizes(quick)
    result = ExperimentResult(
        experiment_id="E5",
        title="Checkpoints per flush vs epsilon (Lemma 3.3)",
        headers=[
            "epsilon",
            "flushes",
            "mean checkpoints/flush",
            "max checkpoints/request",
            "predicted O(1/eps) shape",
            "blocked checkpoints",
        ],
    )
    for epsilon in EPSILON_SWEEP:
        trace = churn_trace(
            sizes["churn"], UniformSizes(1, 64), target_live=sizes["live"], seed=47
        )
        allocator = CheckpointedReallocator(epsilon=epsilon)
        metrics = run_trace(allocator, trace)
        flushes = max(1, metrics.flushes)
        result.rows.append(
            [
                epsilon,
                metrics.flushes,
                round(metrics.total_checkpoints / flushes, 2),
                metrics.max_request_checkpoints,
                round(predicted_checkpoints_per_flush(epsilon, constant=4.0), 1),
                allocator.blocked_checkpoints,
            ]
        )
    result.notes.append(
        "Checkpoint counts grow roughly like 1/eps as eps shrinks and stay far "
        "below the number of objects involved in a flush."
    )
    return result


# --------------------------------------------------------------------------- E6
def run_e6_transient_footprint(quick: bool = True) -> ExperimentResult:
    """Lemmas 3.1 and 3.5: footprint during a flush stays (1+O(eps))V + 2*Delta."""
    sizes = _trace_sizes(quick)
    epsilon = 0.25
    trace = churn_trace(
        sizes["churn"], BimodalSizes(4, 512, 0.04), target_live=sizes["live"], seed=59
    )
    result = ExperimentResult(
        experiment_id="E6",
        title="Transient footprint during flushes (Lemmas 3.1 / 3.5)",
        headers=[
            "variant",
            "max transient footprint",
            "peak volume",
            "Delta",
            "bound (1+3*eps)Vpeak + 2*Delta",
            "within bound",
        ],
    )
    peak_volume = trace.peak_volume()
    delta = trace.delta
    for label, cls in PAPER_VARIANTS[1:]:
        allocator = cls(epsilon=epsilon)
        metrics = run_trace(allocator, trace)
        # The working space additionally holds the flushed buffers (an eps
        # fraction of the volume) and, for the deamortized variant, the tail
        # buffer and the log — all O(eps V) terms — plus the 2*Delta that
        # CheckpointedReallocator._flush_offsets explains (we do not
        # subtract the trigger size from L / L').
        bound = (1 + 3 * epsilon) * peak_volume + 2 * delta
        result.rows.append(
            [
                label,
                allocator.stats.max_transient_footprint,
                peak_volume,
                delta,
                int(bound),
                allocator.stats.max_transient_footprint <= bound,
            ]
        )
    result.notes.append(
        "Even in the middle of a flush the structure never outgrows "
        "(1+O(eps))V plus an additive O(Delta) of working space."
    )
    return result


# --------------------------------------------------------------------------- E7
def run_e7_worst_case(quick: bool = True) -> ExperimentResult:
    """Lemma 3.6: per-update reallocated volume is O((1/eps) w + Delta)."""
    sizes = _trace_sizes(quick)
    epsilon = 0.25
    trace = churn_trace(
        sizes["churn"], BimodalSizes(8, 512, 0.05), target_live=sizes["live"], seed=61
    )
    result = ExperimentResult(
        experiment_id="E7",
        title="Worst-case per-update reallocation (Lemma 3.6)",
        headers=[
            "variant",
            "max volume moved by one request",
            "worst-case bound for that request",
            "bound respected",
            "amortized moved volume per request",
        ],
    )
    for label, cls in (
        ("amortized (Sec. 2)", CostObliviousReallocator),
        ("deamortized (Sec. 3.3)", DeamortizedReallocator),
    ):
        allocator = cls(epsilon=epsilon)
        watcher = _WorstCaseBoundObserver(epsilon)
        run_trace(allocator, trace, observers=[watcher])
        result.rows.append(
            [
                label,
                watcher.worst_moved,
                int(watcher.worst_bound),
                watcher.violations == 0
                if isinstance(allocator, DeamortizedReallocator)
                else "n/a (amortized)",
                round(allocator.stats.amortized_moved_volume_per_request, 1),
            ]
        )
        result.data[label] = {"worst": watcher.worst_moved, "violations": watcher.violations}
    result.notes.append(
        "The amortized variant occasionally rebuilds everything in one request; "
        "the deamortized variant never exceeds (4/eps')w + Delta moved volume on "
        "any single update while keeping the same amortized cost."
    )
    return result


# --------------------------------------------------------------------------- E8
def run_e8_lower_bound(quick: bool = True) -> ExperimentResult:
    """Lemma 3.7: some update must cost Omega(f(Delta))."""
    deltas = (64, 256) if quick else (64, 256, 1024, 4096)
    costs = (ConstantCost(), LinearCost(), SolidStateCost())
    result = ExperimentResult(
        experiment_id="E8",
        title="Worst-case lower bound instance (Lemma 3.7)",
        headers=[
            "Delta",
            "allocator",
            "max single-request moved volume",
            "max single-request moves",
            "f=const: worst request cost",
            "f=linear: worst request cost",
            "lower bound f(Delta) (const / linear)",
        ],
    )
    for delta in deltas:
        trace = lower_bound_trace(delta)
        for factory, label in (
            (lambda: CostObliviousReallocator(epsilon=0.5), "cost-oblivious(0.5)"),
            (lambda: IdealPackingReallocator(), "ideal-packing"),
        ):
            allocator = factory()
            watcher = _WorstRequestCostObserver(costs)
            run_trace(allocator, trace, observers=[watcher], finish_pending=False)
            # Lemma 3.7's conclusion is Omega(f(Delta)): either the big object
            # moves (cost f(Delta)) or Omega(Delta) unit objects move (cost
            # Omega(Delta f(1)), which is Omega(f(Delta)) by subadditivity).
            lower = {f.name: f(delta) for f in costs}
            result.rows.append(
                [
                    delta,
                    label,
                    watcher.worst_moved,
                    watcher.worst_moves,
                    round(watcher.worst_cost["constant"], 1),
                    round(watcher.worst_cost["linear"], 1),
                    f"{lower['constant']:.0f} / {lower['linear']:.0f}",
                ]
            )
            result.data[(delta, label)] = watcher.worst_cost
    result.notes.append(
        "On the insert-Delta / insert Delta ones / delete-Delta sequence, every "
        "algorithm that keeps a 1.5V footprint pays Omega(f(Delta)) on some "
        "request — the measured worst requests match the lower bound's shape."
    )
    return result


# --------------------------------------------------------------------------- E9
def run_e9_scaling(quick: bool = True) -> ExperimentResult:
    """Engineering: throughput and moved volume as the trace grows."""
    sizes = _trace_sizes(quick)
    result = ExperimentResult(
        experiment_id="E9",
        title="Throughput and total moved volume vs trace length",
        headers=[
            "requests",
            "allocator",
            "requests/second",
            "total moves",
            "moved volume / inserted volume",
            "max footprint/V",
        ],
    )
    for length in sizes["scaling"]:
        trace = churn_trace(length, UniformSizes(1, 64), target_live=sizes["live"], seed=71)
        inserted = trace.total_inserted_volume
        for factory in (
            # Audited (the default): the indexed overlap check is O(log n)
            # per placement, so even the throughput table runs validated.
            lambda: CostObliviousReallocator(epsilon=0.25),
            FirstFitAllocator,
            LoggingCompactingReallocator,
        ):
            allocator = factory()
            metrics = run_trace(allocator, trace)
            result.rows.append(
                [
                    length,
                    allocator.describe(),
                    int(metrics.requests_per_second),
                    metrics.total_moves,
                    round(metrics.total_moved_volume / max(inserted, 1), 2),
                    round(metrics.max_footprint_ratio, 3),
                ]
            )
    result.notes.append(
        "Moved volume stays a constant multiple of inserted volume as traces "
        "grow (amortization at work); absolute throughput is simulator-bound."
    )
    return result


# ------------------------------------------------------------------- figures
def run_f1_motivation(quick: bool = True) -> ExperimentResult:
    """Figure 1: moving blocks into holes shrinks the footprint."""
    result = ExperimentResult(
        experiment_id="F1",
        title="Figure 1: reallocation closes holes left by deletions",
        headers=["allocator", "footprint after deletions", "live volume", "footprint/V"],
    )
    trace = fragmentation_attack_trace(pairs=40, small_size=2, large_size=32)
    for factory in (FirstFitAllocator, lambda: CostObliviousReallocator(epsilon=0.25)):
        allocator = factory()
        metrics = run_trace(allocator, trace)
        result.rows.append(
            [
                allocator.describe(),
                metrics.final_footprint,
                metrics.final_volume,
                round(metrics.final_footprint / max(metrics.final_volume, 1), 2),
            ]
        )
    result.notes.append(
        "The non-moving allocator is stuck with the peak footprint; the "
        "reallocator compacts the survivors (the paper's Figure 1, measured)."
    )
    return result


def run_f2_layout(quick: bool = True) -> ExperimentResult:
    """Figure 2: the size-class region layout rendered from live state."""
    trace = churn_trace(600, ZipfSizes(1.4, 128), target_live=120, seed=5)
    allocator = CostObliviousReallocator(epsilon=0.5, trace=True)
    run_trace(allocator, trace)
    picture = render_layout(allocator)
    result = ExperimentResult(
        experiment_id="F2",
        title="Figure 2: payload and buffer segments per size class",
        headers=["size class", "payload used/capacity", "buffer used/capacity"],
    )
    for index in allocator.region_indices():
        region = allocator.region(index)
        payload_volume = sum(allocator.size_of(n) for n in region.payload)
        result.rows.append(
            [
                index,
                f"{payload_volume}/{region.payload_capacity}",
                f"{region.buffer_used}/{region.buffer_capacity}",
            ]
        )
    result.notes.append(picture)
    return result


def run_f3_flush_walkthrough(quick: bool = True) -> ExperimentResult:
    """Figure 3: the moves performed by a single buffer flush, step by step."""
    allocator = CostObliviousReallocator(epsilon=0.5, trace=True)
    # A small deterministic scenario mirroring the figure: a few objects per
    # class, some deletions, then an insert that triggers a flush.
    sizes = [6, 6, 3, 3, 12, 12, 2, 2]
    for index, size in enumerate(sizes):
        allocator.insert(f"o{index}", size)
    allocator.delete("o1")
    allocator.delete("o6")
    flush_record = None
    step = len(sizes)
    while flush_record is None:
        record = allocator.insert(f"fill{step}", 3)
        step += 1
        if record.flush is not None:
            flush_record = record
    result = ExperimentResult(
        experiment_id="F3",
        title="Figure 3: anatomy of one buffer flush",
        headers=["step", "object", "size", "from", "to", "reason"],
    )
    for move_index, move in enumerate(flush_record.moves):
        result.rows.append(
            [
                move_index,
                move.name,
                move.size,
                str(move.source) if move.source else "(new)",
                str(move.destination),
                move.reason,
            ]
        )
    result.notes.append(render_layout(allocator))
    result.notes.append(
        f"The flush covered size classes {flush_record.flush.classes_flushed} "
        f"with boundary class {flush_record.flush.boundary_class}; buffers are "
        "empty again afterwards (Invariant 2.4)."
    )
    return result


def run_footprint_series(quick: bool = True) -> ExperimentResult:
    """Supplementary figure: footprint vs volume over time for three allocators."""
    sizes = _trace_sizes(quick)
    trace = sawtooth_trace(peak_objects=sizes["live"], rounds=3, size=16)
    result = ExperimentResult(
        experiment_id="F4",
        title="Footprint tracking a sawtooth volume profile",
        headers=["allocator", "max footprint/V", "final footprint"],
    )
    for factory in (
        FirstFitAllocator,
        lambda: CostObliviousReallocator(epsilon=0.25),
        IdealPackingReallocator,
    ):
        allocator = factory()
        metrics = run_trace(allocator, trace, sample_every=max(1, len(trace) // 120))
        result.rows.append(
            [
                allocator.describe(),
                round(metrics.max_footprint_ratio, 3),
                metrics.final_footprint,
            ]
        )
        result.notes.append(
            render_series(
                metrics.footprint_series,
                label=f"footprint over time — {allocator.describe()}",
            )
        )
    return result
