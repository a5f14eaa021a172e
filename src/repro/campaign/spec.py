"""Declarative campaign specifications.

A campaign is a matrix sweep over four axes — workloads, allocators, cost
functions, and device models — in the spirit of WiscSee's run/collect/analyze
pipelines and vegvisir's implementations matrix.  A spec is a plain dict (and
therefore JSON-serialisable)::

    {
        "name": "demo",
        "seed": 7,
        "workloads": [
            {"kind": "churn", "requests": 5000, "target_live": 200,
             "sizes": {"kind": "uniform", "low": 1, "high": 64}},
            {"kind": "database", "requests": 5000}
        ],
        "allocators": [
            {"kind": "cost_oblivious", "epsilon": 0.25},
            "first_fit"
        ],
        "costs": ["linear", "constant"],
        "devices": ["ram", "disk"]
    }

String entries are shorthand for ``{"kind": <string>}``.  ``costs`` defaults
to ``["linear"]`` and ``devices`` to ``["ram"]`` so a minimal spec only names
workloads and allocators.  An optional top-level ``"observers"`` list (e.g.
``["footprint_series"]`` or ``[{"kind": "gap_histogram", "max_points":
64}]``) attaches engine observers to every cell; their exported results are
added to each cell record in ``results.json``.  The registered kinds (see
``repro.engine.OBSERVER_KINDS``) are ``footprint_series`` (bounded
footprint/volume series), ``gap_histogram`` (power-of-two gap-size
occupancy over time), ``per_class_occupancy`` (live count/volume per size
class), ``trace_analytics`` (the full streaming trace characterisation),
and ``trace_recorder`` (stream the cell's requests to a trace file;
``"{cell}"`` in its path is replaced by the cell index so parallel cells
never clobber one another).  Observers instrument a
cell without changing its identity, so they are not part of ``cell_id``.  :meth:`CampaignSpec.expand` turns the spec into
one :class:`CampaignCell` per point of the cross product; each cell carries a
deterministic seed derived from the campaign seed and the workload axis (so
every allocator sees the *same* trace for a given workload, which is what
makes per-cell metrics comparable across allocators).

Axis entries are resolved against the registries at the bottom of this
module *lazily*, inside the executor worker: an unknown kind or a bad
parameter becomes a per-cell error record instead of aborting the sweep.
``CampaignSpec.validate()`` performs the same checks eagerly for callers who
want to fail fast before burning CPU time.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.core import (
    CheckpointedReallocator,
    CostObliviousReallocator,
    DeamortizedReallocator,
)
from repro.core.base import Allocator
from repro.engine import Observer
from repro.engine import build_observer as _build_engine_observer
from repro.costs import (
    AffineCost,
    CappedLinearCost,
    ConstantCost,
    CostFunction,
    LinearCost,
    LogCost,
    MainMemoryCost,
    NetworkedStoreCost,
    PowerCost,
    RotatingDiskCost,
    SolidStateCost,
)
from repro.storage.devices import (
    DeviceModel,
    MainMemoryDevice,
    RotatingDiskDevice,
    SolidStateDevice,
)
from repro.workloads import (
    BimodalSizes,
    DatabaseBlockSizes,
    FixedSizes,
    PowerOfTwoSizes,
    SizeDistribution,
    Trace,
    TraceFileSource,
    UniformSizes,
    ZipfSizes,
    churn_trace,
    database_trace,
    fragmentation_attack_trace,
    grow_then_shrink_trace,
    load_trace,
    sawtooth_trace,
    sliding_window_trace,
    small_flood_trace,
)

AxisEntry = Union[str, Dict[str, Any]]


class SpecError(ValueError):
    """A campaign spec names an unknown kind or carries bad parameters."""


def normalise_entry(entry: AxisEntry) -> Dict[str, Any]:
    """Turn shorthand strings into ``{"kind": ...}`` dicts (copies dicts)."""
    if isinstance(entry, str):
        return {"kind": entry}
    if isinstance(entry, dict):
        if "kind" not in entry:
            raise SpecError(f"axis entry {entry!r} is missing its 'kind'")
        return dict(entry)
    raise SpecError(f"axis entry {entry!r} must be a string or a dict")


def entry_tag(entry: Dict[str, Any]) -> str:
    """A short human-readable id for one axis entry, used in cell ids."""
    parts = [str(entry["kind"])]
    for key in sorted(entry):
        if key == "kind":
            continue
        value = entry[key]
        if isinstance(value, dict):
            value = value.get("kind", value)
        parts.append(f"{key}={value}")
    return ",".join(parts)


@dataclass(frozen=True)
class CampaignCell:
    """One runnable point of the campaign matrix."""

    index: int
    cell_id: str
    workload: Dict[str, Any]
    allocator: Dict[str, Any]
    cost: Dict[str, Any]
    device: Dict[str, Any]
    seed: int
    observers: Tuple[Dict[str, Any], ...] = ()

    def payload(self) -> Dict[str, Any]:
        """A picklable dict handed to the executor worker."""
        return {
            "index": self.index,
            "cell_id": self.cell_id,
            "workload": self.workload,
            "allocator": self.allocator,
            "cost": self.cost,
            "device": self.device,
            "seed": self.seed,
            "observers": list(self.observers),
        }


@dataclass
class CampaignSpec:
    """A parsed campaign specification (see the module docstring)."""

    name: str = "campaign"
    seed: int = 0
    workloads: List[Dict[str, Any]] = field(default_factory=list)
    allocators: List[Dict[str, Any]] = field(default_factory=list)
    costs: List[Dict[str, Any]] = field(default_factory=lambda: [{"kind": "linear"}])
    devices: List[Dict[str, Any]] = field(default_factory=lambda: [{"kind": "ram"}])
    observers: List[Dict[str, Any]] = field(default_factory=list)

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "CampaignSpec":
        if not isinstance(raw, dict):
            raise SpecError(f"campaign spec must be a dict, got {type(raw).__name__}")
        known = {"name", "seed", "workloads", "allocators", "costs", "devices", "observers"}
        unknown = set(raw) - known
        if unknown:
            raise SpecError(f"unknown spec keys {sorted(unknown)}; known: {sorted(known)}")
        spec = CampaignSpec(
            name=str(raw.get("name", "campaign")),
            seed=int(raw.get("seed", 0)),
            workloads=[normalise_entry(e) for e in raw.get("workloads", [])],
            allocators=[normalise_entry(e) for e in raw.get("allocators", [])],
        )
        if "costs" in raw:
            spec.costs = [normalise_entry(e) for e in raw["costs"]]
        if "devices" in raw:
            spec.devices = [normalise_entry(e) for e in raw["devices"]]
        if "observers" in raw:
            spec.observers = [normalise_entry(e) for e in raw["observers"]]
        if not spec.workloads:
            raise SpecError("campaign spec needs at least one workload")
        if not spec.allocators:
            raise SpecError("campaign spec needs at least one allocator")
        return spec

    @staticmethod
    def from_json(path: Union[str, os.PathLike]) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return CampaignSpec.from_dict(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "workloads": self.workloads,
            "allocators": self.allocators,
            "costs": self.costs,
            "devices": self.devices,
            "observers": self.observers,
        }

    def expand(self) -> List[CampaignCell]:
        """The full cross product, one :class:`CampaignCell` per point."""
        cells: List[CampaignCell] = []
        observers = tuple(self.observers)
        for workload in self.workloads:
            seed = cell_seed(self.seed, workload)
            for allocator in self.allocators:
                for cost in self.costs:
                    for device in self.devices:
                        cell_id = "/".join(
                            (
                                entry_tag(workload),
                                entry_tag(allocator),
                                entry_tag(cost),
                                entry_tag(device),
                            )
                        )
                        cells.append(
                            CampaignCell(
                                index=len(cells),
                                cell_id=cell_id,
                                workload=workload,
                                allocator=allocator,
                                cost=cost,
                                device=device,
                                seed=seed,
                                observers=observers,
                            )
                        )
        return cells

    def validate(self) -> None:
        """Eagerly build every axis entry once, raising :class:`SpecError`."""
        for workload in self.workloads:
            build_workload(workload, seed=self.seed, dry_run=True)
        for allocator in self.allocators:
            build_allocator(allocator)
        for cost in self.costs:
            build_cost(cost)
        for device in self.devices:
            build_device(device)
        for observer in self.observers:
            build_observer(observer)


def cell_seed(base_seed: int, workload: Dict[str, Any]) -> int:
    """Deterministic per-workload seed, stable across processes and runs.

    ``zlib.crc32`` (not ``hash``) so the derivation is independent of
    ``PYTHONHASHSEED`` and identical in every worker process.
    """
    digest = zlib.crc32(json.dumps(workload, sort_keys=True).encode("utf-8"))
    return (int(base_seed) * 1_000_003 + digest) % (2**31)


# ---------------------------------------------------------------- registries
def build_sizes(entry: Optional[AxisEntry]) -> SizeDistribution:
    """Build a size distribution from its spec entry (default: uniform)."""
    if entry is None:
        return UniformSizes(1, 64)
    params = normalise_entry(entry)
    kind = params.pop("kind")
    factories = {
        "uniform": UniformSizes,
        "fixed": FixedSizes,
        "pow2": PowerOfTwoSizes,
        "zipf": ZipfSizes,
        "bimodal": BimodalSizes,
        "dbblocks": DatabaseBlockSizes,
    }
    if kind not in factories:
        raise SpecError(f"unknown size distribution {kind!r}; known: {sorted(factories)}")
    try:
        return factories[kind](**params)
    except (TypeError, ValueError) as error:
        raise SpecError(f"bad parameters for sizes {kind!r}: {error}") from error


def build_workload(entry: AxisEntry, seed: int, dry_run: bool = False):
    """Build the trace (or streaming source) for one workload entry.

    Returns a :class:`Trace` for synthetic workloads and plain ``replay``
    entries, or a :class:`~repro.workloads.TraceFileSource` for ``replay``
    entries with ``"stream": true`` — so a cell over a huge on-disk trace
    file never materialises it.  A streaming replay entry may add
    ``"jobs": N`` to shard the replay over N worker processes (block-indexed
    v3 traces with mergeable observers only; see
    :mod:`repro.engine.parallel`).  The result's ``metadata`` is stamped with
    the spec entry and the seed, so provenance survives into recorded trace
    files and artifacts.  ``dry_run`` only checks the entry resolves (kind +
    parameter names) and returns ``None`` without generating any requests.
    """
    trace = _build_workload_trace(entry, seed, dry_run)
    if trace is not None:
        trace.metadata.setdefault("workload", normalise_entry(entry))
        trace.metadata.setdefault("seed", seed)
    return trace


def _build_workload_trace(entry: AxisEntry, seed: int, dry_run: bool):
    params = normalise_entry(entry)
    kind = params.pop("kind")
    sizes = params.pop("sizes", None)
    requests = int(params.pop("requests", 2000))

    if kind == "churn":
        if dry_run:
            build_sizes(sizes)
            return None
        return churn_trace(requests, build_sizes(sizes), seed=seed, **params)
    if kind == "grow_shrink":
        if dry_run:
            build_sizes(sizes)
            return None
        return grow_then_shrink_trace(requests // 2, build_sizes(sizes), seed=seed, **params)
    if kind == "window":
        if dry_run:
            build_sizes(sizes)
            return None
        window = int(params.pop("window", max(1, requests // 8)))
        return sliding_window_trace(requests // 2, window, build_sizes(sizes), seed=seed, **params)
    if kind == "database":
        if dry_run:
            return None
        return database_trace(requests, seed=seed, **params)
    if kind == "sawtooth":
        if dry_run:
            return None
        peak = int(params.pop("peak_objects", max(2, requests // 8)))
        return sawtooth_trace(peak, **params)
    if kind == "fragmentation":
        if dry_run:
            return None
        pairs = int(params.pop("pairs", max(1, requests // 4)))
        return fragmentation_attack_trace(pairs, **params)
    if kind == "small_flood":
        if dry_run:
            return None
        max_exponent = int(params.pop("max_exponent", 8))
        return small_flood_trace(max_exponent, **params)
    if kind == "replay":
        path = params.pop("path", None)
        stream = bool(params.pop("stream", False))
        jobs = int(params.pop("jobs", 1))
        if path is None:
            raise SpecError("replay workloads need a 'path'")
        if jobs > 1 and not stream:
            raise SpecError(
                "replay 'jobs' shards the on-disk file and needs 'stream': true"
            )
        if dry_run:
            return None
        if stream:
            source = TraceFileSource(path, **params)
            # Consumed by the executor: replay this source sharded over
            # `jobs` worker processes (needs a block-indexed v3 file and
            # mergeable observers; anything else falls back to serial).
            source.replay_jobs = jobs
            return source
        return load_trace(path, **params)
    known = (
        "churn",
        "grow_shrink",
        "window",
        "database",
        "sawtooth",
        "fragmentation",
        "small_flood",
        "replay",
    )
    raise SpecError(f"unknown workload {kind!r}; known: {sorted(known)}")


#: Allocator registry: spec kind -> class.  The paper variants accept an
#: ``epsilon`` parameter.
ALLOCATOR_KINDS = {
    "first_fit": FirstFitAllocator,
    "best_fit": BestFitAllocator,
    "next_fit": NextFitAllocator,
    "worst_fit": WorstFitAllocator,
    "buddy": BuddyAllocator,
    "append_only": AppendOnlyAllocator,
    "logging_compacting": LoggingCompactingReallocator,
    "size_class_gap": SizeClassGapReallocator,
    "ideal_packing": IdealPackingReallocator,
    "cost_oblivious": CostObliviousReallocator,
    "checkpointed": CheckpointedReallocator,
    "deamortized": DeamortizedReallocator,
}


def build_allocator(entry: AxisEntry) -> Allocator:
    """Build an allocator from its spec entry.

    Every allocator audits its placements (an O(log n) indexed neighbour
    probe each), so an entry carrying the removed ``audit`` key is refused."""
    params = normalise_entry(entry)
    kind = params.pop("kind")
    if kind not in ALLOCATOR_KINDS:
        raise SpecError(f"unknown allocator {kind!r}; known: {sorted(ALLOCATOR_KINDS)}")
    if "audit" in params:
        raise SpecError(
            f"allocator {kind!r}: the 'audit' parameter was removed; every "
            "allocator is audited (drop the key)"
        )
    try:
        return ALLOCATOR_KINDS[kind](**params)
    except (TypeError, ValueError) as error:
        raise SpecError(f"bad parameters for allocator {kind!r}: {error}") from error


COST_KINDS = {
    "linear": LinearCost,
    "constant": ConstantCost,
    "affine": AffineCost,
    "power": PowerCost,
    "log": LogCost,
    "capped": CappedLinearCost,
    "disk": RotatingDiskCost,
    "ssd": SolidStateCost,
    "ram": MainMemoryCost,
    "network": NetworkedStoreCost,
}


def build_cost(entry: AxisEntry) -> CostFunction:
    """Build a cost function from its spec entry."""
    params = normalise_entry(entry)
    kind = params.pop("kind")
    if kind not in COST_KINDS:
        raise SpecError(f"unknown cost function {kind!r}; known: {sorted(COST_KINDS)}")
    try:
        return COST_KINDS[kind](**params)
    except (TypeError, ValueError) as error:
        raise SpecError(f"bad parameters for cost {kind!r}: {error}") from error


def build_observer(entry: AxisEntry) -> Observer:
    """Build an engine observer from its spec entry (see ``OBSERVER_KINDS``
    in :mod:`repro.engine.observers` for the registered kinds)."""
    params = normalise_entry(entry)
    try:
        return _build_engine_observer(params)
    except ValueError as error:
        raise SpecError(str(error)) from error


DEVICE_KINDS = {
    "ram": MainMemoryDevice,
    "disk": RotatingDiskDevice,
    "ssd": SolidStateDevice,
}


def build_device(entry: AxisEntry) -> Optional[DeviceModel]:
    """Build a device model; ``{"kind": "none"}`` disables device timing."""
    params = normalise_entry(entry)
    kind = params.pop("kind")
    if kind == "none":
        return None
    if kind not in DEVICE_KINDS:
        known = sorted(DEVICE_KINDS) + ["none"]
        raise SpecError(f"unknown device {kind!r}; known: {known}")
    try:
        return DEVICE_KINDS[kind](**params)
    except (TypeError, ValueError) as error:
        raise SpecError(f"bad parameters for device {kind!r}: {error}") from error
