"""Aggregate accounting shared by every allocator.

The paper's competitive measure compares, for a cost function ``f``,

* the **allocation cost** ``sum f(w)`` over every object ever inserted
  (including objects later deleted), against
* the **reallocation cost** ``sum f(w)`` over every move of existing data.

Because the algorithms are cost oblivious, one execution can be charged under
many cost functions after the fact; the stats therefore store *size
histograms* of allocations and moves rather than pre-computed costs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

from repro.costs.base import CostFunction


@dataclass
class AllocatorStats:
    """Counters maintained by :class:`repro.core.base.Allocator`."""

    requests: int = 0
    inserts: int = 0
    deletes: int = 0
    flushes: int = 0
    checkpoints: int = 0
    #: Histogram of sizes of every object ever inserted.
    allocated_sizes: Counter = field(default_factory=Counter)
    #: Histogram of sizes of every reallocation (move of existing data).
    moved_sizes: Counter = field(default_factory=Counter)
    total_allocated_volume: int = 0
    total_moved_volume: int = 0
    total_moves: int = 0
    #: Largest footprint observed immediately after any request.
    max_footprint: int = 0
    #: Largest footprint/volume ratio observed after any request with V > 0.
    max_footprint_ratio: float = 0.0
    #: Sum of footprint/volume ratios over the requests counted in
    #: :attr:`footprint_ratio_samples` (for the mean ratio).
    footprint_ratio_sum: float = 0.0
    #: Number of requests that ended with V > 0.
    footprint_ratio_samples: int = 0
    #: Largest footprint observed at any instant, including mid-flush.
    max_transient_footprint: int = 0
    #: Largest volume moved while serving a single request.
    max_request_moved_volume: int = 0
    #: Largest number of checkpoints used by a single request.
    max_request_checkpoints: int = 0
    #: Per-request moved volume, recorded only when tracing is enabled.
    request_moved_volumes: Optional[List[int]] = None

    # ------------------------------------------------------------ recording
    def record_allocation(self, size: int) -> None:
        self.allocated_sizes[size] += 1
        self.total_allocated_volume += size

    def record_move(self, size: int) -> None:
        self.moved_sizes[size] += 1
        self.total_moved_volume += size
        self.total_moves += 1

    def record_moves(self, sizes: List[int], volume: int) -> None:
        """Record a run of moves at once; ``volume`` is ``sum(sizes)``."""
        self.moved_sizes.update(sizes)
        self.total_moved_volume += volume
        self.total_moves += len(sizes)

    def record_footprint(self, footprint: int, volume: int) -> None:
        if footprint > self.max_footprint:
            self.max_footprint = footprint
        if footprint > self.max_transient_footprint:
            self.max_transient_footprint = footprint
        if volume > 0:
            ratio = footprint / volume
            if ratio > self.max_footprint_ratio:
                self.max_footprint_ratio = ratio
            self.footprint_ratio_sum += ratio
            self.footprint_ratio_samples += 1

    def record_transient_footprint(self, footprint: int) -> None:
        self.max_transient_footprint = max(self.max_transient_footprint, footprint)

    # ------------------------------------------------------------- charging
    def allocation_cost(self, cost_function: CostFunction) -> float:
        """Total cost of every initial allocation under ``cost_function``."""
        return sum(
            cost_function(size) * count
            for size, count in self.allocated_sizes.items()
        )

    def reallocation_cost(self, cost_function: CostFunction) -> float:
        """Total cost of every reallocation under ``cost_function``."""
        return sum(
            cost_function(size) * count
            for size, count in self.moved_sizes.items()
        )

    def cost_ratio(self, cost_function: CostFunction) -> float:
        """Reallocation cost divided by allocation cost (the paper's ``b``).

        Returns 0.0 when nothing has been allocated yet.
        """
        allocation = self.allocation_cost(cost_function)
        if allocation == 0:
            return 0.0
        return self.reallocation_cost(cost_function) / allocation

    @property
    def mean_footprint_ratio(self) -> float:
        """Average footprint/volume ratio over the requests with V > 0."""
        if self.footprint_ratio_samples == 0:
            return 0.0
        return self.footprint_ratio_sum / self.footprint_ratio_samples

    @property
    def amortized_moves_per_insert(self) -> float:
        """Average number of reallocations charged per insert."""
        if self.inserts == 0:
            return 0.0
        return self.total_moves / self.inserts

    @property
    def amortized_moved_volume_per_request(self) -> float:
        """Average volume moved per request."""
        if self.requests == 0:
            return 0.0
        return self.total_moved_volume / self.requests
