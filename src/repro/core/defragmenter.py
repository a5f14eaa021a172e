"""The Theorem 2.7 cost-oblivious defragmenter.

Given a set of objects with an existing allocation occupying at most
``(1 + eps) V`` space and an arbitrary comparison key, the defragmenter sorts
the objects in place subject to:

* the total space usage never exceeds ``(1 + eps) V + Delta`` (up to the
  transient overflow segment of the inner reallocator, which is reported
  separately), and
* the total move cost is ``O((1/eps) log(1/eps))`` times the cost of
  allocating all of the objects — under every monotone subadditive cost
  function, without knowing which one applies.

It works exactly as in the paper's proof: first **crunch** every object into
the rightmost ``V`` space (leaving a ``floor(eps V)`` prefix empty); then,
scanning that suffix left to right, pull each object out (staging it in the
extra ``Delta`` working space at the very end) and insert it into a
cost-oblivious reallocator that lives in the prefix; finally extract the
objects from the reallocator in reverse sorted order, placing each directly
in front of its successor in the suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.events import MoveEvent
from repro.core.reallocator import CostObliviousReallocator
from repro.core.stats import AllocatorStats
from repro.storage.address_space import AddressSpace
from repro.storage.extent import Extent


@dataclass
class DefragmentationResult:
    """Outcome of one defragmentation run."""

    #: Final name -> start address, sorted by key and packed into the suffix.
    layout: Dict[Hashable, int]
    #: Total volume of the objects.
    volume: int
    #: Largest object size.
    delta: int
    #: Initial footprint (largest occupied address before defragmentation).
    initial_footprint: int
    #: Largest address used by the suffix, staging area, or final layout.
    peak_footprint: int
    #: Largest address transiently used by the inner reallocator's prefix.
    peak_prefix_footprint: int
    #: Smallest observed gap between the prefix's reserved space and the
    #: first remaining suffix object; nonnegative means they never overlapped.
    min_prefix_suffix_gap: int
    #: Every physical move performed, in order.
    moves: List[MoveEvent] = field(default_factory=list)
    #: Aggregate statistics (allocation vs reallocation histograms).
    stats: AllocatorStats = field(default_factory=AllocatorStats)

    @property
    def total_moves(self) -> int:
        return len(self.moves)

    @property
    def moves_per_object(self) -> float:
        objects = len(self.layout)
        return self.total_moves / objects if objects else 0.0

    def cost_ratio(self, cost_function) -> float:
        """Move cost divided by the cost of allocating every object once."""
        return self.stats.cost_ratio(cost_function)


class Defragmenter:
    """Cost-oblivious defragmentation / sorting (Theorem 2.7).

    Parameters
    ----------
    epsilon:
        Space slack: the run targets ``(1 + epsilon) V + Delta`` addresses.
        Must satisfy ``0 < epsilon <= 1/2``.
    key:
        Comparison key mapping an object name to a sortable value; defaults
        to sorting by the name itself.
    """

    def __init__(
        self,
        epsilon: float = 0.5,
        key: Optional[Callable[[Hashable], object]] = None,
    ) -> None:
        if not 0 < epsilon <= 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")
        self.epsilon = epsilon
        self.key = key if key is not None else (lambda name: name)

    def defragment(
        self,
        objects: Sequence[Tuple[Hashable, int]],
        allocation: Dict[Hashable, int],
    ) -> DefragmentationResult:
        """Sort ``objects`` (pairs of ``(name, size)``) currently placed at
        ``allocation`` (name -> start address).

        The input allocation must be overlap-free and fit within
        ``(1 + epsilon) V`` space; both conditions are validated.
        """
        sizes = dict(objects)
        if len(sizes) != len(objects):
            raise ValueError("duplicate object names in the input")
        if not sizes:
            return DefragmentationResult(
                layout={},
                volume=0,
                delta=0,
                initial_footprint=0,
                peak_footprint=0,
                peak_prefix_footprint=0,
                min_prefix_suffix_gap=0,
            )
        volume = sum(sizes.values())
        delta = max(sizes.values())

        space = AddressSpace()
        for name, size in sizes.items():
            if name not in allocation:
                raise ValueError(f"object {name!r} has no starting address")
            space.place(name, allocation[name], size)
        initial_footprint = space.footprint()
        allowed = (1.0 + self.epsilon) * volume
        if initial_footprint > allowed + 1e-9:
            raise ValueError(
                f"initial allocation occupies {initial_footprint} which exceeds "
                f"(1+eps)V = {allowed:.1f}"
            )

        stats = AllocatorStats()
        for size in sizes.values():
            stats.record_allocation(size)
        moves: List[MoveEvent] = []
        peak = initial_footprint

        def shift(name: Hashable, target: int, reason: str) -> None:
            nonlocal peak
            size = sizes[name]
            old = space.start_of(name)
            if old == target:
                return
            space.move(name, target)
            stats.record_move(size)
            moves.append(MoveEvent(name, size, Extent(old, size), Extent(target, size), reason))
            peak = max(peak, target + size)

        suffix_end = max(int(self.epsilon * volume) + volume, initial_footprint)
        staging_start = suffix_end

        # Phase 1: crunch every object into the rightmost V space, processing
        # from the rightmost object down so moves never collide.
        cursor = suffix_end
        ordered = sorted(sizes, key=space.start_of, reverse=True)
        for name in ordered:
            cursor -= sizes[name]
            shift(name, cursor, "defrag:crunch")
        suffix_names: List[Hashable] = list(reversed(ordered))  # ascending address

        # Phase 2: pull objects out of the suffix left to right, stage them in
        # the Delta working space at the very end, and insert them into a
        # cost-oblivious reallocator occupying the prefix.
        realloc = CostObliviousReallocator(epsilon=self.epsilon)
        min_gap = suffix_end
        for position, name in enumerate(suffix_names):
            size = sizes[name]
            shift(name, staging_start, "defrag:stage")
            peak = max(peak, staging_start + size)
            staging_extent = Extent(space.remove(name), size)
            record = realloc.insert(name, size)
            for event in record.moves:
                if event.source is None:
                    # The object's arrival in the prefix is a physical move
                    # out of the staging area.
                    stats.record_move(event.size)
                    moves.append(
                        MoveEvent(
                            event.name,
                            event.size,
                            staging_extent,
                            event.destination,
                            "defrag:into-prefix",
                        )
                    )
                else:
                    stats.record_move(event.size)
                    moves.append(event)
            # The theorem's key claim: the prefix never reaches the remaining
            # suffix objects.
            if position + 1 < len(suffix_names):
                next_start = space.start_of(suffix_names[position + 1])
                min_gap = min(min_gap, next_start - realloc.reserved_space)

        # Phase 3: delete objects from the reallocator in reverse sorted order
        # and place each just before its successor in the suffix.
        cursor = suffix_end
        final_layout: Dict[Hashable, int] = {}
        for name in sorted(sizes, key=self.key, reverse=True):
            size = sizes[name]
            source = Extent(realloc.address_of(name), size)
            record = realloc.delete(name)
            for event in record.moves:
                if event.source is not None:
                    stats.record_move(event.size)
                    moves.append(event)
            cursor -= size
            space.place(name, cursor, size)
            stats.record_move(size)
            moves.append(MoveEvent(name, size, source, Extent(cursor, size), "defrag:final"))
            final_layout[name] = cursor
            peak = max(peak, space.footprint())
            min_gap = min(min_gap, cursor - realloc.reserved_space)

        return DefragmentationResult(
            layout=final_layout,
            volume=volume,
            delta=delta,
            initial_footprint=initial_footprint,
            peak_footprint=peak,
            peak_prefix_footprint=realloc.stats.max_transient_footprint,
            min_prefix_suffix_gap=min_gap,
            moves=moves,
            stats=stats,
        )
