"""The Section 2 cost-oblivious storage reallocator (Theorem 2.1).

The algorithm keeps objects partially sorted by size so that the insertion or
deletion of small objects can only trigger the movement of *larger* objects,
which per unit of volume are at most as expensive under any subadditive cost
function.  Concretely:

* Objects are grouped into power-of-two **size classes**; the address space
  is divided into one **region** per (nonempty) size class, ordered by class.
* A region comprises a **payload segment** (only objects of that class,
  packed at the last flush) followed by a **buffer segment** (objects of that
  class *or smaller*, appended as they arrive), sized to an ``eps'`` fraction
  of the payload.
* Inserts go to the end of the earliest buffer of an equal-or-larger class
  with room; deletes leave a hole in the payload and append a same-size
  *delete record* to such a buffer.
* When no buffer has room, a **buffer flush** rewrites a suffix of the
  regions: it recomputes each class's volume, re-packs payload segments, and
  empties the buffers (Invariant 2.4), moving each object at most twice.

The class below implements exactly that, mirroring every placement into an
auditing :class:`~repro.storage.address_space.AddressSpace` and recording
every physical move so executions can be charged under any cost function
after the fact.  All three of the paper's reallocators flush through one
pipeline: :meth:`CostObliviousReallocator._plan_flush` computes the new
layout, :meth:`~CostObliviousReallocator._flush_items` lists the moves as
``("move", name, size, target, reason)`` items, and ``_run_items`` makes
them.  The checkpointed (Section 3.2) subclass overrides ``_flush_items``
with its phased, checkpointed plan and ``_run_items`` with the Section 3
move rules; the deamortized (Section 3.3) subclass runs the same items a
budgeted slice per update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.base import UNBOUNDED, Allocator
from repro.core.events import FlushRecord
from repro.core.size_classes import size_class_of


@dataclass
class BufferEntry:
    """One slot of a buffer segment: a live object or a delete record."""

    name: Optional[Hashable]
    size: int
    size_class: int

    @property
    def is_delete_record(self) -> bool:
        return self.name is None


@dataclass
class Region:
    """One size class's payload segment plus buffer segment."""

    index: int
    start: int
    payload_capacity: int
    buffer_capacity: int
    #: Live payload objects (name -> None) in address order.
    payload: Dict[Hashable, None] = field(default_factory=dict)
    buffer: List[BufferEntry] = field(default_factory=list)
    buffer_used: int = 0

    @property
    def end(self) -> int:
        return self.start + self.payload_capacity + self.buffer_capacity

    @property
    def buffer_start(self) -> int:
        return self.start + self.payload_capacity

    @property
    def buffer_free(self) -> int:
        return self.buffer_capacity - self.buffer_used


@dataclass
class FlushPlan:
    """Everything a flush needs: the state gathered and the target layout."""

    boundary: int
    flushed_indices: List[int]
    #: (name, size, class, start) for live payload objects of the flushed
    #: regions, in address order (``start`` is read once, before any move).
    payload_objects: List[Tuple[Hashable, int, int, int]]
    #: (name, size, class) for live buffered objects of the flushed regions.
    buffered_objects: List[Tuple[Hashable, int, int]]
    #: Per-class volume after the triggering request (the paper's ``V_t(i)``).
    volumes: Dict[int, int]
    #: Address where the rebuilt suffix starts (end of untouched regions).
    base: int
    #: End of the structure before the flush.
    old_end: int
    #: End of the structure after the flush.
    new_end: int
    #: Final start address of every object involved in the flush.
    final_address: Dict[Hashable, int] = field(default_factory=dict)
    #: Freshly built regions keyed by class, ready to be installed.
    new_regions: Dict[int, Region] = field(default_factory=dict)


class CostObliviousReallocator(Allocator):
    """Cost-oblivious reallocator, ``(1+eps, O((1/eps) log(1/eps)))``-competitive.

    Parameters
    ----------
    epsilon:
        Footprint slack, ``0 < epsilon <= 1/2``.  The reserved space after
        every request is at most ``(1 + epsilon) * V`` where ``V`` is the
        active volume.  Internally the algorithm uses ``eps' = epsilon / 3``
        so that the Lemma 2.5 bound ``(1 + eps') / (1 - eps')`` stays within
        the advertised ``1 + epsilon``.
    trace:
        Keep per-request :class:`~repro.core.events.RequestRecord` history.
    audit:
        Check every placement for overlaps (disable for huge traces).
    """

    name = "cost-oblivious"
    supports_reallocation = True

    def __init__(
        self, epsilon: float = 0.5, trace: bool = False, audit: bool = True
    ) -> None:
        if not 0 < epsilon <= 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")
        super().__init__(trace=trace, audit=audit)
        self.epsilon = epsilon
        self.epsilon_prime = epsilon / 3.0
        self._regions: Dict[int, Region] = {}
        #: Where each live object sits: ("payload", class) or ("buffer", class, slot).
        self._placement: Dict[Hashable, Tuple] = {}

    # ------------------------------------------------------------ geometry
    @property
    def reserved_space(self) -> int:
        """Total space reserved by payload and buffer segments (Lemma 2.5)."""
        return sum(
            region.payload_capacity + region.buffer_capacity
            for region in self._regions.values()
        )

    @property
    def footprint_bound(self) -> float:
        """The reserved-space bound guaranteed after every request."""
        return (1.0 + self.epsilon) * max(self.volume, 0)

    def bounded_space(self) -> int:
        """The space measured against the footprint guarantee.

        For the amortized and checkpointed variants this is the reserved
        region space; the deamortized variant adds its tail buffer.
        """
        return self.reserved_space

    def space_bound(self, volume: int) -> float:
        """Guaranteed upper bound on :meth:`bounded_space` for ``volume``.

        Lemma 2.5: reserved space is at most ``(1 + eps') sum V_f(i)`` while
        the live volume is at least ``(1 - eps') sum V_f(i)``, so the ratio is
        ``(1 + eps') / (1 - eps')`` — which the choice ``eps' = eps / 3``
        keeps below the advertised ``1 + eps``.
        """
        eps = self.epsilon_prime
        return (1.0 + eps) / (1.0 - eps) * volume

    def region_indices(self) -> List[int]:
        """Active size-class indices in ascending order."""
        return sorted(self._regions)

    def region(self, index: int) -> Region:
        """The region for size class ``index`` (KeyError if absent)."""
        return self._regions[index]

    def buffered_volume(self) -> int:
        """Total space currently consumed inside buffer segments."""
        return sum(region.buffer_used for region in self._regions.values())

    def _buffer_fraction(self, volume: int) -> int:
        return int(self.epsilon_prime * volume)

    def _structure_end(self) -> int:
        if not self._regions:
            return 0
        return max(region.end for region in self._regions.values())

    # ------------------------------------------------------------- requests
    def _do_insert(self, name: Hashable, size: int) -> None:
        cls = size_class_of(size)
        indices = self.region_indices()
        if not indices or cls > indices[-1]:
            self._create_region_for(name, size, cls)
            return
        if self._try_buffer_insert(name, size, cls):
            return
        # No buffer can hold the object: flush a suffix of the regions (the
        # new object is counted in the recomputed class volumes and placed at
        # the end of its payload segment once the flush completes).
        self._flush(cls, pending_insert=(name, size, cls))

    def _do_delete(self, name: Hashable, size: int) -> None:
        if not self._release(name):
            return
        cls = size_class_of(size)
        if not self._try_buffer_record(size, cls):
            # The delete record does not fit anywhere: flush.  The deleted
            # object is already excluded from the recomputed volumes, so no
            # record is needed afterwards.
            self._flush(cls)

    def _release(self, name: Hashable) -> bool:
        """Free the placed object ``name``; True if it left a payload segment.

        A buffered object's slot becomes a delete record, so the space stays
        consumed until the next flush (keeps the Lemma 2.5 accounting
        intact).  A payload object leaves a hole, and the caller must record
        the delete in a buffer.
        """
        placement = self._placement.pop(name)
        if placement[0] == "payload":
            del self._regions[placement[1]].payload[name]
        else:
            slots = self._buffer_slots(placement)
            slot = placement[-1]
            entry = slots[slot]
            slots[slot] = BufferEntry(None, entry.size, entry.size_class)
        self._free_object(name)
        return placement[0] == "payload"

    def _buffer_slots(self, placement: Tuple) -> List[BufferEntry]:
        """The slots a buffered ``placement`` indexes into."""
        return self._regions[placement[1]].buffer

    # ----------------------------------------------------------- placement
    def _create_region_for(self, name: Hashable, size: int, cls: int) -> None:
        """New largest size class: append a fresh region holding the object."""
        start = self._structure_end()
        region = Region(
            index=cls,
            start=start,
            payload_capacity=size,
            buffer_capacity=self._buffer_fraction(size),
        )
        region.payload[name] = None
        self._regions[cls] = region
        self._placement[name] = ("payload", cls)
        self._place_object(name, size, start, reason="insert:new-class")

    def _buffer_with_room(self, size: int, cls: int) -> Optional[Region]:
        """The earliest region of class >= ``cls`` whose buffer has room."""
        for index in self.region_indices():
            if index >= cls:
                region = self._regions[index]
                if region.buffer_free >= size:
                    return region
        return None

    def _append_to_buffer(
        self, region: Region, name: Optional[Hashable], size: int, cls: int
    ) -> None:
        """Take ``region``'s next buffer slot for ``name`` (None: a delete record)."""
        if name is not None:
            self._placement[name] = ("buffer", region.index, len(region.buffer))
        region.buffer.append(BufferEntry(name, size, cls))
        region.buffer_used += size

    def _place_in_buffer(
        self, region: Region, name: Hashable, size: int, cls: int, reason: str
    ) -> None:
        """Place the new object in ``region``'s next buffer slot; the slot is
        written only once the placement succeeded."""
        self._place_object(name, size, region.buffer_start + region.buffer_used, reason)
        self._append_to_buffer(region, name, size, cls)

    def _try_buffer_insert(self, name: Hashable, size: int, cls: int) -> bool:
        """Append the object to the earliest buffer of class >= cls with room."""
        region = self._buffer_with_room(size, cls)
        if region is None:
            return False
        self._place_in_buffer(region, name, size, cls, "insert:buffer")
        return True

    def _try_buffer_record(self, size: int, cls: int) -> bool:
        """Append a delete record to the earliest buffer of class >= cls with room."""
        region = self._buffer_with_room(size, cls)
        if region is None:
            return False
        self._append_to_buffer(region, None, size, cls)
        return True

    # -------------------------------------------------------- flush planning
    def _boundary_class(self, trigger_class: int) -> int:
        """Largest ``b`` such that every buffered object in classes >= b and
        the triggering object belong to size classes >= b."""
        indices = self.region_indices()
        if not indices:
            return trigger_class
        low = trigger_class
        for j in range(indices[-1], 0, -1):
            region = self._regions.get(j)
            if region is not None:
                for entry in region.buffer:
                    if entry.size_class < low:
                        low = entry.size_class
            if low >= j:
                return j
        return 1

    def _plan_flush(
        self,
        trigger_class: int,
        pending_insert: Optional[Tuple[Hashable, int, int]] = None,
    ) -> FlushPlan:
        """Compute which regions flush and where every object ends up."""
        boundary = self._boundary_class(trigger_class)
        flushed_indices = [i for i in self.region_indices() if i >= boundary]

        extent_of = self.space.extent_of
        volumes: Dict[int, int] = {}
        payload_objects: List[Tuple[Hashable, int, int, int]] = []
        buffered_objects: List[Tuple[Hashable, int, int]] = []
        for index in flushed_indices:
            region = self._regions[index]
            for obj_name in region.payload:
                obj_size = self._sizes[obj_name]
                volumes[index] = volumes.get(index, 0) + obj_size
                payload_objects.append((obj_name, obj_size, index, extent_of(obj_name).start))
            for entry in region.buffer:
                if entry.name is not None:
                    volumes[entry.size_class] = (
                        volumes.get(entry.size_class, 0) + entry.size
                    )
                    buffered_objects.append((entry.name, entry.size, entry.size_class))
        if pending_insert is not None:
            _, pending_size, pending_class = pending_insert
            volumes[pending_class] = volumes.get(pending_class, 0) + pending_size

        base = sum(
            self._regions[i].payload_capacity + self._regions[i].buffer_capacity
            for i in self.region_indices()
            if i < boundary
        )
        old_end = self._structure_end()

        new_classes = sorted(cls for cls, vol in volumes.items() if vol > 0)
        # Final destination of every object, grouped per class: surviving
        # payload objects first (in their current address order), then
        # buffered objects, then the flush-triggering insert.
        payload_objects.sort(key=itemgetter(3))
        per_class: Dict[int, List[Tuple[Hashable, int]]] = {cls: [] for cls in new_classes}
        for obj_name, obj_size, cls, _start in payload_objects:
            per_class[cls].append((obj_name, obj_size))
        for obj_name, obj_size, cls in buffered_objects:
            per_class[cls].append((obj_name, obj_size))
        if pending_insert is not None:
            pending_name, pending_size, pending_class = pending_insert
            per_class[pending_class].append((pending_name, pending_size))

        final_address: Dict[Hashable, int] = {}
        new_regions: Dict[int, Region] = {}
        cursor = base
        for cls in new_classes:
            region = Region(
                index=cls,
                start=cursor,
                payload_capacity=volumes[cls],
                buffer_capacity=self._buffer_fraction(volumes[cls]),
            )
            offset = cursor
            for obj_name, obj_size in per_class[cls]:
                final_address[obj_name] = offset
                region.payload[obj_name] = None
                offset += obj_size
            cursor = region.end
            new_regions[cls] = region

        return FlushPlan(
            boundary=boundary,
            flushed_indices=flushed_indices,
            payload_objects=payload_objects,
            buffered_objects=buffered_objects,
            volumes=volumes,
            base=base,
            old_end=old_end,
            new_end=cursor,
            final_address=final_address,
            new_regions=new_regions,
        )

    def _install_plan(
        self, plan: FlushPlan, moved_volume: int, move_count: int, checkpoints: int
    ) -> None:
        """Replace the flushed regions with the plan's new regions and record
        the finished flush."""
        for index in plan.flushed_indices:
            del self._regions[index]
        for cls, region in plan.new_regions.items():
            self._regions[cls] = region
            for obj_name in region.payload:
                self._placement[obj_name] = ("payload", cls)
        self._note_flush(
            FlushRecord(
                boundary_class=plan.boundary,
                classes_flushed=tuple(plan.flushed_indices),
                moved_volume=moved_volume,
                move_count=move_count,
                checkpoints=checkpoints,
            )
        )

    # ------------------------------------------------------- flush execution
    def _flush(
        self,
        trigger_class: int,
        pending_insert: Optional[Tuple[Hashable, int, int]] = None,
        trigger_size: int = 0,
    ) -> None:
        """Run one whole buffer flush: plan it, make its moves, place the
        pending insert (Section 2 places the triggering insert after the
        flush, Section 3.2 before, passing its size as ``trigger_size``) and
        install the rebuilt regions."""
        plan = self._plan_flush(trigger_class, pending_insert)
        checkpoints_before = self._current_checkpoints
        items, overflow_end = self._flush_items(plan, trigger_size)
        self._note_transient_footprint(overflow_end)
        _index, moved_volume, move_count = self._run_items(items, 0, UNBOUNDED)
        if pending_insert is not None:
            name, size, _cls = pending_insert
            self._place_object(name, size, plan.final_address[name], reason="insert:flush")
        checkpoints = self._current_checkpoints - checkpoints_before
        self._install_plan(plan, moved_volume, move_count, checkpoints)

    def _flush_items(self, plan: FlushPlan, trigger_size: int) -> Tuple[List[Tuple], int]:
        """Plan the four-step flush move sequence of Section 2.

        Returns ``(items, overflow_end)``, each item a ``("move", name,
        size, target, reason)`` for :meth:`_run_items`, which skips a move
        whose object already sits at its target.  Each buffered object
        moves at most twice (to the overflow segment and back), each payload
        object at most twice (pack left, then unpack to its final slot) —
        matching the "at most two moves per object" bound the paper uses.
        """
        items: List[Tuple] = []
        final_address = plan.final_address

        # Step 1: buffered objects out of the way, into the overflow segment.
        overflow_cursor = max(plan.old_end, plan.new_end)
        for obj_name, obj_size, _cls in plan.buffered_objects:
            items.append(("move", obj_name, obj_size, overflow_cursor, "flush:to-overflow"))
            overflow_cursor += obj_size

        # Step 2: pack surviving payload objects as far left as possible, in
        # their address order.
        pack_cursor = plan.base
        for obj_name, obj_size, _cls, _start in plan.payload_objects:
            items.append(("move", obj_name, obj_size, pack_cursor, "flush:pack"))
            pack_cursor += obj_size

        # Step 3: unpack payload objects to their final destinations, from the
        # largest destination down so moves never collide.
        for obj_name, obj_size, _cls, _start in sorted(
            plan.payload_objects, key=lambda item: final_address[item[0]], reverse=True
        ):
            items.append(("move", obj_name, obj_size, final_address[obj_name], "flush:unpack"))

        # Step 4: buffered objects from the overflow segment to the end of
        # their class's payload segment.
        for obj_name, obj_size, _cls in plan.buffered_objects:
            items.append(("move", obj_name, obj_size, final_address[obj_name], "flush:place"))

        return items, overflow_cursor

    def describe(self) -> str:
        return f"{self.name}(eps={self.epsilon:g})"
