"""The Section 3.3 deamortized reallocator.

The amortized reallocators may, on a single unlucky update, rebuild the whole
structure.  This variant bounds the *worst-case* reallocation work of a
size-``w`` update by ``O((1/eps) * w + Delta)`` volume (Lemma 3.6) while
keeping the amortized cost and footprint guarantees, by

* adding a **tail buffer** of capacity ``floor(eps' * V_f)`` after all size
  class regions (``V_f`` = volume at the start of the previous flush); a
  flush is only triggered once the tail buffer is full, which gives an
  in-progress flush time to finish (Lemma 3.4),
* turning the flush into an explicit **work queue** (the phased move items of
  the checkpointed variant) that is advanced by ``(4/eps') * w`` volume on
  every subsequent update of size ``w``,
* recording updates that arrive during a flush in a **log** placed after the
  flush's temporary working space; once the move queue is exhausted the log
  is drained (each entry re-inserted or re-deleted), and the flush ends when
  the drain catches up with the end of the log.

Deletes that arrive during a flush are *deferred*: the object stays active
(and may still be moved by the already-planned flush) until its log entry is
drained — exactly the paper's rule that an object being deleted remains
active until the reallocator completes the request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.checkpointed import CheckpointedReallocator
from repro.core.reallocator import BufferEntry, FlushPlan, Region
from repro.core.size_classes import size_class_of
from repro.storage.translation import BlockTranslationLayer


@dataclass
class _LogEntry:
    op: str  # "insert" or "delete"
    name: Hashable
    size: int
    size_class: int


@dataclass
class _PendingFlush:
    plan: FlushPlan
    items: List[Tuple]
    volume_at_start: int
    new_tail_capacity: int
    log_cursor: int
    next_item: int = 0
    installed: bool = False
    moved_volume: int = 0
    move_count: int = 0
    #: Checkpoints taken by this flush's item runs (phase and blocked ones).
    checkpoints: int = 0
    log: Deque[_LogEntry] = field(default_factory=deque)


class DeamortizedReallocator(CheckpointedReallocator):
    """Cost-oblivious reallocator with bounded worst-case update cost.

    Parameters
    ----------
    epsilon:
        Footprint slack, as in the amortized variants.
    work_factor:
        Volume of flush work performed per unit of update volume, the paper's
        ``4 / eps'``.  Exposed for the ablation benchmark; the default follows
        the paper.
    audit:
        Ignored: every allocator's address space is audited.
    """

    name = "deamortized"

    def __init__(
        self,
        epsilon: float = 0.5,
        translation: Optional[BlockTranslationLayer] = None,
        trace: bool = False,
        audit: bool = True,
        track_recovery: bool = False,
        work_factor: Optional[float] = None,
    ) -> None:
        # `audit` stays only for perfbench's calls; both values build the same audited space.
        super().__init__(
            epsilon=epsilon,
            translation=translation,
            trace=trace,
            track_recovery=track_recovery,
        )
        # The deamortized structure parks deleted-but-unprocessed volume in
        # the class buffers, the tail buffer *and* the log, so it needs a
        # smaller internal eps' than the amortized variants to keep the
        # advertised (1 + epsilon) footprint: see space_bound().
        self.epsilon_prime = epsilon / 8.0
        self.work_factor = (
            work_factor if work_factor is not None else 4.0 / self.epsilon_prime
        )
        self._pending: Optional[_PendingFlush] = None
        self._tail_entries: List[BufferEntry] = []
        self._tail_used = 0
        self._tail_capacity = 0
        self._tail_start = 0
        #: Sizes of objects whose delete has been logged but not yet drained.
        self._deferred_deletes: Dict[Hashable, int] = {}

    # ----------------------------------------------------------- inspection
    @property
    def flush_in_progress(self) -> bool:
        """True while a flush's work queue or log still has entries."""
        return self._pending is not None

    @property
    def tail_used(self) -> int:
        return self._tail_used

    def log_volume(self) -> int:
        """Total volume of updates currently recorded in the log."""
        if self._pending is None:
            return 0
        return sum(entry.size for entry in self._pending.log)

    def bounded_space(self) -> int:
        """Reserved region space plus the tail buffer (Lemma 3.5)."""
        return self.reserved_space + self._tail_capacity

    def space_bound(self, volume: int) -> float:
        """Footprint guarantee of the deamortized structure.

        Compared with Lemma 2.5, deleted-but-unprocessed volume can hide in
        the class buffers *and* the tail buffer, and the structure reserves
        an extra ``eps' V_f`` for the tail, giving a
        ``(1 + 2 eps') / (1 - 4 eps')`` ratio.  With ``eps' = eps / 8`` this
        stays within the advertised ``1 + eps`` for every ``eps <= 1/2``.
        """
        eps = self.epsilon_prime
        return (1.0 + 2.0 * eps) / (1.0 - 4.0 * eps) * volume

    def _extra_live_names(self) -> Set[Hashable]:
        extra: Set[Hashable] = {
            entry.name for entry in self._tail_entries if entry.name is not None
        }
        if self._pending is not None:
            for entry in self._pending.log:
                if entry.op == "insert" and entry.name in self.space:
                    extra.add(entry.name)
        return extra

    def _size_lookup(self, name: Hashable) -> int:
        """Size of a live object, or of one whose delete is still logged."""
        if name in self._sizes:
            return self._sizes[name]
        return self._deferred_deletes[name]

    size_of = _size_lookup

    # -------------------------------------------------------------- requests
    def _do_insert(self, name: Hashable, size: int) -> None:
        cls = size_class_of(size)
        if self._pending is not None:
            self._log_insert(name, size, cls)
            self._advance(size)
            return
        indices = self.region_indices()
        if not indices:
            self._create_region_for(name, size, cls)
            self._tail_capacity = max(
                self._tail_capacity, self._buffer_fraction(self.volume)
            )
            self._tail_start = self._structure_end()
            return
        if self._try_buffer_insert(name, size, cls):
            return
        fits_in_tail = self._tail_used + size <= self._tail_capacity
        # The slot is written only once the placement succeeded.
        self._place_object(name, size, self._tail_slot(), reason="insert:tail")
        self._append_tail(name, size, cls)
        if fits_in_tail:
            return
        # The tail buffer is (over)full: trigger a flush and immediately
        # perform this update's share of its work.
        self._start_flush(trigger_class=cls)
        self._advance(size)

    def _do_delete(self, name: Hashable, size: int) -> None:
        if self._pending is not None:
            self._log_delete(name, size)
            self._advance(size)
            return
        if not self._release(name):
            return
        cls = size_class_of(size)
        if self._try_buffer_record(size, cls):
            return
        if self._tail_used + size <= self._tail_capacity:
            self._append_tail(None, size, cls)
            return
        # Trigger the flush without consuming space for the dummy record.
        self._start_flush(trigger_class=cls)
        self._advance(size)

    # --------------------------------------------------------- tail and log
    def _buffer_slots(self, placement: Tuple) -> List[BufferEntry]:
        if placement[0] == "tail":
            return self._tail_entries
        return self._regions[placement[1]].buffer

    def _tail_slot(self) -> int:
        """Address of the next tail slot."""
        if not self._tail_entries:
            self._tail_start = max(self._tail_start, self._structure_end())
        return self._tail_start + self._tail_used

    def _append_tail(self, name: Optional[Hashable], size: int, cls: int) -> None:
        """Take the next tail slot for ``name`` (None: a delete record)."""
        if name is not None:
            self._placement[name] = ("tail", len(self._tail_entries))
        self._tail_entries.append(BufferEntry(name, size, cls))
        self._tail_used += size

    def _log_insert(self, name: Hashable, size: int, cls: int) -> None:
        pending = self._pending
        address = pending.log_cursor
        pending.log_cursor += size
        pending.log.append(_LogEntry("insert", name, size, cls))
        self._place_object(name, size, address, reason="insert:log")
        self._note_transient_footprint(pending.log_cursor)

    def _log_delete(self, name: Hashable, size: int) -> None:
        pending = self._pending
        self._deferred_deletes[name] = size
        pending.log.append(_LogEntry("delete", name, size, size_class_of(size)))

    # ------------------------------------------------------- flush lifecycle
    def _start_flush(self, trigger_class: int) -> None:
        """Plan a flush covering the class regions and the tail buffer."""
        indices = self.region_indices()
        if not indices:
            # Everything that is live sits in the tail buffer (all regions
            # emptied out).  Seed an empty region for the largest tail class
            # so the planner has a "last buffer" to fold the tail into; the
            # flush then rebuilds proper regions from those objects.
            largest = max(
                (entry.size_class for entry in self._tail_entries), default=trigger_class
            )
            self._regions[largest] = Region(
                index=largest, start=0, payload_capacity=0, buffer_capacity=0
            )
            indices = [largest]
        last = self._regions[indices[-1]]
        # The tail buffer "follows all the size-class segments", so for
        # planning purposes its entries are treated as part of the last
        # buffer: they participate in the boundary computation and are moved
        # into payload segments like any other buffered object.
        for entry in self._tail_entries:
            if entry.name is not None:
                self._placement[entry.name] = ("buffer", last.index, len(last.buffer))
            last.buffer.append(entry)
            last.buffer_used += entry.size
        self._tail_entries = []
        self._tail_used = 0

        volume_at_start = self.volume
        plan = self._plan_flush(trigger_class, pending_insert=None)
        items, overflow_end = self._flush_items(plan, trigger_size=0)
        self._note_transient_footprint(overflow_end)
        new_tail_capacity = self._buffer_fraction(volume_at_start)
        log_cursor = max(overflow_end, plan.new_end + new_tail_capacity)
        self._pending = _PendingFlush(
            plan=plan,
            items=items,
            volume_at_start=volume_at_start,
            new_tail_capacity=new_tail_capacity,
            log_cursor=log_cursor,
        )

    def _advance(self, update_size: int) -> None:
        """Perform the next ``work_factor * update_size`` volume of flush work."""
        pending = self._pending
        if pending is None:
            return
        budget = self.work_factor * update_size

        # Stage 1: the planned phased moves.
        checkpoints_before = self._current_checkpoints
        pending.next_item, executed, moves = self._run_items(
            pending.items, pending.next_item, budget
        )
        pending.moved_volume += executed
        pending.move_count += moves
        pending.checkpoints += self._current_checkpoints - checkpoints_before
        if pending.next_item < len(pending.items):
            return

        # Stage 2: install the rebuilt regions exactly once.
        if not pending.installed:
            self._install_plan(
                pending.plan, pending.moved_volume, pending.move_count, pending.checkpoints
            )
            pending.installed = True
            self._tail_capacity = pending.new_tail_capacity
            self._tail_entries = []
            self._tail_used = 0
            self._tail_start = self._structure_end()

        # Stage 3: drain the log (re-insert / re-delete the updates that
        # arrived during the flush).
        while pending.log and executed <= budget:
            entry = pending.log.popleft()
            executed += self._drain_entry(entry)
        if pending.log:
            return

        # The flush is complete.
        self._pending = None
        if self._tail_used > self._tail_capacity and self._tail_entries:
            # The drain itself overfilled the tail; start the next flush now
            # (its work will again be spread over subsequent updates).
            trigger = min(entry.size_class for entry in self._tail_entries)
            self._start_flush(trigger_class=trigger)

    def _drain_entry(self, entry: _LogEntry) -> int:
        if entry.op == "insert":
            self._drain_insert(entry.name, entry.size, entry.size_class)
        else:
            self._drain_delete(entry.name, entry.size)
        return entry.size

    def _drain_insert(self, name: Hashable, size: int, cls: int) -> None:
        """Move a logged object from the log area into a buffer or the tail."""
        region = self._buffer_with_room(size, cls)
        if region is not None:
            address = region.buffer_start + region.buffer_used
            self._move_object(name, address, reason="drain:buffer")
            self._append_to_buffer(region, name, size, cls)
            return
        # Fall back to the tail buffer.  If even the tail is (over)full the
        # object simply stays where it is (in the log area) but is accounted
        # as a tail entry: the tail becomes overfull, which triggers the next
        # flush as soon as the drain finishes, and that flush pulls the
        # straggler back in.  Not moving it keeps the transient footprint
        # within the Lemma 3.5 working space instead of escalating it.
        address = self._tail_slot()
        if self._tail_used + size <= self._tail_capacity:
            self._move_object(name, address, reason="drain:tail")
        self._append_tail(name, size, cls)

    def _drain_delete(self, name: Hashable, size: int) -> None:
        """Apply a logged delete to the (now flushed) structure."""
        self._deferred_deletes.pop(name, None)
        if not self._release(name):
            return
        cls = size_class_of(size)
        if not self._try_buffer_record(size, cls):
            # Record the deletion in the tail, overfilling it if necessary;
            # a new flush starts once the drain completes.
            self._append_tail(None, size, cls)

    # ----------------------------------------------------------- utilities
    def finish_pending_work(self, max_rounds: int = 1000) -> None:
        """Drive any in-progress flush to completion (test/benchmark helper)."""
        rounds = 0
        while self._pending is not None:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError("flush did not complete within the round limit")
            remaining = sum(
                item[2] for item in self._pending.items[self._pending.next_item :]
                if item[0] == "move"
            ) + self.log_volume() + 1
            self._advance(remaining)
