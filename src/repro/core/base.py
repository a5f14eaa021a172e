"""The allocator interface shared by the paper's reallocators and baselines.

Every allocator — the cost-oblivious reallocators of Sections 2 and 3, the
non-moving baselines (First Fit, Best Fit, Buddy, ...) and the moving
baselines (logging-and-compacting, size-class-gap) — implements the same
online interface:

* :meth:`Allocator.insert` — serve an ``<INSERTOBJECT, name, length>`` request,
* :meth:`Allocator.delete` — serve a ``<DELETEOBJECT, name>`` request.

The base class provides uniform bookkeeping so that every experiment charges
every algorithm identically: an :class:`~repro.storage.address_space.AddressSpace`
that audits placements for overlaps, an :class:`~repro.core.stats.AllocatorStats`
with allocation/move histograms, and optional per-request tracing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.events import FlushRecord, MoveEvent, RequestRecord
from repro.core.stats import AllocatorStats
from repro.storage.address_space import AddressSpace
from repro.storage.extent import Extent

#: The budget of a run that makes all its moves at once.
UNBOUNDED = float("inf")


class AllocationError(RuntimeError):
    """An invalid request: duplicate insert, unknown delete, bad size."""


class Allocator(ABC):
    """Base class for every storage (re)allocator in this library.

    Parameters
    ----------
    trace:
        When True, every request's :class:`~repro.core.events.RequestRecord`
        (including its individual moves) is retained in :attr:`history`.
        Leave False for large benchmark runs; the aggregate statistics in
        :attr:`stats` are always maintained.
    audit:
        When True (default) every placement is checked for overlaps via the
        address space's sorted index — an O(log n) neighbour probe, cheap
        enough that benchmarks and campaign cells leave it on.  Set False
        only to shave the last few percent off a huge throughput-only run.
    observers:
        Observers (see :mod:`repro.engine.observers`) notified of every
        request record, move, flush, and checkpoint.  Usually attached per
        replay by an :class:`~repro.engine.EngineSession` rather than at
        construction time.

    Instrumentation fast path: :meth:`run` checks once whether anything can
    see per-request events (``trace`` or attached observers).  When nothing
    can, serving a request skips building ``RequestRecord``/``MoveEvent``
    objects entirely — only the aggregate :attr:`stats` are maintained —
    which is what makes zero-observer replays cheap.  Direct
    :meth:`insert`/:meth:`delete` calls always return a full record.
    """

    #: Human-readable identifier used in benchmark tables.
    name: str = "allocator"
    #: Whether the algorithm ever moves previously allocated objects.
    supports_reallocation: bool = False

    def __init__(self, trace: bool = False, audit: bool = True, observers=None) -> None:
        self.space = AddressSpace(validate=audit)
        self.stats = AllocatorStats()
        self.trace = trace
        self.history: List[RequestRecord] = []
        self._sizes: Dict[Hashable, int] = {}
        self._delta = 0
        self._observers: List = list(observers) if observers else []
        self._collect_events = True
        self._current_moves: List[MoveEvent] = []
        self._current_moved_volume = 0
        self._current_flush: Optional[FlushRecord] = None
        self._current_checkpoints = 0

    # ----------------------------------------------------------- properties
    @property
    def volume(self) -> int:
        """Total size of the currently active objects (the paper's ``V``)."""
        return self.space.volume()

    @property
    def footprint(self) -> int:
        """Largest allocated address (the paper's footprint objective)."""
        return self.space.footprint()

    @property
    def delta(self) -> int:
        """Largest object size seen so far (the paper's ``Delta``)."""
        return self._delta

    @property
    def num_objects(self) -> int:
        """Number of currently active objects."""
        return len(self.space)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._sizes

    def size_of(self, name: Hashable) -> int:
        """Size of the active object ``name``."""
        return self._sizes[name]

    def address_of(self, name: Hashable) -> int:
        """Current starting address of the active object ``name``."""
        return self.space.extent_of(name).start

    # ----------------------------------------------------------- observers
    def attach_observer(self, observer) -> None:
        """Notify ``observer`` of every subsequent record/move/flush/checkpoint."""
        self._observers.append(observer)

    def detach_observer(self, observer) -> None:
        """Stop notifying ``observer`` (a no-op if it is not attached)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------ requests
    def insert(self, name: Hashable, size: int) -> RequestRecord:
        """Serve an insert (malloc) request and return its record."""
        return self._serve_insert(name, size, collect=True)

    def delete(self, name: Hashable) -> RequestRecord:
        """Serve a delete (free) request and return its record."""
        return self._serve_delete(name, collect=True)

    def run(self, requests) -> None:
        """Serve a whole trace of :class:`repro.workloads.base.Request` objects.

        When nothing observes per-request events (``trace`` is False and no
        observer is attached) the replay skips record construction entirely;
        only :attr:`stats` are maintained.
        """
        collect = bool(self.trace or self._observers)
        for request in requests:
            if request.is_insert:
                self._serve_insert(request.name, request.size, collect)
            else:
                self._serve_delete(request.name, collect)

    def _serve_insert(self, name: Hashable, size: int, collect: bool) -> Optional[RequestRecord]:
        if size < 1:
            raise AllocationError(f"object size must be >= 1, got {size}")
        if name in self._sizes:
            raise AllocationError(f"object {name!r} is already allocated")
        self._collect_events = collect
        self._begin_request()
        # The size must be registered before _do_insert runs: a flush
        # triggered by the placement may relocate the new object, and
        # _size_lookup must resolve it.  The registration (and any placement
        # of the new object) is rolled back if _do_insert raises, so the
        # failed insert can be retried instead of dying with "already
        # allocated".  Side effects on *other* objects (moves performed by a
        # partially completed flush) are real work and stay recorded.  The
        # reallocators write a buffer slot only once its placement succeeded,
        # and a Section 3.2 overfill whose flush raises frees itself as a
        # delete would, leaving a delete record in its slot.
        self._sizes[name] = size
        previous_delta = self._delta
        if size > self._delta:
            self._delta = size
        try:
            self._do_insert(name, size)
        except BaseException:
            self._sizes.pop(name, None)
            if name in self.space:
                self.space.remove(name)
            self._delta = previous_delta
            self.stats.requests -= 1
            raise
        self.stats.record_allocation(size)
        self.stats.inserts += 1
        return self._finish_request("insert", name, size)

    def _serve_delete(self, name: Hashable, collect: bool) -> Optional[RequestRecord]:
        if name not in self._sizes:
            raise AllocationError(f"object {name!r} is not allocated")
        size = self._sizes[name]
        self._collect_events = collect
        self._begin_request()
        try:
            self._do_delete(name, size)
        except BaseException:
            # Unlike a failed insert (whose sole placement can always be
            # undone, see _serve_insert), a delete that raises midway may
            # have freed space that later moves already reused, and the
            # deamortized variant defers frees — so no faithful rollback
            # exists.  The registration is kept (the object still counts as
            # allocated) but its physical state is undefined; callers should
            # treat the allocator as poisoned after a raising delete.
            self.stats.requests -= 1
            raise
        del self._sizes[name]
        self.stats.deletes += 1
        return self._finish_request("delete", name, size)

    # -------------------------------------------------- subclass obligations
    @abstractmethod
    def _do_insert(self, name: Hashable, size: int) -> None:
        """Place the new object ``name`` somewhere in the address space."""

    @abstractmethod
    def _do_delete(self, name: Hashable, size: int) -> None:
        """Release object ``name`` (and possibly reorganise)."""

    # ------------------------------------------------------ helper plumbing
    def _begin_request(self) -> None:
        if self._collect_events:
            self._current_moves = []
        self._current_moved_volume = 0
        self._current_flush = None
        self._current_checkpoints = 0
        self.stats.requests += 1

    def _finish_request(self, op: str, name: Hashable, size: int) -> Optional[RequestRecord]:
        footprint = self.space.footprint()
        volume = self.space.volume()
        stats = self.stats
        stats.record_footprint(footprint, volume)
        moved_volume = self._current_moved_volume
        if moved_volume > stats.max_request_moved_volume:
            stats.max_request_moved_volume = moved_volume
        if self._current_checkpoints > stats.max_request_checkpoints:
            stats.max_request_checkpoints = self._current_checkpoints
        if stats.request_moved_volumes is not None:
            stats.request_moved_volumes.append(moved_volume)
        if not self._collect_events:
            return None
        record = RequestRecord(
            index=stats.requests,
            op=op,
            name=name,
            size=size,
            moves=tuple(self._current_moves),
            flush=self._current_flush,
            checkpoints=self._current_checkpoints,
            footprint_after=footprint,
            volume_after=volume,
        )
        if self.trace:
            self.history.append(record)
        for observer in self._observers:
            observer.on_request(record)
        return record

    def _place_object(self, name: Hashable, size: int, address: int, reason: str = "place") -> None:
        """Record the first placement of ``name`` at ``address``."""
        extent = Extent(address, size)
        self.space.place(name, extent)
        if self._collect_events:
            move = MoveEvent(name=name, size=size, source=None, destination=extent, reason=reason)
            self._note_move(move)

    def _size_lookup(self, name: Hashable) -> int:
        """Size of an object that still occupies space (overridable)."""
        return self._sizes[name]

    def _move_object(self, name: Hashable, new_address: int, reason: str = "move") -> None:
        """Record a relocation of ``name`` to ``new_address`` (a one-item run)."""
        move = ("move", name, self._size_lookup(name), new_address, reason)
        self._run_items((move,), 0, UNBOUNDED)

    def _run_items(self, items: Sequence[Tuple], index: int, budget: float) -> Tuple[int, int, int]:
        """Run the planned moves from ``items[index]`` on, while the volume
        moved by this call is at most ``budget``.

        Each item is ``("move", name, size, target, reason)``.  A move whose
        object no longer occupies space or already sits at its target is
        skipped and costs nothing.  The stats take the whole run at once,
        also when a move raises.  Returns ``(next_index, moved_volume,
        move_count)``.
        """
        lookup = self.space.get
        move = self.space.move
        collect = self._collect_events
        end = len(items)
        sizes: List[int] = []
        moved_volume = 0
        try:
            while index < end and moved_volume <= budget:
                _tag, name, size, target, reason = items[index]
                index += 1
                old = lookup(name)
                if old is None or old.start == target:
                    continue
                new_extent = Extent(target, size)
                move(name, new_extent)
                sizes.append(size)
                moved_volume += size
                if collect:
                    self._note_move(MoveEvent(name, size, old, new_extent, reason))
        finally:
            if sizes:
                self.stats.record_moves(sizes, moved_volume)
                self._current_moved_volume += moved_volume
        return index, moved_volume, len(sizes)

    def _note_move(self, move: MoveEvent) -> None:
        """Add a placement or move to the request's record; tell observers."""
        self._current_moves.append(move)
        for observer in self._observers:
            observer.on_move(move)

    def _free_object(self, name: Hashable) -> Extent:
        """Remove ``name`` from the address space and return its old extent."""
        return self.space.remove(name)

    def _note_flush(self, record: FlushRecord) -> None:
        self.stats.flushes += 1
        self._current_flush = record
        for observer in self._observers:
            observer.on_flush(record)

    def _note_checkpoint(self, count: int = 1) -> None:
        self.stats.checkpoints += count
        self._current_checkpoints += count
        for observer in self._observers:
            observer.on_checkpoint(count)

    def _note_transient_footprint(self, footprint: int) -> None:
        self.stats.record_transient_footprint(footprint)

    # --------------------------------------------------------------- extras
    def enable_request_tracking(self) -> None:
        """Start recording the moved volume of every subsequent request."""
        if self.stats.request_moved_volumes is None:
            self.stats.request_moved_volumes = []

    def describe(self) -> str:
        """One-line description used by reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} objects={self.num_objects} "
            f"volume={self.volume} footprint={self.footprint}>"
        )
