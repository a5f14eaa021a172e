"""Block translation layer with checkpoint/crash semantics.

TokuDB-style indirection: clients address blocks by an immutable logical
name; the translation layer maps names to physical addresses that the
reallocator is free to change.  The *durable* copy of the map is the one
written out at the last checkpoint — after a crash, lookups revert to it.

This substrate is what makes the checkpointed reallocator's guarantee
meaningful: because the reallocator never overwrites space freed since the
last checkpoint, the durable map always points at intact data, and
:meth:`BlockTranslationLayer.crash` therefore never loses a block.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.storage.checkpoint import CheckpointManager
from repro.storage.extent import Extent


class RecoveryError(RuntimeError):
    """Recovery found a durable mapping pointing at clobbered data."""


class BlockTranslationLayer:
    """Logical-name to physical-extent map with checkpointed durability.

    Both maps hold plain half-open ``(start, end)`` spans, recorded from
    integers; only :meth:`lookup` and :meth:`durable_lookup` build extents.
    A checkpoint writes only the names changed since the previous one (the
    ``_dirty`` set) into the durable map, not a copy of the whole map.
    The checkpointed reallocator writes its moves a span at a time through
    :meth:`record_moves`; :meth:`record_move` is its one-move case.
    """

    def __init__(self, checkpoints: Optional[CheckpointManager] = None) -> None:
        self.checkpoints = checkpoints if checkpoints is not None else CheckpointManager()
        self._volatile: Dict[Hashable, Tuple[int, int]] = {}
        self._durable: Dict[Hashable, Tuple[int, int]] = {}
        #: Names allocated, moved or freed since the last checkpoint.
        self._dirty: Set[Hashable] = set()

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Unpickle older layouts: maps of extents become maps of spans, and
        a snapshot taken before the dirty set existed (that layout kept an
        update counter instead) gets it derived."""
        state.pop("updates_since_checkpoint", None)
        for key in ("_volatile", "_durable"):
            spans = state[key].items()
            state[key] = {n: (s.start, s.end) if isinstance(s, Extent) else s for n, s in spans}
        self.__dict__.update(state)
        if "_dirty" not in state:
            volatile, durable = self._volatile, self._durable
            names = volatile.keys() | durable.keys()
            self._dirty = {n for n in names if volatile.get(n) != durable.get(n)}

    # ------------------------------------------------------------- volatile
    def record_allocation(self, name: Hashable, start: int, end: int) -> None:
        """Record that ``name`` now lives at ``[start, end)`` (new block)."""
        self._volatile[name] = (start, end)
        self._dirty.add(name)

    def record_move(self, name: Hashable, start: int, end: int) -> None:
        """Record that ``name`` moved to ``[start, end)``; its old span freezes."""
        self.record_moves(((name, start, end, self._volatile.get(name)),))

    def record_moves(self, moves: Iterable[Tuple], freeze: bool = True) -> None:
        """Record moves ``(name, start, end, old)`` in order, ``old`` being
        the span the map held for ``name`` just before (None if none); the
        old spans freeze unless a checkpoint about to thaw them follows."""
        volatile, dirty = self._volatile, self._dirty
        record_free = self.checkpoints.record_free
        for name, start, end, old in moves:
            volatile[name] = (start, end)
            dirty.add(name)
            if freeze and old is not None:
                record_free(*old)

    def spans(self) -> Mapping[Hashable, Tuple[int, int]]:
        """The volatile map itself, name -> ``(start, end)``; read-only."""
        return self._volatile

    def record_free(self, name: Hashable) -> None:
        """Record that ``name`` was deleted; its space is frozen until checkpoint."""
        old = self._volatile.pop(name, None)
        if old is not None:
            self.checkpoints.record_free(*old)
        self._dirty.add(name)

    def lookup(self, name: Hashable) -> Extent:
        """Current (volatile) location of ``name``."""
        start, end = self._volatile[name]
        return Extent(start, end - start)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._volatile

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._volatile)

    def __len__(self) -> int:
        return len(self._volatile)

    # -------------------------------------------------------------- durable
    def checkpoint(self) -> int:
        """Persist the volatile map; freed space becomes reusable."""
        volatile, durable = self._volatile, self._durable
        for name in self._dirty:
            span = volatile.get(name)
            if span is None:
                durable.pop(name, None)
            else:
                durable[name] = span
        self._dirty.clear()
        return self.checkpoints.checkpoint()

    def durable_lookup(self, name: Hashable) -> Extent:
        """Location of ``name`` as of the last checkpoint."""
        start, end = self._durable[name]
        return Extent(start, end - start)

    def crash(self) -> None:
        """Simulate a crash: the volatile map is lost, recovery reloads durable."""
        self._volatile = dict(self._durable)
        self._dirty.clear()
        self.checkpoints.recover()

    def verify_recoverable(self, live_data: Dict[Hashable, Extent]) -> None:
        """Check every durable mapping still points at the block's data.

        ``live_data`` maps names to the extents where their data is
        *physically intact* (for simulation purposes, any location the block
        occupied that has not been overwritten).  Raises
        :class:`RecoveryError` if a durable mapping points elsewhere.
        """
        for name in self._durable:
            durable_extent = self.durable_lookup(name)
            intact = live_data.get(name)
            if intact is None or intact != durable_extent:
                raise RecoveryError(
                    f"durable map for {name!r} points at {durable_extent} but "
                    f"intact data is at {intact}"
                )
