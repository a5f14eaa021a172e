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

from typing import Dict, Hashable, Iterator, Optional

from repro.storage.checkpoint import CheckpointManager
from repro.storage.extent import Extent


class RecoveryError(RuntimeError):
    """Recovery found a durable mapping pointing at clobbered data."""


class BlockTranslationLayer:
    """Logical-name to physical-extent map with checkpointed durability."""

    def __init__(self, checkpoints: Optional[CheckpointManager] = None) -> None:
        self.checkpoints = checkpoints if checkpoints is not None else CheckpointManager()
        self._volatile: Dict[Hashable, Extent] = {}
        self._durable: Dict[Hashable, Extent] = {}
        #: Map updates (allocations, moves, frees) since the last checkpoint.
        self.updates_since_checkpoint = 0

    # ------------------------------------------------------------- volatile
    def record_allocation(self, name: Hashable, extent: Extent) -> None:
        """Record that ``name`` now lives at ``extent`` (new block)."""
        self._volatile[name] = extent
        self.updates_since_checkpoint += 1

    def record_move(self, name: Hashable, new_extent: Extent) -> None:
        """Record that ``name`` moved; its old extent is frozen until checkpoint."""
        old = self._volatile.get(name)
        if old is not None:
            self.checkpoints.record_free(old)
        self._volatile[name] = new_extent
        self.updates_since_checkpoint += 1

    def record_free(self, name: Hashable) -> None:
        """Record that ``name`` was deleted; its space is frozen until checkpoint."""
        old = self._volatile.pop(name, None)
        if old is not None:
            self.checkpoints.record_free(old)
        self.updates_since_checkpoint += 1

    def lookup(self, name: Hashable) -> Extent:
        """Current (volatile) location of ``name``."""
        return self._volatile[name]

    def __contains__(self, name: Hashable) -> bool:
        return name in self._volatile

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._volatile)

    def __len__(self) -> int:
        return len(self._volatile)

    # -------------------------------------------------------------- durable
    def checkpoint(self) -> int:
        """Persist the volatile map; freed space becomes reusable."""
        self._durable = dict(self._volatile)
        self.updates_since_checkpoint = 0
        return self.checkpoints.checkpoint()

    def durable_lookup(self, name: Hashable) -> Extent:
        """Location of ``name`` as of the last checkpoint."""
        return self._durable[name]

    def crash(self) -> None:
        """Simulate a crash: the volatile map is lost, recovery reloads durable."""
        self._volatile = dict(self._durable)
        self.updates_since_checkpoint = 0
        self.checkpoints.recover()

    def verify_recoverable(self, live_data: Dict[Hashable, Extent]) -> None:
        """Check every durable mapping still points at the block's data.

        ``live_data`` maps names to the extents where their data is
        *physically intact* (for simulation purposes, any location the block
        occupied that has not been overwritten).  Raises
        :class:`RecoveryError` if a durable mapping points elsewhere.
        """
        for name, durable_extent in self._durable.items():
            intact = live_data.get(name)
            if intact is None or intact != durable_extent:
                raise RecoveryError(
                    f"durable map for {name!r} points at {durable_extent} but "
                    f"intact data is at {intact}"
                )
