"""Checkpoint manager enforcing the durability rule of Section 3.1.

When an object is moved, the logical-to-physical map changes; until the next
checkpoint persists that map, the *old* copy of the object must remain intact
so a crash can recover it.  Consequently an allocator may not write into any
address range that was freed (by a delete or by a move away from it) after
the most recent checkpoint.

:class:`CheckpointManager` records freed extents, raises
:class:`FreedSpaceViolation` if an algorithm writes into one of them, and
exposes counters used by experiment E5 (checkpoints per flush, Lemma 3.3).

The module also carries the snapshot file helpers
(:func:`write_snapshot` / :func:`read_snapshot`) that the engine's session
layer and the live allocation service build their checkpoint/restore on:
an atomically-replaced pickle with a small header, written through the
same ``.tmp`` + ``os.replace`` discipline as every other artifact.
"""

from __future__ import annotations

import os
import pickle
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional

from repro.faults.injector import fault_point, fault_write
from repro.storage.extent import Extent


class FreedSpaceViolation(RuntimeError):
    """An algorithm wrote into space freed since the last checkpoint."""


class CheckpointManager:
    """Tracks freed-but-not-yet-checkpointed space and checkpoint counts.

    The frozen space is kept as two parallel sorted lists, ``_starts`` and
    ``_ends``, of coalesced half-open runs: no two runs overlap or touch, so
    both lists are strictly increasing and one bisect finds the only run a
    query can hit.  :meth:`record_free` and :meth:`is_writable` are
    therefore O(log m) probes (plus the list insert or splice) in the
    number ``m`` of frozen runs.  The checkpointed reallocator makes far
    fewer than one of each per move: it freezes a span's sources only
    when a destination may hit them or the span ends without a checkpoint.

    Spans are plain half-open ``(start, end)`` integers, taken from
    placements the address space validated; only :meth:`frozen_extents`
    builds extents.

    Parameters
    ----------
    enforce:
        If True (default), :meth:`assert_writable` raises on violations.  The
        checkpointed reallocator is always run with enforcement on in tests;
        turning it off lets experiments measure how often a *non*-compliant
        algorithm would have violated durability.
    """

    def __init__(self, enforce: bool = True) -> None:
        self.enforce = enforce
        self._starts: List[int] = []
        self._ends: List[int] = []
        self.checkpoints_taken = 0
        self.violations = 0

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Unpickle, rebuilding the run lists of an older ``_frozen`` layout.

        Session and serve snapshots pickle whole allocators, so a snapshot
        written before the frozen space was indexed carries a plain list of
        (possibly overlapping, unsorted) extents instead of the run lists.
        """
        frozen = state.pop("_frozen", None)
        self.__dict__.update(state)
        if frozen is not None:
            self._starts, self._ends = [], []
            for extent in frozen:
                self.record_free(extent.start, extent.end)

    # ------------------------------------------------------------------ API
    def record_free(self, start: int, end: int) -> None:
        """Mark ``[start, end)`` as freed since the last checkpoint.

        The span is merged into the runs it overlaps or touches, exactly
        as :func:`~repro.storage.extent.coalesce` would merge them, so the
        frozen set is always stored coalesced.
        """
        starts, ends = self._starts, self._ends
        # Runs [lo, hi) are the ones with end >= start and start <= end.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end, lo)
        if lo == hi:
            starts.insert(lo, start)
            ends.insert(lo, end)
            return
        if starts[lo] < start:
            start = starts[lo]
        if ends[hi - 1] > end:
            end = ends[hi - 1]
        starts[lo:hi] = (start,)
        ends[lo:hi] = (end,)

    def frozen_extents(self) -> List[Extent]:
        """The extents currently unwritable because they await a checkpoint,
        coalesced and sorted by address (a fresh list; the index is unchanged).
        """
        return [Extent(start, end - start) for start, end in zip(self._starts, self._ends)]

    def is_writable(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` does not intersect any frozen run."""
        # The last run starting before the span's end is the only
        # candidate: every earlier run also ends before that run starts.
        index = bisect_left(self._starts, end) - 1
        return index < 0 or self._ends[index] <= start

    def assert_writable(self, start: int, end: int, context: Optional[str] = None) -> None:
        """Raise :class:`FreedSpaceViolation` if ``[start, end)`` is frozen."""
        if self.is_writable(start, end):
            return
        self.violations += 1
        if self.enforce:
            suffix = f" ({context})" if context else ""
            raise FreedSpaceViolation(
                f"write to [{start}, {end}) intersects space freed since the last "
                f"checkpoint{suffix}"
            )

    def checkpoint(self) -> int:
        """Persist the translation map: all frozen space becomes reusable.

        Returns the total number of checkpoints taken so far.
        """
        fault_point("checkpoint.persist")
        self._starts.clear()
        self._ends.clear()
        self.checkpoints_taken += 1
        return self.checkpoints_taken

    def recover(self) -> None:
        """Crash recovery: thaw all frozen space, keep the counters.

        Space freed since the last checkpoint was, by definition, never
        reused, so after a crash the pre-crash frozen set is irrelevant.
        Callers (e.g. ``BlockTranslationLayer.crash``) use this instead of
        poking the private run lists.
        """
        self._starts.clear()
        self._ends.clear()

    def reset_counters(self) -> None:
        """Zero the checkpoint and violation counters (frozen space kept)."""
        self.checkpoints_taken = 0
        self.violations = 0

    # -------------------------------------------------------- serialization
    def to_state(self) -> Dict[str, Any]:
        """A JSON-safe dict capturing the manager's full state.

        Round-trips through :meth:`from_state`; used by session snapshots
        so checkpoint bookkeeping survives a serialize/restore cycle
        without callers reaching into private attributes.
        """
        return {
            "enforce": self.enforce,
            "frozen": [[start, end - start] for start, end in zip(self._starts, self._ends)],
            "checkpoints_taken": self.checkpoints_taken,
            "violations": self.violations,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "CheckpointManager":
        """Rebuild a manager from a :meth:`to_state` dict."""
        manager = cls(enforce=bool(state.get("enforce", True)))
        for start, length in state.get("frozen", []):
            extent = Extent(int(start), int(length))  # validates the state
            manager.record_free(extent.start, extent.end)
        manager.checkpoints_taken = int(state.get("checkpoints_taken", 0))
        manager.violations = int(state.get("violations", 0))
        return manager


# ------------------------------------------------------------ snapshot files
SNAPSHOT_MAGIC = b"\x93RPSNAP1"


class SnapshotError(RuntimeError):
    """A snapshot file is missing, truncated, or not a snapshot at all."""


def write_snapshot(path, payload: Any) -> None:
    """Atomically write ``payload`` (any picklable object) to ``path``.

    The bytes land in a ``.tmp`` sibling first and are atomically renamed
    over ``path``, so a crash mid-write never leaves a half-snapshot under
    the final name.  The ``checkpoint.snapshot`` fault site covers the body
    write for the chaos harness.
    """
    data = SNAPSHOT_MAGIC + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        fault_write("checkpoint.snapshot", handle, data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_snapshot(path) -> Any:
    """Read a :func:`write_snapshot` file back; loud on anything malformed."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as error:
        raise SnapshotError(f"{path}: cannot read snapshot ({error})") from error
    if not blob.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError(
            f"{path}: not a snapshot file (bad magic {blob[:8]!r})"
        )
    try:
        return pickle.loads(blob[len(SNAPSHOT_MAGIC):])
    except Exception as error:
        raise SnapshotError(
            f"{path}: truncated or corrupt snapshot ({error})"
        ) from error
