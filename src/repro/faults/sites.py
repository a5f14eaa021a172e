"""The registry of named fault sites.

A *site* is one durability-critical operation that a
:func:`~repro.faults.injector.fault_point` (or
:func:`~repro.faults.injector.fault_write`) hook guards.  Names follow
``<layer>.<component>.<operation>``: the first segment is the subsystem
(``queue``, ``artifact``, ``trace``, ``checkpoint``), the rest walks down
to the exact cut.  Fault-plan rules match sites with ``fnmatch`` globs, so
``queue.lease.*`` arms every lease operation and ``*`` arms everything.

This registry is documentation plus the enumeration source for the chaos
harness (``repro chaos sites`` and the crash-at-every-site battery); the
hooks themselves pass plain strings and do not consult it, so the disabled
fast path stays a dictionary-free no-op.
"""

from __future__ import annotations

from typing import Dict

#: site name -> where it fires, in one line.
SITES: Dict[str, str] = {
    "queue.lease.claim": "before the O_EXCL lease-file create that claims a cell",
    "queue.lease.write": "the write of the claim stamp into a fresh lease file",
    "queue.lease.heartbeat": "each heartbeat refresh of a held lease's mtime",
    "queue.lease.steal": "before the atomic rename that retires an expired lease",
    "queue.journal.append": "the fsync'd JSONL line appended per finished cell",
    "queue.journal.fsync": "between the journal line write and its fsync",
    "queue.dequeue": "before a finished cell's payload and lease are removed",
    "artifact.write.body": "while the .tmp sibling of an artifact is being written",
    "artifact.write.fsync": "between the .tmp body and its fsync",
    "artifact.write.replace": "between the fsync'd .tmp and the atomic os.replace",
    "trace.write.block": "a v3 binary-trace block write (mid-block)",
    "trace.write.trailer": "the END trailer / v3 footer write at trace close",
    "checkpoint.persist": "the checkpoint that persists the translation map",
    "checkpoint.snapshot": "the .tmp body write of a session snapshot file",
    "serve.accept": "before a new client connection is handed its session",
    "serve.batch.apply": "before a coalesced batch is applied to a tenant session",
    "serve.record.sync": "before a served batch's trace records are synced to disk",
    "serve.snapshot": "before a served session is snapshotted to disk",
}
