"""Distributed campaign execution over a file-backed work queue.

The sweep executor (:mod:`repro.campaign.executor`) stops at one machine's
cores.  This module turns a campaign into a *queue directory* that any number
of independent worker processes — on the same host or on different hosts
sharing a filesystem — can drain cooperatively, in the spirit of wiscsee's
distributed SSD simulations and vegvisir's fault-isolated matrix runner::

    <dir>/
        spec.json                the campaign spec (written by enqueue)
        queue/cell-0007.json     one pending cell payload per file
        leases/cell-0007.lease   claim marker: worker token, pid, host, stamp
        journal/<worker>.jsonl   crash-safe per-worker record journals
        results.json             the merged artifact (written by merge)

The protocol needs nothing but POSIX file semantics:

* **Claiming** is an ``O_CREAT | O_EXCL`` create of the lease file — atomic
  on any local or NFS filesystem — stamped with the worker's token, pid,
  host, and claim time.  The lease's mtime is its heartbeat, refreshed by
  a background thread every TTL/4 while the cell runs, so the TTL only has
  to cover a few missed beats rather than the longest cell.  Expiry checks
  run through the injectable lease clock and add a skew tolerance (the
  mtime comes from another host's clock — see
  :data:`DEFAULT_SKEW_TOLERANCE`).
* **Fault readiness**: the durability-critical cuts are guarded by named
  :func:`~repro.faults.injector.fault_point` sites (``queue.lease.claim``,
  ``queue.journal.append``, ``queue.dequeue``, ...), transient
  ``OSError``\\ s are retried with bounded jittered backoff
  (:class:`~repro.faults.retry.RetryPolicy`), and a worker that cannot
  journal gives the cell back instead of dying — all exercised by the
  ``repro chaos`` harness.
* **Completion** appends the finished record (run through the existing
  :func:`~repro.campaign.executor.run_cell` fault isolation) to the worker's
  private JSONL journal — one fsync'd line per cell, so a crash can truncate
  at most the line being written — and only then deletes the queue file and
  the lease.
* **Expiry**: a lease whose heartbeat is older than the TTL belongs to a
  dead worker.  Other workers (and :func:`merge_queue`) *steal* it with an
  atomic ``os.rename`` to a graveyard name — exactly one stealer wins — so
  the cell is re-queued rather than lost.  A cell that was journaled but not
  dequeued (death in the tiny window between the two) may run twice; records
  are deterministic and :func:`merge_queue` deduplicates by ``cell_id``, so
  the merged artifact sees it exactly once.

:func:`merge_queue` folds every journal plus any previous ``results.json``
into the canonical artifact (atomically, via
:func:`~repro.campaign.artifacts.write_results`), reporting cells still
pending.  Every sweep runs this way: :func:`run_campaign` (``repro sweep
SPEC --jobs N``) wraps enqueue → drain in-process or over N local workers →
merge into one call.
"""

from __future__ import annotations

import errno
import itertools
import json
import multiprocessing
import os
import queue as stdlib_queue
import socket
import tempfile
import threading
import time
import traceback as _traceback
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.campaign.artifacts import campaign_to_dict, load_results, write_results
from repro.campaign.executor import (
    RECORD_VERSION,
    CampaignResult,
    ProgressCallback,
    reusable_record,
    run_cell,
)
from repro.campaign.spec import CampaignCell, CampaignSpec, SpecError
from repro.engine.parallel import SWEEP_WORKER_ENV
from repro.faults.clock import get_clock
from repro.faults.injector import fault_point, fault_write
from repro.faults.retry import RetryPolicy
from repro.obs.telemetry import Telemetry, get_telemetry, reset_telemetry

#: Default lease time-to-live: a worker that has not finished a cell within
#: this many seconds — heartbeats refresh the lease while a cell runs, see
#: :class:`_LeaseHeartbeat` — is presumed dead and its cell re-queued.
DEFAULT_LEASE_TTL = 300.0

#: Slack added to every lease-expiry comparison.  The lease mtime is stamped
#: by the *owner's* filesystem while the age is computed from the
#: *claimer's* clock (via :func:`repro.faults.clock.get_clock`); on shared
#: filesystems those hosts can disagree by seconds.  A lease is only stolen
#: once its heartbeat age exceeds ``lease_ttl + skew_tolerance``.
DEFAULT_SKEW_TOLERANCE = 5.0

#: A worker that hits this many *consecutive* infrastructure failures
#: (journal append exhausted its retries) stops draining instead of
#: spinning on a broken disk.
MAX_CONSECUTIVE_WORKER_ERRORS = 3

_QUEUE_SUBDIR = "queue"
_LEASE_SUBDIR = "leases"
_JOURNAL_SUBDIR = "journal"
#: The journal :func:`enqueue_campaign` writes a resume's reused records to.
_RESUMED_JOURNAL = "resumed"


class QueueError(ValueError):
    """A queue directory is missing, malformed, or inconsistent."""


class CellJournal:
    """Append-only crash-safe JSONL journal of finished cell records.

    One JSON document per line, flushed and fsync'd per append: a crash can
    lose at most the line being written, and a truncated trailing line is
    skipped (and counted) by :func:`read_journal`.  The file is opened
    lazily so constructing a journal for a sweep that finishes zero cells
    leaves nothing behind.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        self.appended = 0
        self._handle = None
        self._dirty = False

    def append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        handle = self._handle
        if self._dirty:
            # A previous append failed part-way and could not be rolled
            # back: terminate the torn fragment so this record starts on a
            # fresh line (read_journal skips the fragment, not the record).
            handle.write("\n")
            self._dirty = False
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        start = handle.tell()
        try:
            fault_write("queue.journal.append", handle, line + "\n")
            handle.flush()
            fault_point("queue.journal.fsync")
            os.fsync(handle.fileno())
        except OSError:
            # A short/torn write must not merge with the next (possibly
            # retried) append into one corrupt line.  Roll the file back to
            # where this record started; if even that fails, remember to
            # newline-terminate the wreckage before the next append.
            try:
                handle.flush()
                handle.truncate(start)
            except OSError:
                self._dirty = True
            raise
        self.appended += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CellJournal":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def read_journal(path: Union[str, os.PathLike]) -> Tuple[List[Dict[str, Any]], int]:
    """Parse one journal file; returns ``(records, skipped_lines)``.

    Unparseable lines (the truncated tail a crashed worker leaves) are
    skipped, not fatal — the cell they would have recorded is simply still
    pending and re-runs.  Garbage bytes (a torn write that is not even
    UTF-8) decode to replacement characters and fail JSON parsing the same
    way, so *any* byte-level corruption costs at most the lines it touches.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(record, dict) and "cell_id" in record:
                records.append(record)
            else:
                skipped += 1
    return records, skipped


def worker_token() -> str:
    """A unique identity for one worker process: ``<host>-<pid>-<nonce>``."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def _queue_dir(directory: Union[str, os.PathLike]) -> str:
    return os.path.join(os.fspath(directory), _QUEUE_SUBDIR)


def _lease_dir(directory: Union[str, os.PathLike]) -> str:
    return os.path.join(os.fspath(directory), _LEASE_SUBDIR)


def journal_dir(directory: Union[str, os.PathLike]) -> str:
    return os.path.join(os.fspath(directory), _JOURNAL_SUBDIR)


def spec_path(directory: Union[str, os.PathLike]) -> str:
    return os.path.join(os.fspath(directory), "spec.json")


def results_path(directory: Union[str, os.PathLike]) -> str:
    return os.path.join(os.fspath(directory), "results.json")


def load_queue_spec(directory: Union[str, os.PathLike]) -> CampaignSpec:
    """The campaign spec a queue directory was enqueued from."""
    path = spec_path(directory)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as error:
        raise QueueError(
            f"{os.fspath(directory)!r} is not a campaign queue directory "
            f"(cannot read {path!r}: {error})"
        ) from error
    except json.JSONDecodeError as error:
        raise QueueError(f"{path!r} is not a valid campaign spec: {error}") from error
    return CampaignSpec.from_dict(raw)


def enqueue_campaign(
    spec: CampaignSpec,
    directory: Union[str, os.PathLike],
    completed: Optional[Dict[str, Dict[str, Any]]] = None,
    telemetry: bool = False,
    profile_dir: Optional[str] = None,
) -> int:
    """Serialize ``spec``'s expanded cells into a queue directory.

    Writes ``spec.json`` plus one ``queue/cell-NNNN.json`` payload per cell.
    ``completed`` (``cell_id`` -> earlier ok record, see
    :func:`~repro.campaign.artifacts.completed_records`) skips the cells
    whose record :func:`~repro.campaign.executor.reusable_record` accepts —
    the resume path for queues.  The reused records replace the
    ``journal/resumed.jsonl`` journal, so :func:`merge_queue` folds them in
    like any worker's record, whichever directory they came from.  Returns
    the number of cells enqueued.  Re-enqueueing into a live queue is
    refused: pending payloads or leases mean another campaign (or a previous
    interrupted enqueue) still owns the directory.  So is a ``trace_recorder``
    path that several cells would share, before anything is written.
    """
    cells = spec.expand()
    if len(cells) > 1:
        # A recorder path without the {cell} placeholder would be opened
        # (and truncated) by every cell: serially each cell destroys the
        # previous recording, in parallel the interleaved writes corrupt
        # the file — while every record still claims its own recording.
        for entry in spec.observers:
            if entry.get("kind") == "trace_recorder" and "{cell}" not in str(
                entry.get("path", "")
            ):
                raise SpecError(
                    f"trace_recorder path {entry.get('path')!r} is shared by "
                    f"{len(cells)} cells; add a '{{cell}}' placeholder (replaced "
                    "by the cell index) so cells do not clobber one another's "
                    "recording"
                )
    directory = os.fspath(directory)
    queue_dir = _queue_dir(directory)
    try:
        for subdir in (queue_dir, _lease_dir(directory), journal_dir(directory)):
            os.makedirs(subdir, exist_ok=True)
    except OSError as error:
        # e.g. the target is an existing *file*: a clear refusal, not a
        # NotADirectoryError traceback.
        raise QueueError(
            f"cannot create queue directory {directory!r}: {error}"
        ) from error
    stale = [name for name in os.listdir(queue_dir) if name.endswith(".json")]
    if stale:
        raise QueueError(
            f"queue directory {directory!r} already holds {len(stale)} pending "
            "cell(s); run workers + merge (or delete the queue/ subdirectory) "
            "before enqueueing again"
        )
    with open(spec_path(directory), "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    if profile_dir:
        os.makedirs(profile_dir, exist_ok=True)
    reused = [reusable_record(completed, cell) for cell in cells]
    resumed_path = os.path.join(journal_dir(directory), f"{_RESUMED_JOURNAL}.jsonl")
    if os.path.exists(resumed_path):
        os.unlink(resumed_path)  # an earlier enqueue's reuse, now in results.json
    if any(reused):
        with CellJournal(resumed_path) as journal:
            for record in filter(None, reused):
                journal.append(record)
    enqueued = 0
    for cell, record in zip(cells, reused):
        if record is not None:
            continue
        payload = cell.payload()
        if telemetry:
            payload["telemetry"] = True
        if profile_dir:
            payload["profile_dir"] = profile_dir
        cell_file = os.path.join(queue_dir, f"cell-{cell.index:04d}.json")
        tmp_file = f"{cell_file}.tmp"
        with open(tmp_file, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        # Payloads appear atomically: a worker scanning mid-enqueue never
        # sees (or claims) a half-written cell.
        os.replace(tmp_file, cell_file)
        enqueued += 1
    telemetry_session = get_telemetry()
    if telemetry_session.enabled:
        telemetry_session.event(
            "queue.enqueued", directory=directory, cells=enqueued, campaign=spec.name
        )
    return enqueued


@dataclass
class Lease:
    """The contents of one lease file."""

    token: str
    pid: int
    host: str
    claimed_at: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "token": self.token,
                "pid": self.pid,
                "host": self.host,
                "claimed_at": round(self.claimed_at, 3),
            },
            sort_keys=True,
        )


def _lease_age(lease_path: str) -> Optional[float]:
    """Seconds since the lease's last heartbeat (mtime); None if gone.

    *Now* comes from the injectable lease clock, not ``time.time()``
    directly: the clock is the seam chaos schedules skew, and the single
    place a monotonic-ish source could be swapped in.  Callers must compare
    the age against ``lease_ttl + skew_tolerance`` — never the bare TTL —
    because the mtime was stamped by another host's clock.
    """
    try:
        return max(0.0, get_clock().now() - os.stat(lease_path).st_mtime)
    except OSError:
        return None


def _steal_lease(lease_path: str, token: str) -> bool:
    """Atomically retire an expired lease; True if *this* caller retired it.

    ``os.rename`` to a unique graveyard name is the arbiter: of all the
    workers that saw the lease expire, exactly one rename succeeds, and a
    fresh lease (re-created in the meantime by the winner of a previous
    steal) is never deleted by a slow loser — its path simply no longer
    matches.
    """
    fault_point("queue.lease.steal")
    grave = f"{lease_path}.stale-{token}"
    try:
        os.rename(lease_path, grave)
    except OSError:
        return False
    try:
        os.unlink(grave)
    except OSError:
        pass
    return True


def claim_cell(
    directory: Union[str, os.PathLike],
    token: str,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Claim one pending cell; returns ``(cell_name, payload)`` or ``None``.

    Scans the queue in index order, skipping live leases; a lease whose
    heartbeat age exceeds ``lease_ttl + skew_tolerance`` is stolen (see
    :func:`_steal_lease`) and the cell re-claimed.  ``None`` means nothing
    is claimable right now — the queue is drained or every remaining cell
    is leased to a live worker.
    """
    directory = os.fspath(directory)
    queue_dir = _queue_dir(directory)
    lease_dir = _lease_dir(directory)
    try:
        pending = sorted(name for name in os.listdir(queue_dir) if name.endswith(".json"))
    except OSError as error:
        raise QueueError(
            f"{directory!r} is not a campaign queue directory ({error})"
        ) from error
    for name in pending:
        cell_name = name[: -len(".json")]
        cell_file = os.path.join(queue_dir, name)
        lease_path = os.path.join(lease_dir, f"{cell_name}.lease")
        age = _lease_age(lease_path)
        if age is not None:
            if age <= lease_ttl + skew_tolerance:
                continue  # live worker owns it (or our clock merely skews)
            if not _steal_lease(lease_path, token):
                continue  # someone else won the steal; move on
        fault_point("queue.lease.claim")
        try:
            fd = os.open(lease_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except OSError as error:
            if error.errno == errno.EEXIST:
                continue  # lost the claim race
            if error.errno in (errno.ENOENT, errno.ENOTDIR):
                raise QueueError(
                    f"{directory!r} is not a campaign queue directory "
                    f"(missing its leases/ subdirectory: {error})"
                ) from error
            raise
        lease = Lease(
            token=token, pid=os.getpid(), host=socket.gethostname(), claimed_at=time.time()
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # A torn/failed stamp is harmless — the mtime is the heartbeat
            # and the contents are diagnostic only — but it must not abort
            # the claim we already won.
            try:
                fault_write("queue.lease.write", handle, lease.to_json() + "\n")
            except OSError:
                pass
        try:
            with open(cell_file, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            # The cell finished (and was dequeued) between our scan and the
            # claim, or the payload is unreadable: drop the lease and move on.
            try:
                os.unlink(lease_path)
            except OSError:
                pass
            continue
        return cell_name, payload
    return None


def complete_cell(directory: Union[str, os.PathLike], cell_name: str) -> None:
    """Dequeue a finished cell: remove its payload file, then its lease.

    Called only after the record is durably journaled — this ordering is
    what guarantees at-least-once execution (a death in between re-runs the
    cell; the merge deduplicates).
    """
    directory = os.fspath(directory)
    fault_point("queue.dequeue")
    for path in (
        os.path.join(_queue_dir(directory), f"{cell_name}.json"),
        os.path.join(_lease_dir(directory), f"{cell_name}.lease"),
    ):
        try:
            os.unlink(path)
        except OSError:
            pass


def release_lease(directory: Union[str, os.PathLike], cell_name: str) -> None:
    """Give a claimed cell back (payload kept): drop only its lease.

    The clean way out when a worker cannot finish a cell — the next claimer
    takes it immediately instead of waiting out the TTL.
    """
    try:
        os.unlink(os.path.join(_lease_dir(os.fspath(directory)), f"{cell_name}.lease"))
    except OSError:
        pass


class _LeaseHeartbeat:
    """Refreshes a lease's mtime on a background thread while its cell runs.

    Without heartbeats a lease's only stamp is the claim time, so the TTL
    must exceed the *longest* cell; with them the TTL only has to cover a
    few missed beats.  A failed beat is retried at the next interval (the
    lease may also have been stolen meanwhile — beating a missing file is
    a no-op failure, and the dedup merge absorbs the double-run).
    """

    def __init__(self, lease_path: str, interval: float) -> None:
        self._lease_path = lease_path
        self._interval = max(0.05, interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True
        )

    def start(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                fault_point("queue.lease.heartbeat")
                os.utime(self._lease_path, None)
            except OSError:
                continue

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _worker_error_record(
    payload: Dict[str, Any], kind: str, message: str, elapsed_seconds: float
) -> Dict[str, Any]:
    """A typed error record for infrastructure failures around a cell.

    Mirrors the shape :func:`~repro.campaign.executor.run_cell` gives error
    records so merge / tables / diff treat it like any other failed cell;
    ``error_kind`` distinguishes worker-level trouble (timeout, crash,
    journal exhaustion) from the cell's own exception.  ``elapsed_seconds``
    is the time the cell held its worker, so a timed-out cell still counts
    toward the run's time.
    """
    return {
        "index": payload.get("index"),
        "cell_id": payload.get("cell_id"),
        "workload": payload.get("workload"),
        "allocator": payload.get("allocator"),
        "cost": payload.get("cost"),
        "device": payload.get("device"),
        "seed": payload.get("seed"),
        "observers": payload.get("observers", []),
        "record_version": RECORD_VERSION,
        "status": "error",
        "error_kind": kind,
        "error": message,
        "elapsed_seconds": elapsed_seconds,
    }


def _timeout_cell_entry(payload: Dict[str, Any], connection) -> None:
    """Child entry for per-cell timeouts: run the cell, pipe the record and
    the ``time.monotonic()`` it finished at (system-wide on Linux)."""
    started = time.perf_counter()
    try:
        record = run_cell(payload)
    except BaseException:  # run_cell never raises; belt and braces
        record = _worker_error_record(
            payload,
            "worker_error",
            _traceback.format_exc(limit=20),
            time.perf_counter() - started,
        )
    try:
        connection.send((record, time.monotonic()))
    finally:
        connection.close()


def _run_cell_with_timeout(payload: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run one cell in a child process, bounded by ``timeout`` seconds.

    A cell that overruns is terminated and becomes a typed
    ``worker_timeout`` error record; a child that dies outright (a crash
    fault, a segfault) becomes ``worker_crash``.  Either way the worker
    survives and moves on.
    """
    receiver, sender = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(target=_timeout_cell_entry, args=(payload, sender))
    started = time.monotonic()
    process.start()
    sender.close()
    record = None
    try:
        # poll() also wakes on EOF when the child dies without sending.
        if receiver.poll(timeout):
            record, finished = receiver.recv()
    except (EOFError, OSError):
        record = None
    if record is None:
        overran = process.is_alive()
        if overran:
            process.terminate()
    else:
        # Judged by the child's finish stamp, not by what the pipe holds:
        # a parent descheduled past the deadline finds a late record there.
        overran = finished - started > timeout
    process.join()
    receiver.close()
    elapsed = (time.monotonic() if record is None else finished) - started
    if overran:
        return _worker_error_record(
            payload, "worker_timeout", f"cell exceeded the {timeout}s cell timeout", elapsed
        )
    if record is None:
        return _worker_error_record(
            payload, "worker_crash", f"cell process died (exit code {process.exitcode})", elapsed
        )
    return record


def work_queue(
    directory: Union[str, os.PathLike],
    token: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_cells: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
) -> int:
    """Drain cells from a queue directory until none are claimable.

    The worker claims a cell (atomic lease), heartbeats the lease on a
    background thread while the cell runs through
    :func:`~repro.campaign.executor.run_cell` (fault-isolated: a crashing
    cell becomes an error record, not a dead worker), journals the record
    (fsync'd JSONL), dequeues the cell, and repeats.

    Transient ``OSError``\\ s around claim / journal / dequeue are retried
    under ``retry`` (bounded exponential backoff with jitter).  A journal
    append that exhausts its retries releases the cell's lease — the cell
    re-runs elsewhere — and after
    :data:`MAX_CONSECUTIVE_WORKER_ERRORS` such failures the worker stops
    instead of poisoning the queue.  ``cell_timeout`` runs each cell in a
    child process and turns overruns (and child deaths) into typed
    ``worker_timeout`` / ``worker_crash`` error records.  ``max_cells``
    bounds the number of cells this worker takes (tests and load shaping);
    the return value is the number of cells executed.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(_queue_dir(directory)):
        raise QueueError(
            f"{directory!r} is not a campaign queue directory "
            "(run 'repro sweep enqueue <spec> <dir>' first)"
        )
    try:
        # Recreate satellite subdirectories a partial enqueue (or an
        # overeager cleanup) may have dropped; claiming needs them.
        os.makedirs(_lease_dir(directory), exist_ok=True)
        os.makedirs(journal_dir(directory), exist_ok=True)
    except OSError as error:
        raise QueueError(
            f"{directory!r} is not a usable campaign queue directory ({error})"
        ) from error
    token = token or worker_token()
    retry = retry or RetryPolicy()
    heartbeat_interval = max(0.5, min(60.0, lease_ttl / 4.0))
    session = get_telemetry()
    executed = 0
    consecutive_errors = 0
    with CellJournal(os.path.join(journal_dir(directory), f"{token}.jsonl")) as journal:
        with session.span("queue.work", directory=directory, worker=token):
            counter = session.counter("queue.cells_executed") if session.enabled else None
            while max_cells is None or executed < max_cells:
                try:
                    claimed = retry.call(
                        claim_cell,
                        directory,
                        token,
                        lease_ttl=lease_ttl,
                        skew_tolerance=skew_tolerance,
                    )
                except OSError as error:
                    # Claiming itself is broken (disk gone?): stop cleanly
                    # with everything already journaled intact.
                    if session.enabled:
                        session.event(
                            "queue.worker_error",
                            worker=token,
                            stage="claim",
                            error=str(error),
                        )
                    break
                if claimed is None:
                    break
                cell_name, payload = claimed
                lease_path = os.path.join(_lease_dir(directory), f"{cell_name}.lease")
                heartbeat = _LeaseHeartbeat(lease_path, heartbeat_interval).start()
                try:
                    with session.span("queue.cell", cell=payload.get("cell_id", cell_name)):
                        if cell_timeout is not None:
                            record = _run_cell_with_timeout(payload, cell_timeout)
                        else:
                            record = run_cell(payload)
                finally:
                    heartbeat.stop()
                record["worker"] = token
                try:
                    retry.call(journal.append, record)
                except OSError as error:
                    # The record could not be made durable: give the cell
                    # back (it re-runs; merge dedups if our line half-made
                    # it) and count the strike.
                    release_lease(directory, cell_name)
                    consecutive_errors += 1
                    if session.enabled:
                        session.event(
                            "queue.worker_error",
                            worker=token,
                            stage="journal",
                            cell=payload.get("cell_id", cell_name),
                            error=str(error),
                        )
                    if consecutive_errors >= MAX_CONSECUTIVE_WORKER_ERRORS:
                        break
                    continue
                consecutive_errors = 0
                try:
                    retry.call(complete_cell, directory, cell_name)
                except OSError:
                    # The record is durably journaled; a merge drops the
                    # stale payload once it sees the ok record.
                    pass
                executed += 1
                if counter is not None:
                    counter.value += 1
                if progress is not None:
                    progress(executed, executed, record)
    session.flush()
    return executed


def _rank(record: Dict[str, Any], cell: Optional[CampaignCell], journaled: bool) -> Tuple[bool, ...]:
    """How strongly the merge prefers ``record`` for its cell, highest
    first: a record :func:`~repro.campaign.executor.reusable_record` accepts
    for the current spec; then a journaled record (this queue's own run)
    over the previous ``results.json``; then ok over error."""
    reusable = cell is not None and reusable_record({cell.cell_id: record}, cell) is not None
    return (reusable, journaled, record.get("status") == "ok")


@dataclass
class MergeResult:
    """What one merge pass produced."""

    document: Dict[str, Any]
    paths: Dict[str, str]
    result: CampaignResult
    records: int = 0
    from_journals: int = 0
    from_previous: int = 0
    pending: List[str] = field(default_factory=list)
    reclaimed_leases: int = 0
    skipped_lines: int = 0
    workers: List[str] = field(default_factory=list)


def _journal_paths(directory: str) -> List[str]:
    journals = journal_dir(directory)
    names = sorted(os.listdir(journals)) if os.path.isdir(journals) else []
    return [os.path.join(journals, name) for name in names if name.endswith(".jsonl")]


def merge_queue(
    directory: Union[str, os.PathLike],
    lease_ttl: float = DEFAULT_LEASE_TTL,
    skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
    jobs: Optional[int] = None,
    elapsed_seconds: Optional[float] = None,
) -> MergeResult:
    """Fold worker journals (and any previous artifact) into ``results.json``.

    * Journal records and the records of an existing merged ``results.json``
      are deduplicated by ``cell_id`` (see :func:`_rank`; a tie goes to the
      record read last), re-indexed against the spec, and written atomically
      through :func:`~repro.campaign.artifacts.write_results`.
    * Leases whose heartbeat exceeded ``lease_ttl`` are reclaimed (their
      workers are dead), so the cells they held become claimable again.
    * Cells still queued without a reusable record are reported as
      ``pending`` and the document is stamped ``"interrupted": true`` so
      resume flows treat the artifact as incomplete.
    * ``jobs`` defaults to the worker journal count (``resumed.jsonl`` is
      none), ``elapsed_seconds`` to the sum of the cell times.
    """
    directory = os.fspath(directory)
    spec = load_queue_spec(directory)
    session = get_telemetry()
    cells = spec.expand()
    cell_by_id = {cell.cell_id: cell for cell in cells}
    chosen: Dict[str, Tuple[Tuple[bool, ...], Dict[str, Any]]] = {}

    def offer(record: Dict[str, Any], journaled: bool) -> None:
        rank = _rank(record, cell_by_id.get(record["cell_id"]), journaled)
        held = chosen.get(record["cell_id"])
        if held is None or rank >= held[0]:
            chosen[record["cell_id"]] = (rank, record)

    from_previous = 0
    previous_path = results_path(directory)
    if os.path.exists(previous_path):
        for record in load_results(previous_path).get("records", []):
            offer(record, journaled=False)
            from_previous += 1

    from_journals = 0
    skipped_lines = 0
    workers: List[str] = []
    for path in _journal_paths(directory):
        name = os.path.basename(path)[: -len(".jsonl")]
        if name != _RESUMED_JOURNAL:
            workers.append(name)
        records, skipped = read_journal(path)
        skipped_lines += skipped
        for record in records:
            offer(record, journaled=True)
            from_journals += 1

    # Reclaim expired leases so dead workers' cells are re-queued, and drop
    # leases/payloads for cells that already completed (a worker died in the
    # journal-then-dequeue window).
    reclaimed = 0
    lease_dir = _lease_dir(directory)
    queue_dir = _queue_dir(directory)
    queued = sorted(os.listdir(queue_dir)) if os.path.isdir(queue_dir) else []
    done_ids = {cell_id for cell_id, (rank, _record) in chosen.items() if rank[0]}
    pending: List[str] = []
    name_by_index = {f"cell-{cell.index:04d}": cell for cell in cells}
    for cell_name in (name[: -len(".json")] for name in queued if name.endswith(".json")):
        cell = name_by_index.get(cell_name)
        if cell is not None and cell.cell_id in done_ids:
            complete_cell(directory, cell_name)
            continue
        lease_path = os.path.join(lease_dir, f"{cell_name}.lease")
        age = _lease_age(lease_path)
        if age is not None and age > lease_ttl + skew_tolerance:
            if _steal_lease(lease_path, "merge"):
                reclaimed += 1
        pending.append(cell.cell_id if cell is not None else cell_name)

    # Order the merged records by the spec's cell indices; records for cells
    # no longer in the spec (a narrowed re-enqueue) are dropped.
    records: List[Dict[str, Any]] = []
    for cell in cells:
        held = chosen.get(cell.cell_id)
        if held is not None:
            record = dict(held[1])
            record["index"] = cell.index
            records.append(record)

    if elapsed_seconds is None:
        elapsed_seconds = sum(float(r.get("elapsed_seconds", 0.0)) for r in records)
    result = CampaignResult(
        spec=spec,
        records=records,
        jobs=jobs if jobs is not None else max(1, len(workers)),
        elapsed_seconds=elapsed_seconds,
        metadata={
            "resumed": sum(1 for record in records if record.get("resumed")),
            "interrupted": bool(pending),
        },
    )
    paths = write_results(result, directory)
    if session.enabled:
        session.event(
            "queue.merged",
            directory=directory,
            records=len(records),
            pending=len(pending),
            reclaimed=reclaimed,
            workers=len(workers),
        )
        session.flush()
    document = campaign_to_dict(result)
    return MergeResult(
        document=document,
        paths=paths,
        result=result,
        records=len(records),
        from_journals=from_journals,
        from_previous=from_previous,
        pending=pending,
        reclaimed_leases=reclaimed,
        skipped_lines=skipped_lines,
        workers=workers,
    )


def _emit_cell_telemetry(telemetry: Telemetry, record: Dict[str, Any]) -> None:
    """Re-emit one finished cell's telemetry into the campaign-level sink.

    Cells buffer their events in memory (worker processes cannot share the
    parent's JSONL file handle); as each record arrives the sweep stamps
    the events with the cell id and forwards them, which is what lets
    ``repro obs report`` render per-cell span trees from one log.  Cell
    counter values are per-cell totals, i.e. deltas of the whole log, so
    the report's per-name summation stays correct.
    """
    if not telemetry.enabled:
        return
    cell_id = str(record.get("cell_id", "?"))
    telemetry.event(
        "cell.done",
        cell=cell_id,
        status=record.get("status"),
        elapsed_seconds=record.get("elapsed_seconds"),
        resumed=bool(record.get("resumed")),
    )
    resources = record.get("resources")
    if isinstance(resources, dict):
        telemetry.emit("resources", "cell", cell=cell_id, fields=resources)
    cell_data = record.get("telemetry")
    if not isinstance(cell_data, dict):
        return
    for span in cell_data.get("spans", []):
        event = dict(span)
        event["cell"] = cell_id
        telemetry.ingest(event)
    now = round(telemetry.now(), 6)
    for name, value in cell_data.get("counters", {}).items():
        if value:
            telemetry.ingest({"ev": "counter", "name": name, "t": now, "value": value, "cell": cell_id})
    for name, value in cell_data.get("gauges", {}).items():
        telemetry.ingest({"ev": "gauge", "name": name, "t": now, "value": value, "cell": cell_id})


def _take_back_queue(directory: str, spec: CampaignSpec, lease_ttl: float) -> None:
    """Drop the pending payloads an interrupted run of the same campaign
    (name and seed) left in ``directory``, unless a live lease shows a worker
    still draining them; :func:`enqueue_campaign` refuses any left over."""
    queue_dir, lease_dir = _queue_dir(directory), _lease_dir(directory)
    if not os.path.isdir(queue_dir) or not os.path.exists(spec_path(directory)):
        return
    queued = load_queue_spec(directory)
    if (queued.name, queued.seed) != (spec.name, spec.seed):
        return
    for name in os.listdir(lease_dir) if os.path.isdir(lease_dir) else ():
        age = _lease_age(os.path.join(lease_dir, name))
        if age is not None and age <= lease_ttl + DEFAULT_SKEW_TOLERANCE:
            return
    for name in os.listdir(queue_dir):
        if name.endswith(".json"):
            os.unlink(os.path.join(queue_dir, name))


def _release_leases(directory: str, token: str) -> None:
    """Drop the leases stamped with ``token`` (every token of one sweep
    starts with it): the cells it was running are claimable at once."""
    lease_dir = _lease_dir(directory)
    for name in os.listdir(lease_dir):
        try:
            with open(os.path.join(lease_dir, name), "r", encoding="utf-8") as handle:
                owned = token in handle.read()
        except OSError:
            continue  # gone meanwhile; a torn stamp expires on its own
        if owned and name.endswith(".lease"):
            release_lease(directory, name[: -len(".lease")])


def _sweep_worker(
    directory: str, token: str, lease_ttl: float, cell_timeout: Optional[float], channel: Any
) -> None:
    """One :func:`run_campaign` worker process: drain the queue, sending
    each finished record to the parent over ``channel``."""
    os.environ[SWEEP_WORKER_ENV] = "1"  # this worker's replay cells stay serial
    reset_telemetry()  # the parent re-emits each record's telemetry
    try:
        work_queue(
            directory,
            token=token,
            lease_ttl=lease_ttl,
            progress=lambda _done, _total, record: channel.put(record),
            cell_timeout=cell_timeout,
        )
    except KeyboardInterrupt:
        pass  # Ctrl-C reaches every worker; the parent reports it


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    completed: Optional[Dict[str, Dict[str, Any]]] = None,
    telemetry: bool = False,
    profile_dir: Optional[str] = None,
    directory: Optional[Union[str, os.PathLike]] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    cell_timeout: Optional[float] = None,
) -> CampaignResult:
    """Run every cell of ``spec``: enqueue into ``directory`` (a temporary
    one when ``None``), drain — in this process when ``jobs == 1``, else
    over ``jobs`` worker processes (``jobs <= 0``: one per CPU) — and merge.

    Cells :func:`~repro.campaign.executor.reusable_record` accepts from
    ``completed`` (``cell_id`` -> earlier record) or, when resuming, from
    the journals of a hard-killed run in ``directory`` are reused; until
    the merge the artifact holds them, stamped ``"interrupted"``.  Each
    freshly run record reaches ``progress`` and (under ``telemetry``) the
    session's sink in this process.  A ``KeyboardInterrupt`` releases the
    sweep's leases and merges what finished, stamped ``"interrupted"``.
    """
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
            return run_campaign(
                spec, jobs, progress, completed, telemetry, profile_dir, scratch, lease_ttl,
                cell_timeout,
            )
    directory = os.fspath(directory)
    session = get_telemetry()
    telemetry = bool(telemetry) or session.enabled
    cells = spec.expand()
    _take_back_queue(directory, spec, lease_ttl)
    # A previous run's journals are folded into this resume, or belong to
    # the sweep this one replaces; they go once the enqueue has succeeded.
    stale_journals = _journal_paths(directory)
    cell_by_id = {cell.cell_id: cell for cell in cells}
    for path in stale_journals if completed is not None else ():
        for record in read_journal(path)[0]:
            cell = cell_by_id.get(record["cell_id"])
            if (
                cell is not None
                and reusable_record(completed, cell) is None
                and reusable_record({cell.cell_id: record}, cell) is not None
            ):
                completed = dict(completed, **{cell.cell_id: record})
    enqueued = enqueue_campaign(
        spec, directory, completed=completed, telemetry=telemetry, profile_dir=profile_dir
    )
    for path in stale_journals:
        if os.path.basename(path) != f"{_RESUMED_JOURNAL}.jsonl":  # enqueue rewrote it
            os.unlink(path)
    jobs = min(jobs if jobs > 0 else os.cpu_count() or 1, max(1, enqueued))
    reused = [record for record in (reusable_record(completed, cell) for cell in cells) if record]
    write_results(
        CampaignResult(spec, reused, jobs, 0.0, {"resumed": len(reused), "interrupted": True}),
        directory,
    )

    token = worker_token()
    done = itertools.count(1)

    def report(record: Dict[str, Any]) -> None:
        _emit_cell_telemetry(session, record)
        if progress is not None:
            progress(next(done), enqueued, record)

    started = time.perf_counter()
    with session.span("sweep.run", campaign=spec.name, cells=len(cells), jobs=jobs):
        try:
            if jobs == 1:
                work_queue(
                    directory,
                    token=token,
                    lease_ttl=lease_ttl,
                    progress=lambda _done, _total, record: report(record),
                    cell_timeout=cell_timeout,
                )
            else:
                channel = multiprocessing.Queue()
                processes = [
                    multiprocessing.Process(
                        target=_sweep_worker,
                        args=(directory, f"{token}-w{rank}", lease_ttl, cell_timeout, channel),
                    )
                    for rank in range(jobs)
                ]
                try:
                    for process in processes:
                        process.start()
                    while any(p.is_alive() for p in processes) or not channel.empty():
                        try:
                            report(channel.get(timeout=0.01))
                        except stdlib_queue.Empty:
                            pass
                finally:  # on Ctrl-C, stop the rest; each loses one cell at most
                    for process in processes:
                        if process.is_alive():  # also reaps the exited ones
                            process.terminate()
                            process.join()
        except KeyboardInterrupt:
            pass  # every finished cell is journaled; the merge saves them
    elapsed = time.perf_counter() - started
    _release_leases(directory, token)
    merged = merge_queue(directory, lease_ttl=lease_ttl, jobs=jobs, elapsed_seconds=elapsed)
    # results.json now holds this run's journals; drop them so a later
    # resume folds one copy, not two.
    for path in _journal_paths(directory):
        if os.path.basename(path).startswith((token, _RESUMED_JOURNAL)):
            os.unlink(path)
    result = merged.result
    result.metadata.update(ok=len(result.ok_records), errors=len(result.error_records))
    return result
