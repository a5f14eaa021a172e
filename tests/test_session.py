"""Tests for the incremental session core (:mod:`repro.engine.session`).

The refactor contract: ``SimulationEngine.run`` over one session must be
byte-identical to the old monolithic run (the whole existing suite pins
that); these tests pin what is *new* — the incremental lifecycle, live
stats/analytics, snapshot/restore, the ``requests_per_second`` finiteness
fix, and the ``CheckpointManager`` state round-trip the snapshots ride on.
"""

import json
import os
import pickle

import pytest

from repro.allocators import FirstFitAllocator
from repro.engine import (
    EngineSession,
    FootprintSeriesObserver,
    SessionStateError,
    SimulationEngine,
    TraceRecorderObserver,
)
from repro.engine.engine import EngineRun
from repro.metrics import run_trace
from repro.metrics.collector import ExecutionMetrics
from repro.obs import MemorySink, Telemetry, use_telemetry
from repro.storage.checkpoint import (
    CheckpointManager,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)
from repro.storage.extent import Extent
from repro.workloads import Request, UniformSizes, churn_trace, load_trace


def batches(trace, size):
    requests = list(trace)
    return [requests[i : i + size] for i in range(0, len(requests), size)]


def layout(allocator):
    return sorted(
        (name, extent.start, extent.length)
        for name, extent in allocator.space.snapshot().items()
    )


# ----------------------------------------------------------------- lifecycle
def test_incremental_session_matches_one_shot_run():
    trace = churn_trace(600, UniformSizes(1, 32), target_live=60, seed=5)
    one_shot = SimulationEngine(FirstFitAllocator()).run(trace)

    session = EngineSession(FirstFitAllocator()).open()
    applied = sum(session.apply(batch) for batch in batches(trace, 64))
    run = session.close()
    assert applied == len(list(trace)) == run.requests
    assert run.allocator.footprint == one_shot.allocator.footprint
    assert run.allocator.volume == one_shot.allocator.volume
    assert run.allocator.stats.max_footprint == one_shot.allocator.stats.max_footprint
    assert layout(run.allocator) == layout(one_shot.allocator)


def test_lifecycle_misuse_is_loud():
    session = EngineSession(FirstFitAllocator())
    with pytest.raises(SessionStateError, match="not open"):
        session.apply([Request.insert("a", 1)])
    session.open()
    with pytest.raises(SessionStateError, match="already open"):
        session.open()
    session.close()
    with pytest.raises(SessionStateError, match="already closed"):
        session.apply([Request.insert("a", 1)])
    with pytest.raises(SessionStateError, match="already closed"):
        session.close()


def test_live_stats_and_analytics_do_not_finish_the_session():
    observer = FootprintSeriesObserver(every=10)
    session = EngineSession(FirstFitAllocator(), [observer]).open()
    session.apply(list(churn_trace(200, UniformSizes(1, 16), target_live=20, seed=1)))
    stats = session.stats()
    assert stats["requests"] == 200
    assert stats["footprint"] == session.allocator.footprint
    assert stats["requests_per_second"] >= 0.0
    json.dumps(stats, allow_nan=False)  # live stats are always JSON-safe
    analytics = session.analytics()
    assert observer.export_key in analytics
    assert session.opened  # still live
    run = session.close()
    assert run.requests == 200


def test_mid_batch_failure_keeps_the_session_alive():
    session = EngineSession(FirstFitAllocator()).open()
    bad = [
        Request.insert("a", 4),
        Request.insert("a", 4),  # duplicate name raises
        Request.insert("b", 4),
    ]
    with pytest.raises(Exception):
        session.apply(bad)
    # The failing request rolled back; the prefix stuck; the session lives.
    assert session.requests_applied == 1
    assert session.apply([Request.insert("b", 4)]) == 1
    run = session.close()
    assert run.requests == 2


def test_abort_is_idempotent_and_detaches_observers():
    observer = FootprintSeriesObserver(every=1)
    allocator = FirstFitAllocator()
    session = EngineSession(allocator, [observer]).open()
    assert allocator._observers  # active observer attached
    error = RuntimeError("boom")
    session.abort(error)
    session.abort(error)  # idempotent
    assert not allocator._observers
    with pytest.raises(SessionStateError):
        session.close()


def test_context_manager_closes_on_success_and_aborts_on_error():
    with EngineSession(FirstFitAllocator()) as session:
        session.apply([Request.insert("a", 4)])
    assert not session.opened

    allocator = FirstFitAllocator()
    with pytest.raises(RuntimeError, match="boom"):
        with EngineSession(allocator) as session:
            raise RuntimeError("boom")
    assert not session.opened


def test_session_spans_match_the_engine_spans():
    trace = churn_trace(50, UniformSizes(1, 8), target_live=10, seed=2)
    sink_engine, sink_session = MemorySink(), MemorySink()
    with use_telemetry(Telemetry(sink=sink_engine, enabled=True)):
        SimulationEngine(FirstFitAllocator()).run(trace)
    with use_telemetry(Telemetry(sink=sink_session, enabled=True)):
        session = EngineSession(FirstFitAllocator()).open()
        session.apply(list(trace))
        session.close()

    def span_names(sink):
        return [e.get("name") for e in sink.events if e.get("type") == "span"]

    assert span_names(sink_engine) == span_names(sink_session)


# ------------------------------------------------------- snapshot / restore
def test_snapshot_restore_round_trip_continues_the_session(tmp_path):
    trace = list(churn_trace(400, UniformSizes(1, 32), target_live=40, seed=9))
    session = EngineSession(FirstFitAllocator(), label="live").open()
    session.apply(trace[:250])
    described = session.snapshot(tmp_path / "live.snap")
    assert described["requests_applied"] == 250

    restored = EngineSession.restore(tmp_path / "live.snap")
    assert restored.label == "live"
    assert restored.requests_applied == 250
    restored.apply(trace[250:])
    run = restored.close()
    assert run.requests == 400

    # Converges to the same state as the uninterrupted session.
    baseline = EngineSession(FirstFitAllocator()).open()
    baseline.apply(trace)
    base_run = baseline.close()
    assert run.allocator.footprint == base_run.allocator.footprint
    assert layout(run.allocator) == layout(base_run.allocator)


def test_snapshot_skips_unsnapshotable_observers(tmp_path):
    recorder = TraceRecorderObserver(tmp_path / "rec.v3", version=3)
    series = FootprintSeriesObserver(every=5)
    session = EngineSession(FirstFitAllocator(), [recorder, series]).open()
    session.apply([Request.insert("a", 4), Request.delete("a")])
    described = session.snapshot(tmp_path / "s.snap")
    assert described["observers"] == 1  # the recorder holds an open file
    restored = EngineSession.restore(tmp_path / "s.snap")
    assert [type(obs).__name__ for obs in restored.observers] == [
        "FootprintSeriesObserver"
    ]
    session.close()
    assert load_trace(tmp_path / "rec.v3").requests  # recorder still worked


def test_restore_rejects_foreign_payloads(tmp_path):
    write_snapshot(tmp_path / "x.snap", {"format": "something-else"})
    with pytest.raises(ValueError, match="not a session snapshot"):
        EngineSession.restore(tmp_path / "x.snap")


def test_snapshot_reader_rejects_corruption(tmp_path):
    write_snapshot(tmp_path / "ok.snap", {"format": "f", "n": 1})
    assert read_snapshot(tmp_path / "ok.snap")["n"] == 1
    data = (tmp_path / "ok.snap").read_bytes()
    (tmp_path / "bad-magic.snap").write_bytes(b"XXXXXXXX" + data[8:])
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(tmp_path / "bad-magic.snap")
    (tmp_path / "torn.snap").write_bytes(data[: len(data) - 3])
    with pytest.raises(SnapshotError):
        read_snapshot(tmp_path / "torn.snap")


# ------------------------------------------------- requests_per_second fix
def test_engine_run_rps_is_zero_not_inf_on_instant_runs():
    run = EngineRun(
        allocator=FirstFitAllocator(),
        trace="t",
        requests=10,
        elapsed_seconds=0.0,
        observers=[],
    )
    assert run.requests_per_second == 0.0
    json.dumps(run.requests_per_second, allow_nan=False)


def test_execution_metrics_rps_is_zero_not_inf_on_instant_runs():
    metrics = ExecutionMetrics(
        allocator="first_fit",
        trace="t",
        requests=10,
        elapsed_seconds=0.0,
        final_volume=0,
        final_footprint=0,
        max_footprint=0,
        max_footprint_ratio=1.0,
        mean_footprint_ratio=1.0,
        total_moves=0,
        total_moved_volume=0,
        moves_per_insert=0.0,
        max_request_moved_volume=0,
        max_request_checkpoints=0,
        total_checkpoints=0,
        flushes=0,
    )
    assert metrics.requests_per_second == 0.0
    json.dumps(metrics.requests_per_second, allow_nan=False)
    # And the real path stays finite even when the clock resolution
    # swallows the elapsed time entirely.
    result = run_trace(FirstFitAllocator(), [Request.insert("a", 1)])
    assert result.requests_per_second >= 0.0


def test_session_stats_rps_is_json_safe_with_zero_elapsed():
    session = EngineSession(FirstFitAllocator()).open()
    session.apply([Request.insert("a", 1)])
    session._elapsed = 0.0  # force the sub-resolution branch
    stats = session.stats()
    assert stats["requests_per_second"] == 0.0
    session.close()


# ----------------------------------------- CheckpointManager state round-trip
def test_checkpoint_manager_state_round_trip():
    manager = CheckpointManager(enforce=True)
    manager.record_free(Extent(0, 4))
    manager.record_free(Extent(4, 4))  # adjacent: coalesces to one extent
    manager.checkpoint()
    manager.record_free(Extent(20, 6))
    state = manager.to_state()
    assert state == {
        "enforce": True,
        "frozen": [[20, 6]],
        "checkpoints_taken": 1,
        "violations": 0,
    }
    clone = CheckpointManager.from_state(state)
    assert clone.to_state() == state
    assert not clone.is_writable(Extent(22, 2))
    assert clone.is_writable(Extent(0, 8))  # thawed by the checkpoint


def test_checkpoint_manager_state_survives_pickle():
    manager = CheckpointManager(enforce=False)
    manager.record_free(Extent(10, 6))
    manager.assert_writable(Extent(12, 2))  # counted, not raised (enforce off)
    state = pickle.loads(pickle.dumps(manager.to_state()))
    clone = CheckpointManager.from_state(state)
    assert clone.violations == manager.violations == 1
    assert not clone.is_writable(Extent(10, 1))
    assert not clone.enforce
    json.dumps(state)  # the state dict is JSON-safe by construction


def test_checkpoint_recover_thaws_frozen_space_and_keeps_counters():
    manager = CheckpointManager(enforce=True)
    manager.record_free(Extent(0, 4))
    manager.checkpoint()
    manager.record_free(Extent(8, 8))
    assert not manager.is_writable(Extent(8, 1))
    manager.recover()
    assert manager.is_writable(Extent(8, 1))
    assert manager.to_state()["frozen"] == []
    assert manager.checkpoints_taken == 1


# ----------------------------------------- snapshots from before the run index
LEGACY_SNAPSHOT = os.path.join(
    os.path.dirname(__file__), "data", "deamortized-session-pre-index.snap"
)


def test_checkpoint_manager_unpickles_the_legacy_frozen_list():
    """A pickle of the older layout (one unsorted, uncoalesced ``_frozen``
    extent list) comes back as the coalesced run index."""
    legacy = CheckpointManager.__new__(CheckpointManager)
    legacy.__dict__.update(
        enforce=True,
        _frozen=[Extent(30, 5), Extent(0, 4), Extent(4, 4), Extent(32, 10)],
        checkpoints_taken=3,
        violations=1,
    )
    clone = pickle.loads(pickle.dumps(legacy))
    assert "_frozen" not in vars(clone)
    assert clone.frozen_extents() == [Extent(0, 8), Extent(30, 12)]
    assert clone.to_state() == {
        "enforce": True,
        "frozen": [[0, 8], [30, 12]],
        "checkpoints_taken": 3,
        "violations": 1,
    }
    assert not clone.is_writable(Extent(41, 1))
    assert clone.is_writable(Extent(8, 22))
    clone.record_free(Extent(8, 22))
    assert clone.frozen_extents() == [Extent(0, 42)]


def test_pre_index_deamortized_session_snapshot_restores_and_continues():
    """The fixture was written mid-flush by the code that kept frozen space
    as a plain extent list: ``DeamortizedReallocator(0.25)`` after the first
    270 requests of ``churn_trace(400, UniformSizes(1, 32), target_live=60,
    seed=5)``.  Restored and driven to the end of the trace, it must finish
    exactly as an uninterrupted session does."""
    from repro.core import DeamortizedReallocator

    trace = churn_trace(400, UniformSizes(1, 32), target_live=60, seed=5)
    restored = EngineSession.restore(LEGACY_SNAPSHOT)
    allocator = restored.allocator
    assert restored.requests_applied == 270
    assert allocator.flush_in_progress
    assert len(allocator.checkpoints.frozen_extents()) > 1
    # The fixture's audited space also carried an end-heap; it is dropped
    # on restore and the footprint is read from the address index.
    space = allocator.space
    assert space.validate and not hasattr(space, "_end_heap")
    assert space.footprint() == max(extent.end for _, extent in space.items())
    restored.apply(trace[270:])
    restored.close()

    fresh = EngineSession(DeamortizedReallocator(0.25)).open()
    fresh.apply(trace)
    fresh.close()
    assert sorted(allocator.space.items()) == sorted(fresh.allocator.space.items())
    assert allocator.checkpoints.to_state() == fresh.allocator.checkpoints.to_state()
    assert allocator.blocked_checkpoints == fresh.allocator.blocked_checkpoints
    assert vars(allocator.stats) == vars(fresh.allocator.stats)
