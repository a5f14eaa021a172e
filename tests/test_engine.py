"""Tests for the observer-based simulation engine.

Covers the observer protocol (which hooks fire, attach/detach), the
zero-observer fast path (no ``RequestRecord`` construction at all), the
fixed-seed equivalence of the observer-derived ``ExecutionMetrics`` with the
pre-refactor collector, the bounded footprint-series downsampling, and the
insert-rollback regression fix.
"""

import pytest

import repro.core.base as core_base
from repro.core import (
    Allocator,
    CheckpointedReallocator,
    CostObliviousReallocator,
)
from repro.core.base import AllocationError
from repro.costs import ConstantCost, LinearCost
from repro.engine import (
    DeviceObserver,
    EngineSession,
    FootprintSeriesObserver,
    HistoryObserver,
    Observer,
    build_observer,
    needs_events,
)
from repro.metrics import run_trace
from repro.storage.devices import MainMemoryDevice
from repro.workloads import UniformSizes, churn_trace


class RecordingObserver(Observer):
    """Counts every event it sees."""

    def __init__(self):
        self.attached = None
        self.finished = None
        self.requests = []
        self.moves = 0
        self.flushes = 0
        self.checkpoints = 0

    def on_attach(self, allocator):
        self.attached = allocator

    def on_request(self, record):
        self.requests.append(record)

    def on_move(self, move):
        self.moves += 1

    def on_flush(self, flush):
        self.flushes += 1

    def on_checkpoint(self, count):
        self.checkpoints += count

    def on_finish(self, allocator):
        self.finished = allocator


# ----------------------------------------------------------------- protocol
def test_observer_sees_every_event_kind():
    trace = churn_trace(600, UniformSizes(1, 32), target_live=60, seed=3)
    allocator = CheckpointedReallocator(epsilon=0.25)
    observer = RecordingObserver()
    run = EngineSession(allocator, [observer]).run(trace)
    assert observer.attached is allocator
    assert observer.finished is allocator
    assert len(observer.requests) == len(trace) == run.requests
    assert observer.moves >= allocator.stats.total_moves > 0
    assert observer.flushes == allocator.stats.flushes > 0
    assert observer.checkpoints == allocator.stats.checkpoints > 0
    assert run.requests_per_second > 0


def test_engine_detaches_observers_after_the_run():
    trace = churn_trace(100, seed=4, target_live=20)
    allocator = CostObliviousReallocator(epsilon=0.5)
    observer = RecordingObserver()
    EngineSession(allocator, [observer]).run(trace)
    seen = len(observer.requests)
    allocator.insert("late", 3)
    assert len(observer.requests) == seen  # detached: no more notifications


def test_attach_detach_observer_directly():
    allocator = CostObliviousReallocator(epsilon=0.5)
    observer = RecordingObserver()
    allocator.attach_observer(observer)
    allocator.insert("a", 4)
    allocator.detach_observer(observer)
    allocator.detach_observer(observer)  # second detach is a no-op
    allocator.insert("b", 4)
    assert [r.name for r in observer.requests] == ["a"]


def test_needs_events_distinguishes_passive_observers():
    class Passive(Observer):
        def on_finish(self, allocator):
            pass

    assert not needs_events(Passive())
    assert needs_events(RecordingObserver())
    assert needs_events(HistoryObserver())


# ---------------------------------------------------------------- fast path
def test_zero_observer_run_skips_record_construction(monkeypatch):
    built = []
    real = core_base.RequestRecord

    def counting(*args, **kwargs):
        record = real(*args, **kwargs)
        built.append(record)
        return record

    monkeypatch.setattr(core_base, "RequestRecord", counting)
    trace = churn_trace(200, seed=5, target_live=30)

    bare = CostObliviousReallocator(epsilon=0.5)
    bare.run(trace)
    assert built == []  # the whole replay built no records at all

    observed = CostObliviousReallocator(epsilon=0.5)
    observed.attach_observer(RecordingObserver())
    observed.run(trace)
    assert len(built) == len(trace)


def test_fast_path_keeps_stats_identical():
    trace = churn_trace(800, seed=6, target_live=80)
    bare = CostObliviousReallocator(epsilon=0.25)
    bare.run(trace)
    observed = CostObliviousReallocator(epsilon=0.25)
    observed.attach_observer(HistoryObserver())
    observed.run(trace)
    for field in (
        "requests",
        "inserts",
        "deletes",
        "flushes",
        "total_moves",
        "total_moved_volume",
        "max_footprint",
        "max_footprint_ratio",
        "max_request_moved_volume",
        "footprint_ratio_sum",
        "footprint_ratio_samples",
        "allocated_sizes",
        "moved_sizes",
    ):
        assert getattr(bare.stats, field) == getattr(observed.stats, field), field


def test_direct_insert_delete_still_return_full_records():
    allocator = CostObliviousReallocator(epsilon=0.5)
    record = allocator.insert("a", 7)
    assert record is not None and record.op == "insert" and record.size == 7
    assert record.footprint_after == allocator.footprint
    record = allocator.delete("a")
    assert record.op == "delete"


# -------------------------------------------------------------- equivalence
def _legacy_run_trace(allocator, trace, cost_functions=(), sample_every=0):
    """The pre-refactor collector, replicated verbatim from the seed
    (per-request record loop) as the equivalence oracle."""
    ratio_sum = 0.0
    ratio_count = 0
    footprint_series = []
    volume_series = []
    for index, request in enumerate(trace):
        if request.is_insert:
            record = allocator.insert(request.name, request.size)
        else:
            record = allocator.delete(request.name)
        if record.volume_after > 0:
            ratio_sum += record.footprint_after / record.volume_after
            ratio_count += 1
        if sample_every and index % sample_every == 0:
            footprint_series.append(record.footprint_after)
            volume_series.append(record.volume_after)
    if hasattr(allocator, "finish_pending_work"):
        allocator.finish_pending_work()
    stats = allocator.stats
    return {
        "final_volume": allocator.volume,
        "final_footprint": allocator.footprint,
        "max_footprint": stats.max_footprint,
        "max_footprint_ratio": stats.max_footprint_ratio,
        "mean_footprint_ratio": ratio_sum / ratio_count if ratio_count else 0.0,
        "total_moves": stats.total_moves,
        "total_moved_volume": stats.total_moved_volume,
        "moves_per_insert": stats.amortized_moves_per_insert,
        "max_request_moved_volume": stats.max_request_moved_volume,
        "max_request_checkpoints": stats.max_request_checkpoints,
        "total_checkpoints": stats.checkpoints,
        "flushes": stats.flushes,
        "cost_ratios": {f.name: stats.cost_ratio(f) for f in cost_functions},
        "footprint_series": footprint_series,
        "volume_series": volume_series,
    }


@pytest.mark.parametrize("cls", [CostObliviousReallocator, CheckpointedReallocator])
def test_observer_metrics_match_the_legacy_collector(cls):
    costs = (LinearCost(), ConstantCost())
    trace = churn_trace(1200, UniformSizes(1, 64), target_live=90, seed=77)

    legacy = _legacy_run_trace(cls(epsilon=0.25), trace, costs, sample_every=37)
    metrics = run_trace(cls(epsilon=0.25), trace, cost_functions=costs, sample_every=37)

    for key, expected in legacy.items():
        actual = getattr(metrics, key)
        if isinstance(expected, float):
            assert actual == pytest.approx(expected), key
        elif key == "cost_ratios":
            assert set(actual) == set(expected)
            for name in expected:
                assert actual[name] == pytest.approx(expected[name]), name
        else:
            assert actual == expected, key


# --------------------------------------------------------- series observer
def test_series_observer_every_mode_matches_legacy_sampling():
    trace = churn_trace(500, seed=9, target_live=50)
    legacy = _legacy_run_trace(CostObliviousReallocator(epsilon=0.5), trace, sample_every=13)
    observer = FootprintSeriesObserver(every=13)
    EngineSession(CostObliviousReallocator(epsilon=0.5), [observer]).run(trace)
    assert observer.footprint == legacy["footprint_series"]
    assert observer.volume == legacy["volume_series"]
    assert observer.indices == list(range(0, len(trace), 13))


def test_series_observer_adaptive_mode_stays_bounded():
    observer = FootprintSeriesObserver(max_points=64)
    allocator = CostObliviousReallocator(epsilon=0.5)
    EngineSession(allocator, [observer]).run(churn_trace(5000, seed=10, target_live=60))
    assert 2 <= len(observer.footprint) <= 64
    assert observer.indices == sorted(observer.indices)
    assert observer.indices[0] == 0
    # The stride doubled at least once and the samples stay aligned to it.
    assert observer._stride > 1
    assert all(index % observer._stride == 0 for index in observer.indices)
    export = observer.export()
    assert export["requests_seen"] == 5000
    assert export["footprint"] == observer.footprint


def test_series_observer_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FootprintSeriesObserver(every=-1)
    with pytest.raises(ValueError):
        FootprintSeriesObserver(max_points=1)


def test_build_observer_registry():
    observer = build_observer({"kind": "footprint_series", "max_points": 16})
    assert isinstance(observer, FootprintSeriesObserver)
    assert observer.max_points == 16
    assert isinstance(build_observer("footprint_series"), FootprintSeriesObserver)
    with pytest.raises(ValueError, match="unknown observer"):
        build_observer("no_such_observer")
    with pytest.raises(ValueError, match="bad parameters"):
        build_observer({"kind": "footprint_series", "max_points": 16, "bogus": 1})


# ------------------------------------------------------------------- device
def test_device_observer_matches_inline_accounting():
    trace = churn_trace(400, seed=11, target_live=40)
    device = MainMemoryDevice()
    allocator = CostObliviousReallocator(epsilon=0.25)
    EngineSession(allocator, [DeviceObserver(device)]).run(trace)
    assert device.stats.units_written == (
        trace.total_inserted_volume + allocator.stats.total_moved_volume
    )
    assert device.stats.moves == allocator.stats.total_moves
    assert device.stats.elapsed_ms > 0


# --------------------------------------------------- insert rollback bugfix
class FlakyAllocator(Allocator):
    """Placement fails on demand, to exercise the rollback path."""

    name = "flaky"

    def __init__(self):
        super().__init__()
        self.fail_next = False
        self._bump = 0

    def _do_insert(self, name, size):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected placement failure")
        self._place_object(name, size, self._bump, reason="insert")
        self._bump += size

    def _do_delete(self, name, size):
        self._free_object(name)


def test_failed_insert_rolls_back_registration_and_can_be_retried():
    allocator = FlakyAllocator()
    allocator.insert("a", 8)
    allocator.fail_next = True
    with pytest.raises(RuntimeError, match="injected"):
        allocator.insert("b", 16)
    # The failed insert left no trace: not allocated, no stats, delta intact.
    assert "b" not in allocator
    assert allocator.delta == 8
    assert allocator.stats.inserts == 1
    assert allocator.stats.requests == 1
    assert allocator.stats.total_allocated_volume == 8
    # The retry that used to die with "already allocated" now succeeds.
    record = allocator.insert("b", 16)
    assert record.op == "insert"
    assert allocator.size_of("b") == 16
    assert allocator.delta == 16
    assert allocator.stats.inserts == 2


def test_failed_insert_still_raises_validation_errors_first():
    allocator = FlakyAllocator()
    with pytest.raises(AllocationError):
        allocator.insert("x", 0)
    allocator.insert("x", 2)
    with pytest.raises(AllocationError):
        allocator.insert("x", 2)
    assert allocator.stats.requests == 1


def test_device_observer_consistent_for_deamortized_pending_work():
    from repro.core import DeamortizedReallocator

    trace = churn_trace(400, seed=12, target_live=40)
    device = MainMemoryDevice()
    allocator = DeamortizedReallocator(epsilon=0.25)
    EngineSession(allocator, [DeviceObserver(device)]).run(trace)
    # The device sees exactly the moves the stats count, including the
    # drain of any flush still pending at trace end.
    assert device.stats.moves == allocator.stats.total_moves
    assert device.stats.units_written == (
        trace.total_inserted_volume + allocator.stats.total_moved_volume
    )


def test_failed_insert_after_placement_rolls_back_the_placement():
    class PlaceThenFail(FlakyAllocator):
        def _do_insert(self, name, size):
            fail = self.fail_next
            self.fail_next = False  # place first, then fail (once)
            super()._do_insert(name, size)
            if fail:
                raise RuntimeError("post-placement failure")

    allocator = PlaceThenFail()
    allocator.insert("a", 4)
    allocator.fail_next = True
    with pytest.raises(RuntimeError, match="post-placement"):
        allocator.insert("poison", 8)
    assert "poison" not in allocator
    assert "poison" not in allocator.space
    assert allocator.volume == 4
    # A fresh insert of the same name succeeds instead of clashing.
    allocator._bump = 100
    record = allocator.insert("poison", 8)
    assert record.op == "insert" and allocator.size_of("poison") == 8
