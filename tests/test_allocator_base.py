"""Tests for the shared allocator bookkeeping (events, stats, tracing)."""

import pytest

from repro.core import CostObliviousReallocator
from repro.core.events import MoveEvent, RequestRecord
from repro.costs import LinearCost
from repro.storage.extent import Extent
from repro.workloads import Request, UniformSizes, churn_trace


def test_request_records_expose_moves_and_footprint():
    realloc = CostObliviousReallocator(epsilon=0.5, trace=True)
    record = realloc.insert("a", 10)
    assert record.op == "insert"
    assert record.footprint_after == realloc.footprint
    assert record.volume_after == 10
    assert record.moved_volume == 0  # first placement is an allocation
    assert realloc.history[-1] is record


def test_move_event_reallocation_flag():
    placement = MoveEvent("a", 4, None, Extent(0, 4))
    relocation = MoveEvent("a", 4, Extent(0, 4), Extent(10, 4))
    assert not placement.is_reallocation
    assert relocation.is_reallocation
    record = RequestRecord(1, "insert", "a", 4, moves=(placement, relocation))
    assert record.moved_volume == 4
    assert record.move_count == 1


def test_history_only_kept_when_tracing():
    traced = CostObliviousReallocator(trace=True)
    untraced = CostObliviousReallocator(trace=False)
    for allocator in (traced, untraced):
        allocator.insert("a", 4)
        allocator.delete("a")
    assert len(traced.history) == 2
    assert untraced.history == []


def test_stats_allocation_histogram_counts_every_insert():
    realloc = CostObliviousReallocator()
    realloc.insert("a", 4)
    realloc.insert("b", 4)
    realloc.insert("c", 9)
    realloc.delete("a")
    stats = realloc.stats
    assert stats.allocated_sizes == {4: 2, 9: 1}
    assert stats.total_allocated_volume == 17
    assert stats.inserts == 3 and stats.deletes == 1 and stats.requests == 4
    assert stats.allocation_cost(LinearCost()) == 17


def test_request_tracking_records_per_request_moved_volume():
    realloc = CostObliviousReallocator(epsilon=0.5)
    realloc.enable_request_tracking()
    realloc.run(churn_trace(300, seed=1, target_live=40))
    volumes = realloc.stats.request_moved_volumes
    assert volumes is not None and len(volumes) == 300
    assert max(volumes) == realloc.stats.max_request_moved_volume


def test_run_accepts_request_objects():
    realloc = CostObliviousReallocator()
    realloc.run([Request.insert("x", 5), Request.insert("y", 3), Request.delete("x")])
    assert realloc.volume == 3
    assert "y" in realloc and "x" not in realloc
    assert realloc.size_of("y") == 3
    assert realloc.address_of("y") >= 0


def test_describe_and_repr_do_not_crash():
    realloc = CostObliviousReallocator(epsilon=0.25)
    assert "0.25" in realloc.describe()
    assert "objects=0" in repr(realloc)


@pytest.mark.parametrize("kind", ["cost_oblivious", "deamortized", "first_fit"])
def test_untraced_audited_replays_build_no_extent(kind, monkeypatch):
    """The storage core passes plain integers: an untraced audited replay
    builds no ``Extent`` for any placement, move or delete.  Extents appear
    only at the API edge, e.g. in the move events a traced request records."""
    from repro.campaign.spec import build_allocator

    built = []
    original = Extent.__post_init__

    def counting(self):
        built.append((self.start, self.length))
        original(self)

    monkeypatch.setattr(Extent, "__post_init__", counting)
    allocator = build_allocator(kind)
    trace = churn_trace(3000, UniformSizes(1, 64), target_live=400, seed=9)
    allocator.run(trace)
    stats = allocator.stats
    assert stats.inserts > 0 and stats.deletes > 0 and stats.requests == len(trace)
    if kind != "first_fit":
        assert stats.total_moves > 1000 and stats.flushes > 0
    assert built == []
    record = allocator.insert("traced", 8)  # the API edge still builds them
    assert built and record.moves[0].destination == allocator.space.extent_of("traced")
