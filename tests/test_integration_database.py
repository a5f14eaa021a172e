"""End-to-end scenario: a block store with translation, checkpoints, crashes.

This mirrors the paper's motivating setting (TokuDB-style block translation):
a storage engine allocates, rewrites, and frees variable-sized blocks through
the checkpointed reallocator while the system takes periodic checkpoints and
occasionally crashes.  After every crash, all durable blocks must still be
reachable, and the disk footprint must stay within (1 + eps) of the live
volume.
"""

import random

import pytest

from repro.core import CheckpointedReallocator, check_invariants
from repro.costs import RotatingDiskCost
from repro.storage.devices import RotatingDiskDevice
from repro.workloads import database_trace
from tests.conftest import with_frozen_space_oracle


def test_block_store_with_periodic_checkpoints_and_crashes():
    realloc = with_frozen_space_oracle(CheckpointedReallocator)(
        epsilon=0.25, track_recovery=True
    )
    device = RotatingDiskDevice()
    trace = database_trace(1500, block=32, working_set=120, seed=99)
    rng = random.Random(7)
    live = {}
    for index, request in enumerate(trace):
        if request.is_insert:
            record = realloc.insert(request.name, request.size)
            live[request.name] = request.size
        else:
            record = realloc.delete(request.name)
            live.pop(request.name, None)
        for move in record.moves:
            if move.is_reallocation:
                device.move(move.size)
            else:
                device.write(move.size)
        if index % 100 == 99:
            realloc.checkpoint()
        if index % 400 == 399:
            realloc.crash_and_recover()
    check_invariants(realloc)
    assert set(realloc.translation) == set(live)
    assert realloc.stats.max_footprint_ratio <= 1.25 + 1e-9
    assert realloc.checkpoints.violations == 0
    assert realloc.oracle_violations == [] and realloc.oracle_writes > 0
    # The simulated disk spent time proportional to the charged cost model.
    assert device.stats.elapsed_ms > 0
    charged = realloc.stats.reallocation_cost(RotatingDiskCost())
    assert charged > 0


def test_cost_charged_after_the_fact_matches_device_accounting():
    """Cost obliviousness in practice: the allocator never sees the device,
    yet charging its recorded moves under the device's cost function agrees
    with what the device itself measured (up to the 2x read+write factor)."""
    realloc = CheckpointedReallocator(epsilon=0.5)
    device = RotatingDiskDevice()
    trace = database_trace(800, block=16, working_set=80, seed=3)
    for request in trace:
        record = (
            realloc.insert(request.name, request.size)
            if request.is_insert
            else realloc.delete(request.name)
        )
        for move in record.moves:
            if move.is_reallocation:
                device.move(move.size)
    charged = realloc.stats.reallocation_cost(device.cost_function())
    assert device.stats.moves == realloc.stats.total_moves
    assert charged <= device.stats.elapsed_ms + 1e-6
    assert charged >= device.stats.elapsed_ms / 2 - 1e-6
