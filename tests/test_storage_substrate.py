"""Tests for the checkpoint manager, devices, and block translation layer."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.costs.base import validate_cost_function
from repro.storage import (
    BlockTranslationLayer,
    CheckpointManager,
    Extent,
    FreedSpaceViolation,
    MainMemoryDevice,
    RecoveryError,
    RotatingDiskDevice,
    SolidStateDevice,
)
from repro.storage.extent import coalesce


# ------------------------------------------------------------- checkpoints
def test_freed_space_is_unwritable_until_checkpoint():
    manager = CheckpointManager()
    manager.record_free(10, 20)
    assert not manager.is_writable(15, 17)
    assert manager.is_writable(20, 25)
    with pytest.raises(FreedSpaceViolation):
        manager.assert_writable(10, 11)
    assert manager.violations == 1
    manager.checkpoint()
    manager.assert_writable(10, 11)
    assert manager.checkpoints_taken == 1


def test_non_enforcing_manager_only_counts():
    manager = CheckpointManager(enforce=False)
    manager.record_free(0, 5)
    manager.assert_writable(0, 5)
    assert manager.violations == 1


def test_frozen_extents_are_coalesced():
    manager = CheckpointManager()
    for start in range(0, 200, 2):
        manager.record_free(start, start + 2)
    assert manager.frozen_extents() == [Extent(0, 200)]
    manager.reset_counters()
    assert manager.checkpoints_taken == 0


# A small address range so that random frees often overlap and touch.
_extents = st.builds(Extent, st.integers(0, 60), st.integers(1, 12))
# Frees outnumber the other operations so that runs build up between them.
_index_ops = st.lists(
    st.tuples(
        st.sampled_from(["free"] * 6 + ["checkpoint", "recover", "state", "pickle"]),
        _extents,
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_index_ops, queries=st.lists(_extents, min_size=1, max_size=12))
def test_frozen_run_index_matches_brute_force(ops, queries):
    """The bisect-maintained runs agree with a plain list of every extent
    freed since the last checkpoint, through checkpoints, recoveries and
    state / pickle round trips."""
    manager = CheckpointManager()
    freed = []
    for op, extent in ops:
        if op == "free":
            manager.record_free(extent.start, extent.end)
            freed.append(extent)
        elif op in ("checkpoint", "recover"):
            getattr(manager, op)()
            freed = []
        elif op == "state":
            manager = CheckpointManager.from_state(manager.to_state())
        else:
            manager = pickle.loads(pickle.dumps(manager))
        runs = manager.frozen_extents()
        assert runs == coalesce(freed)
        # Adjacent and touching runs merge, exactly as coalesce merges them.
        assert all(left.end < right.start for left, right in zip(runs, runs[1:]))
        for query in queries:
            expected = not any(query.overlaps(extent) for extent in freed)
            assert manager.is_writable(query.start, query.end) == expected


def test_touching_frees_merge_into_one_run():
    manager = CheckpointManager()
    manager.record_free(10, 15)
    manager.record_free(20, 25)
    manager.record_free(15, 20)  # touches both neighbours
    assert manager.frozen_extents() == [Extent(10, 15)]
    assert manager.is_writable(25, 26) and manager.is_writable(9, 10)
    assert not manager.is_writable(0, 11)


# ------------------------------------------------------------------ devices
@pytest.mark.parametrize(
    "device_class", [MainMemoryDevice, RotatingDiskDevice, SolidStateDevice]
)
def test_device_timing_and_counters(device_class):
    device = device_class()
    write_time = device.write(64)
    move_time = device.move(64)
    assert write_time > 0
    assert move_time >= write_time  # a move reads and rewrites the data
    assert device.stats.moves == 1
    assert device.stats.units_written == 128
    assert device.stats.elapsed_ms >= write_time + move_time - 1e-9
    device.reset()
    assert device.stats.elapsed_ms == 0


@pytest.mark.parametrize(
    "device_class", [MainMemoryDevice, RotatingDiskDevice, SolidStateDevice]
)
def test_device_cost_functions_are_subadditive(device_class):
    validate_cost_function(device_class().cost_function(), max_size=128)


def test_ssd_erase_accounting():
    device = SolidStateDevice(page_size=8, erase_block_pages=4, erase_ms=1.0)
    for _ in range(4):
        device.move(8)  # one dirty page per move
    assert device.erases == 1


def test_disk_seek_dominates_small_transfers():
    disk = RotatingDiskDevice(seek_ms=8.0, units_per_ms=128.0)
    small = disk.transfer_time(1)
    large = disk.transfer_time(1024)
    assert small > 7.9
    assert large < 3 * small  # bandwidth term is secondary at this scale


# -------------------------------------------------------------- translation
def test_translation_layer_checkpoint_and_crash():
    layer = BlockTranslationLayer()
    layer.record_allocation("a", 0, 10)
    layer.record_allocation("b", 10, 20)
    layer.checkpoint()
    layer.record_move("a", 30, 40)
    assert layer.lookup("a") == Extent(30, 10)
    assert layer.durable_lookup("a") == Extent(0, 10)
    # The old location of "a" is frozen until the next checkpoint.
    assert not layer.checkpoints.is_writable(0, 10)
    layer.crash()
    assert layer.lookup("a") == Extent(0, 10)
    assert "b" in layer and len(layer) == 2


def test_translation_layer_free_freezes_space():
    layer = BlockTranslationLayer()
    layer.record_allocation("a", 0, 10)
    layer.checkpoint()
    layer.record_free("a")
    assert "a" not in layer
    assert not layer.checkpoints.is_writable(0, 10)
    layer.checkpoint()
    assert layer.checkpoints.is_writable(0, 10)


def test_verify_recoverable_detects_clobbered_data():
    layer = BlockTranslationLayer()
    layer.record_allocation("a", 0, 10)
    layer.checkpoint()
    with pytest.raises(RecoveryError):
        layer.verify_recoverable({"a": Extent(50, 10)})
    layer.verify_recoverable({"a": Extent(0, 10)})


#: One translation-layer operation: an op, a name slot and an address.
_TRANSLATION_OPS = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "move", "free", "checkpoint", "crash"]),
        st.integers(0, 7),
        st.integers(0, 200),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_TRANSLATION_OPS)
def test_dirty_set_checkpoints_match_a_full_copy(ops):
    """A checkpoint writes only the names changed since the previous one;
    the durable map must still equal a full copy of the volatile map taken
    at that checkpoint, and a crash must restore exactly that copy."""
    layer = BlockTranslationLayer()
    volatile, durable = {}, {}
    for op, slot, address in ops:
        name = f"block-{slot}"
        if op == "allocate":
            layer.record_allocation(name, address, address + 4)
            volatile[name] = Extent(address, 4)
        elif op == "move":
            layer.record_move(name, address, address + 4)
            volatile[name] = Extent(address, 4)
        elif op == "free":
            layer.record_free(name)
            volatile.pop(name, None)
        elif op == "checkpoint":
            layer.checkpoint()
            durable = dict(volatile)
            for live in layer:
                assert layer.durable_lookup(live) == layer.lookup(live)
        else:
            layer.crash()
            volatile = dict(durable)
            assert {live: layer.lookup(live) for live in layer} == durable
        assert {live: layer.lookup(live) for live in layer} == volatile
        for slot_name in (f"block-{index}" for index in range(8)):
            if slot_name in durable:
                assert layer.durable_lookup(slot_name) == durable[slot_name]
            else:
                with pytest.raises(KeyError):
                    layer.durable_lookup(slot_name)


def test_full_copy_translation_snapshot_restores_its_dirty_set():
    """A pickled layer from before the dirty set carried an update counter;
    unpickling derives the dirty names from the two maps."""
    layer = BlockTranslationLayer()
    layer.record_allocation("a", 0, 4)
    layer.record_allocation("b", 4, 8)
    layer.checkpoint()
    layer.record_move("a", 10, 14)
    layer.record_free("b")
    layer.record_allocation("c", 20, 24)
    state = dict(vars(layer))
    # That layout also mapped names to extents, not (start, end) spans.
    for key in ("_volatile", "_durable"):
        state[key] = {name: Extent(start, end - start) for name, (start, end) in state[key].items()}
    del state["_dirty"]
    state["updates_since_checkpoint"] = 3
    restored = BlockTranslationLayer.__new__(BlockTranslationLayer)
    restored.__setstate__(pickle.loads(pickle.dumps(state)))
    assert restored._dirty == {"a", "b", "c"}
    assert restored.lookup("a") == Extent(10, 4) and restored._volatile["a"] == (10, 14)
    assert not hasattr(restored, "updates_since_checkpoint")
    restored.checkpoint()
    assert restored.durable_lookup("a") == Extent(10, 4)
    assert restored.durable_lookup("c") == Extent(20, 4)
    with pytest.raises(KeyError):
        restored.durable_lookup("b")
