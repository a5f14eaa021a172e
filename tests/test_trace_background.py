"""Tests for background trace compression, ``sync()``, and tail recovery.

Satellite of ISSUE 10: ``compress="background"`` moves zlib work onto a
writer-owned worker thread with *byte-identical* output (pinned here),
``BinaryTraceWriter.sync()`` makes the
written-so-far prefix durable as complete self-delimiting v3 blocks, and
:func:`read_trace_tail` recovers exactly that prefix from a trailer-less
(crashed) file — the durability contract of the live allocation service.
"""

import random

import pytest

from benchmarks.legacy_codec import save_legacy_trace
from repro.allocators import FirstFitAllocator
from repro.engine import EngineSession, TraceRecorderObserver
from repro.workloads import (
    Request,
    Trace,
    UniformSizes,
    churn_trace,
    load_trace,
    open_trace_writer,
    read_trace_tail,
    save_trace,
    trace_info,
)


def churny(seed, requests):
    rng = random.Random(seed)
    live = set()
    out = []
    for i in range(requests):
        if live and rng.random() < 0.45:
            name = rng.choice(sorted(live))
            live.discard(name)
            out.append(Request.delete(name))
        else:
            name = f"o{i}"
            live.add(name)
            out.append(Request.insert(name, rng.randint(1, 4096)))
    return Trace(out, label="bg", metadata={"seed": seed})


# -------------------------------------------------------------- byte identity
@pytest.mark.parametrize("version", [3])
def test_background_compression_is_byte_identical_to_inline(tmp_path, version):
    trace = churny(7, 3000)
    inline, background = tmp_path / "inline.bin", tmp_path / "background.bin"
    save_trace(trace, inline, version=version, compress=True)
    save_trace(trace, background, version=version, compress="background")
    assert inline.read_bytes() == background.read_bytes()
    loaded = load_trace(background)
    assert list(loaded) == list(trace)
    assert loaded.metadata == trace.metadata


@pytest.mark.parametrize("version", [3])
def test_background_writer_streams_and_closes_cleanly(tmp_path, version):
    trace = churny(3, 500)
    path = tmp_path / "stream.bin"
    writer = open_trace_writer(
        path, version=version, label="bg", compress="background", block_records=64
    )
    for request in trace:
        writer.write(request)
    writer.close()
    assert writer.count == 500
    assert [(r.op, r.name, r.size) for r in load_trace(path)] == [
        (r.op, r.name, r.size) for r in trace
    ]


def test_background_mode_rejects_unsupported_targets(tmp_path):
    with pytest.raises(ValueError, match="binary format"):
        open_trace_writer(tmp_path / "t.v1", version=1, compress="background")
    with pytest.raises(ValueError, match="compress mode"):
        open_trace_writer(tmp_path / "t.v3", version=3, compress="sideways")
    with pytest.raises(ValueError, match="read-only"):
        open_trace_writer(tmp_path / "t.v2", version=2, compress="background")


def test_background_abort_discards_without_raising(tmp_path):
    writer = open_trace_writer(
        tmp_path / "aborted.v3", version=3, compress="background", block_records=32
    )
    for i in range(100):
        writer.write(Request.insert(f"o{i}", 8))
    writer.abort()  # must join the worker and close the handle quietly
    with pytest.raises(ValueError):
        load_trace(tmp_path / "aborted.v3")  # truncation stays detectable


def test_trace_recorder_observer_supports_background_compression(tmp_path):
    trace = churn_trace(400, UniformSizes(1, 32), target_live=40, seed=2)
    inline_path, background_path = tmp_path / "in.v3", tmp_path / "bg.v3"
    EngineSession(
        FirstFitAllocator(),
        [TraceRecorderObserver(inline_path, version=3, compress=True)],
    ).run(trace)
    EngineSession(
        FirstFitAllocator(),
        [TraceRecorderObserver(background_path, version=3, compress="background")],
    ).run(trace)
    assert inline_path.read_bytes() == background_path.read_bytes()
    assert trace_info(background_path).requests == 400


# --------------------------------------------------------- sync + tail reads
@pytest.mark.parametrize("compress", [False, True, "background"])
def test_sync_makes_the_prefix_recoverable_from_a_crashed_file(
    tmp_path, compress
):
    """Write 3 synced rounds of 100 plus 50 unsynced requests, then "crash"
    (abort: no trailer).  The tail read must salvage exactly the synced
    300 — and never invent the unsynced suffix."""
    trace = list(churny(11, 350))
    path = tmp_path / "crashed.v3"
    writer = open_trace_writer(
        path, version=3, compress=compress, block_records=1000
    )
    for index, request in enumerate(trace):
        writer.write(request)
        if index in (99, 199, 299):
            writer.sync()
    writer.abort()

    with pytest.raises(ValueError):
        load_trace(path)  # the full reader still refuses the torn file
    tail = read_trace_tail(path)
    assert not tail.complete
    assert tail.blocks == 3
    assert [(r.op, str(r.name), r.size) for r in tail.requests] == [
        (r.op, str(r.name), r.size) for r in trace[:300]
    ]


def test_tail_read_of_a_complete_file_reports_complete(tmp_path):
    trace = churny(5, 250)
    path = tmp_path / "whole.v3"
    save_trace(trace, path, version=3)
    tail = read_trace_tail(path)
    assert tail.complete
    assert len(tail.requests) == 250
    assert tail.header.label == "bg"


def test_tail_read_requires_v3(tmp_path):
    path = tmp_path / "v2.bin"
    save_legacy_trace(churny(1, 50), path)
    with pytest.raises(ValueError, match="v3"):
        read_trace_tail(path)


def test_sync_flushes_partial_blocks_that_stay_readable_after_close(tmp_path):
    """sync() mid-segment emits a short snapshot block and close() a
    continuation block; the footer indexes the one segment they form, so
    the file round-trips through a normal close."""
    trace = list(churny(9, 130))
    path = tmp_path / "short-blocks.v3"
    writer = open_trace_writer(path, version=3, block_records=1000)
    for index, request in enumerate(trace):
        writer.write(request)
        if index == 24:
            writer.sync()  # 25-record partial block
    writer.close()
    info = trace_info(path)
    assert info.requests == 130
    assert info.blocks == 1  # indexed segments
    assert read_trace_tail(path).blocks == 2  # snapshot + continuation block
    assert [(r.op, str(r.name)) for r in load_trace(path)] == [
        (r.op, str(r.name)) for r in trace
    ]
