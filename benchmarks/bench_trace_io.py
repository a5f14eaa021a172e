"""Trace I/O benchmarks: file sizes, decode throughput, sharded replay, and
the streaming peak-memory guard.

Hard guards that run on every invocation (no ``--benchmark-only`` needed):

* a synthetic churn trace saved as compressed v3 must be at most 25% of its
  v1 text size;
* the default-block v3 encoding must stay within 110% of the same trace
  written as one v3 block (the block-index overhead: snapshots + footer);
* the live decoder must be at least 25% faster than the pre-optimisation
  codec preserved in :mod:`benchmarks.legacy_codec`, both reading the same
  legacy v2 file (same machine, so the guard is machine-independent);
* a sharded ``--jobs`` analytics pass must be byte-identical to the serial
  one (the >= 2x speedup assertion additionally needs ``REPRO_BENCH_FULL=1``
  and at least four CPUs — fork/merge overhead swamps the small CI trace);
* streaming replay (v3z) and streaming analytics (v3) through
  :class:`TraceFileSource` must complete with a small fraction of the peak
  memory that materialising the :class:`Trace` costs — i.e. they provably
  never hold the trace;
* a served-style recording (50-request batches over a ~200-live churn,
  ``sync()`` after each batch) must stay within 125% of the same requests
  written offline, and its ``sync()`` must be at least 3x faster than the
  snapshot-per-sync writer preserved in :mod:`benchmarks.legacy_codec`;
  both files must decode to the same requests.

The default trace is 200k requests so CI stays fast; set
``REPRO_BENCH_FULL=1`` for the 1M-request version of the acceptance run::

    REPRO_BENCH_FULL=1 PYTHONPATH=src python -m pytest benchmarks/bench_trace_io.py -q
"""

import os
import time
import tracemalloc

import pytest

from benchmarks.bench_artifact import record_metric
from benchmarks.legacy_codec import (
    SnapshotPerSyncWriter,
    iter_legacy_trace,
    save_legacy_trace,
)
from repro.allocators import FirstFitAllocator
from repro.campaign import analytics_result
from repro.engine import EngineSession, analyze_source, analyze_trace_parallel
from repro.engine.analytics import TraceAnalyticsObserver
from repro.workloads import (
    BinaryTraceWriter,
    TraceFileSource,
    UniformSizes,
    churn_trace,
    iter_trace,
    load_trace,
    save_trace,
)

REQUESTS = 1_000_000 if os.environ.get("REPRO_BENCH_FULL", "") == "1" else 200_000


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    """The benchmark trace saved once in every format.

    ``v3-one-block`` holds the whole trace in a single block (no
    intermediate snapshots), the baseline for the block-index overhead;
    ``v2`` is the legacy format, written by the frozen encoder, that both
    decoders of the codec guard read.
    """
    base = tmp_path_factory.mktemp("traceio")
    trace = churn_trace(REQUESTS, UniformSizes(1, 64), target_live=400, seed=77)
    trace.metadata["seed"] = 77
    paths = {
        "v1": base / "churn.v1",
        "v2": base / "churn.v2",
        "v3": base / "churn.v3",
        "v3z": base / "churn.v3z",
        "v3-one-block": base / "churn-one-block.v3",
    }
    save_trace(trace, paths["v1"], version=1)
    save_legacy_trace(trace, paths["v2"])
    save_trace(trace, paths["v3"], version=3)
    save_trace(trace, paths["v3z"], version=3, compress=True)
    save_trace(trace, paths["v3-one-block"], version=3, block_records=REQUESTS)
    return {"trace": trace, "paths": paths}


def test_v3_compressed_is_quarter_of_v1_size(trace_files):
    """The acceptance guard: compressed v3 <= 25% of the v1 text size."""
    sizes = {tag: os.path.getsize(path) for tag, path in trace_files["paths"].items()}
    print(
        f"\n{REQUESTS} requests: v1={sizes['v1']} bytes, v3={sizes['v3']} bytes "
        f"({sizes['v3'] / sizes['v1']:.1%}), v3z={sizes['v3z']} bytes "
        f"({sizes['v3z'] / sizes['v1']:.1%})"
    )
    record_metric("trace_io", "v1_bytes", sizes["v1"], "bytes")
    record_metric("trace_io", "v3z_bytes", sizes["v3z"], "bytes")
    record_metric(
        "trace_io", "v3z_over_v1_ratio", round(sizes["v3z"] / sizes["v1"], 4), "ratio"
    )
    assert sizes["v3"] < sizes["v1"], "uncompressed v3 must already beat the text format"
    assert sizes["v3z"] <= 0.25 * sizes["v1"], (
        f"compressed v3 is {sizes['v3z'] / sizes['v1']:.1%} of v1 "
        f"({sizes['v3z']} vs {sizes['v1']} bytes); the format regressed past the "
        "25% budget"
    )


def test_v3_block_index_within_size_budget(trace_files):
    """The block index (snapshots + footer) must cost at most 10% over the
    same trace written as one block."""
    one_block = os.path.getsize(trace_files["paths"]["v3-one-block"])
    v3 = os.path.getsize(trace_files["paths"]["v3"])
    print(
        f"\n{REQUESTS} requests: one block={one_block} bytes, default blocks={v3} "
        f"bytes ({v3 / one_block:.1%})"
    )
    record_metric("trace_io", "v3_bytes", v3, "bytes")
    record_metric("trace_io", "v3_over_one_block_ratio", round(v3 / one_block, 4), "ratio")
    assert v3 <= 1.10 * one_block, (
        f"default-block v3 is {v3 / one_block:.1%} of the one-block size ({v3} vs "
        f"{one_block} bytes); the block index overhead regressed past the 110% budget"
    )


@pytest.mark.parametrize("tag", ["v1", "v3", "v3z"])
def test_load_throughput(benchmark, trace_files, tag):
    """Full materialising load, timed per format."""
    path = trace_files["paths"][tag]

    loaded = benchmark.pedantic(load_trace, args=(path,), rounds=1, iterations=1)
    assert len(loaded) == REQUESTS


@pytest.mark.parametrize("tag", ["v1", "v2", "v3", "v3z"])
def test_stream_throughput(benchmark, trace_files, tag):
    """Streaming scan (no materialisation), timed per format."""
    path = trace_files["paths"][tag]

    def scan():
        return sum(1 for _ in iter_trace(path))

    assert benchmark.pedantic(scan, rounds=1, iterations=1) == REQUESTS


def _best_scan_seconds(scan, rounds=3):
    """Best-of-N wall time of ``scan()`` (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        count = scan()
        best = min(best, time.perf_counter() - started)
        assert count == REQUESTS
    return best


def test_decode_throughput_beats_legacy_codec(trace_files):
    """The codec guard: the live decoder must be >= 1.25x the legacy one.

    Both decoders scan the same uncompressed legacy v2 file (the live one
    through the v3 block decoder) on the same machine in the same process,
    so the ratio is hardware-independent; an absolute requests/sec figure
    is recorded for the artifact but never asserted.
    """
    path = trace_files["paths"]["v2"]
    legacy = _best_scan_seconds(lambda: sum(1 for _ in iter_legacy_trace(path)))
    live = _best_scan_seconds(lambda: sum(1 for _ in iter_trace(path)))
    speedup = legacy / live
    print(
        f"\nserial v2 decode of {REQUESTS} requests: legacy={REQUESTS / legacy:,.0f} req/s, "
        f"live={REQUESTS / live:,.0f} req/s ({speedup:.2f}x)"
    )
    record_metric("trace_io", "decode_requests_per_sec", round(REQUESTS / live), "req/s")
    record_metric(
        "trace_io", "decode_legacy_requests_per_sec", round(REQUESTS / legacy), "req/s"
    )
    record_metric("trace_io", "decode_speedup_vs_legacy", round(speedup, 3), "ratio")
    assert speedup >= 1.25, (
        f"the live decoder is only {speedup:.2f}x the legacy codec "
        "(guard: >= 1.25x); the raw-speed pass regressed"
    )


def test_sharded_analyze_identical_and_faster(trace_files):
    """Sharded ``--jobs 4`` analytics: byte-identical always; >= 2x the
    serial wall time when the full-size bench runs with enough CPUs."""
    path = str(trace_files["paths"]["v3"])
    jobs = 4

    started = time.perf_counter()
    serial = TraceAnalyticsObserver()
    for request in TraceFileSource(path):
        serial.observe(request)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sharded = analyze_trace_parallel(path, jobs=jobs)
    sharded_seconds = time.perf_counter() - started

    assert sharded is not None, "the v3 bench trace must shard"
    assert sharded.export() == serial.export(), (
        "sharded analytics diverged from the serial scan"
    )
    speedup = serial_seconds / sharded_seconds
    print(
        f"\nsharded analyze of {REQUESTS} requests: serial={serial_seconds:.2f}s, "
        f"jobs={jobs}: {sharded_seconds:.2f}s ({speedup:.2f}x)"
    )
    record_metric("trace_io", "analyze_serial_seconds", round(serial_seconds, 3), "s")
    record_metric("trace_io", "analyze_sharded_seconds", round(sharded_seconds, 3), "s")
    record_metric("trace_io", "analyze_sharded_speedup", round(speedup, 3), "ratio")
    cpus = os.cpu_count() or 1
    if os.environ.get("REPRO_BENCH_FULL", "") == "1" and cpus >= jobs:
        assert speedup >= 2.0, (
            f"jobs={jobs} sharded analyze is only {speedup:.2f}x serial on "
            f"{cpus} CPUs (guard: >= 2x at full trace size)"
        )


@pytest.mark.parametrize("version", [3])
def test_background_compression_no_slower_than_inline(trace_files, tmp_path, version):
    """The ISSUE 10 satellite guard: ``compress="background"`` must not be
    slower than inline compression (byte-identical output is pinned by
    tests/test_trace_background.py; this guards the *point* of the mode).

    Best-of-3 wall times on the same trace in the same process; a 10%
    grace absorbs scheduler noise — the worker thread overlaps zlib with
    record encoding, so the ratio sits at or below 1.0 in practice.
    """
    trace = trace_files["trace"]

    def save_seconds(compress, tag):
        best = float("inf")
        for _ in range(3):
            path = tmp_path / f"bg-{version}-{tag}.bin"
            started = time.perf_counter()
            save_trace(trace, path, version=version, compress=compress)
            best = min(best, time.perf_counter() - started)
        return best

    inline = save_seconds(True, "inline")
    background = save_seconds("background", "background")
    ratio = background / inline
    print(
        f"\nv{version} compressed save of {REQUESTS} requests: "
        f"inline={inline:.3f}s, background={background:.3f}s ({ratio:.2f}x)"
    )
    record_metric("trace_io", f"v{version}z_inline_save_seconds", round(inline, 3), "s")
    record_metric(
        "trace_io", f"v{version}z_background_save_seconds", round(background, 3), "s"
    )
    record_metric(
        "trace_io", f"v{version}z_background_over_inline", round(ratio, 3), "ratio"
    )
    assert ratio <= 1.10, (
        f"background compression is {ratio:.2f}x inline for v{version} "
        "(guard: <= 1.10x); the worker thread is adding overhead instead of "
        "hiding the zlib work"
    )


def test_streaming_analytics_matches_materialised_within_memory_budget(trace_files):
    """The `repro trace analyze` guard: streaming analytics over a
    TraceFileSource must render byte-identical tables to the materialised
    load-then-analyze path at a small fraction of its peak memory."""
    path = trace_files["paths"]["v3"]

    tracemalloc.start()
    materialised = analyze_source(load_trace(path))
    _, materialised_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    streamed = analyze_source(TraceFileSource(path))
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print(
        f"\npeak memory analyzing {REQUESTS} requests: "
        f"materialised={materialised_peak // 1024} KiB, "
        f"streaming={streaming_peak // 1024} KiB "
        f"({streaming_peak / materialised_peak:.1%})"
    )
    record_metric("trace_io", "materialised_peak_bytes", materialised_peak, "bytes")
    record_metric("trace_io", "streaming_peak_bytes", streaming_peak, "bytes")
    assert streamed == materialised
    assert analytics_result(streamed).to_text() == analytics_result(materialised).to_text()
    assert streaming_peak <= materialised_peak * 0.2, (
        f"streaming analytics peaked at {streaming_peak} bytes vs {materialised_peak} "
        "for the materialised path; the analyzer is buffering per-request state "
        "somewhere"
    )


def test_streaming_replay_never_materialises_the_trace(trace_files):
    """The peak-memory guard: replaying the v3z file through a streaming
    TraceFileSource must cost a small fraction of what load_trace costs,
    which is only possible if the replay never holds the request list."""
    path = trace_files["paths"]["v3z"]

    tracemalloc.start()
    trace = load_trace(path)
    _, materialised_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(trace) == REQUESTS
    del trace

    allocator = FirstFitAllocator()  # audited: the index adds O(live set) only
    tracemalloc.start()
    run = EngineSession(allocator).run(TraceFileSource(path))
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print(
        f"\npeak memory replaying {REQUESTS} requests: "
        f"materialised={materialised_peak // 1024} KiB, "
        f"streaming={streaming_peak // 1024} KiB "
        f"({streaming_peak / materialised_peak:.1%})"
    )
    assert run.requests == REQUESTS
    assert streaming_peak <= materialised_peak * 0.2, (
        f"streaming replay peaked at {streaming_peak} bytes vs {materialised_peak} "
        "for the materialised trace; the pipeline is buffering the trace somewhere"
    )


#: The served emulation: the serve tier's 50-request batches, each synced.
SERVED_BATCH = 50
SERVED_REQUESTS = 25_000


def _served_sync_seconds(writer_class, path, requests):
    """Record ``requests`` as a served tenant does: write a batch, then
    ``sync()``.  Returns the seconds spent in ``sync()``."""
    seconds = 0.0
    writer = writer_class(path, label="served")
    for start in range(0, len(requests), SERVED_BATCH):
        for request in requests[start : start + SERVED_BATCH]:
            writer.write(request)
        started = time.perf_counter()
        writer.sync()
        seconds += time.perf_counter() - started
    writer.close()
    return seconds


def test_served_sync_writes_continuation_blocks(tmp_path):
    """The served-emulation guard: synced recordings cost <= 1.25x the
    offline bytes, and sync() is >= 3x the snapshot-per-sync writer.

    Best-of-3 sync time per writer with the two interleaved, so a load
    spike hits both sides; both run on the same requests in one process.
    """
    trace = churn_trace(SERVED_REQUESTS, UniformSizes(1, 64), target_live=200, seed=78)
    requests = list(trace)
    offline, served, legacy = (
        tmp_path / "offline.v3", tmp_path / "served.v3", tmp_path / "legacy.v3"
    )
    save_trace(trace, offline, version=3)
    live_seconds = legacy_seconds = float("inf")
    for _ in range(3):
        legacy_seconds = min(
            legacy_seconds, _served_sync_seconds(SnapshotPerSyncWriter, legacy, requests)
        )
        live_seconds = min(
            live_seconds, _served_sync_seconds(BinaryTraceWriter, served, requests)
        )
    batches = SERVED_REQUESTS // SERVED_BATCH
    speedup = legacy_seconds / live_seconds
    size_ratio = os.path.getsize(served) / os.path.getsize(offline)
    print(
        f"\nserved emulation, {SERVED_REQUESTS} requests in {batches} synced batches: "
        f"sync {live_seconds / batches * 1e6:.1f} us/batch vs snapshot-per-sync "
        f"{legacy_seconds / batches * 1e6:.1f} us ({speedup:.1f}x); bytes "
        f"{size_ratio:.3f}x offline (snapshot-per-sync "
        f"{os.path.getsize(legacy) / os.path.getsize(offline):.2f}x)"
    )
    record_metric(
        "trace_io", "served_sync_us_per_batch", round(live_seconds / batches * 1e6, 2), "us"
    )
    record_metric("trace_io", "served_sync_speedup_vs_snapshot", round(speedup, 2), "ratio")
    record_metric("trace_io", "served_over_offline_bytes", round(size_ratio, 4), "ratio")
    expected = [(r.op, str(r.name), r.size) for r in requests]
    assert [(r.op, r.name, r.size) for r in iter_trace(served)] == expected
    assert [(r.op, r.name, r.size) for r in iter_trace(legacy)] == expected
    assert size_ratio <= 1.25, (
        f"a served recording is {size_ratio:.2f}x the offline file of the same "
        "requests (guard: <= 1.25x); sync() is writing snapshots again"
    )
    assert speedup >= 3.0, (
        f"sync() is only {speedup:.2f}x the snapshot-per-sync writer "
        "(guard: >= 3x); continuation blocks regressed"
    )
