"""The v3 block-indexed format: round-trips, seeking, and error paths.

The hypothesis battery drives traces across block-size boundaries (block
sizes small enough that every trace spans several blocks, plus the exact
boundary cases: trace length a multiple of the block size, one under, one
over) and checks three invariants end to end:

* a v3 file round-trips byte-for-byte equal requests through every reader
  (materialising ``load_trace``, streaming ``iter_trace``), compressed and
  plain;
* seeking to block *n* via the footer index and scanning the suffix yields
  exactly the same requests as skipping ``n`` blocks of a full scan — and
  the entry snapshot at block *n* equals the live set a serial replay has
  at that point;
* truncating the file anywhere raises :class:`TraceFormatError` naming the
  file, never a silent prefix.

Synced files (a snapshot block per segment plus continuation blocks) get
the same round-trip, seek and every-cut truncation checks, where the tail
reader must salvage exactly the complete blocks before the cut; offline
writes are sha256-pinned.
"""

import gzip
import hashlib
import random
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from benchmarks.legacy_codec import save_legacy_trace
from repro.workloads import (
    Request,
    Trace,
    TraceFileSource,
    TraceFormatError,
    UniformSizes,
    churn_trace,
    iter_trace,
    load_trace,
    open_trace_writer,
    read_block_index,
    read_trace_tail,
    save_trace,
    trace_info,
)
from repro.workloads.binary import (
    MAGIC,
    _NameTable,
    _decode_block_records,
    _decode_snapshot,
    encode_varint,
    read_binary_header,
)


def churny_trace(seed, requests, label="v3t"):
    """A seeded well-formed trace with inserts, deletes, and name reuse."""
    rng = random.Random(seed)
    pool = [f"obj-{i}" for i in range(64)] + ["naïve name", "a b", "# x", ""]
    live = set()
    out = []
    for _ in range(requests):
        if live and (rng.random() < 0.45 or len(live) == len(pool)):
            name = rng.choice(sorted(live))
            live.discard(name)
            out.append(Request.delete(name))
        else:
            name = rng.choice([n for n in pool if n not in live])
            live.add(name)
            out.append(Request.insert(name, rng.randint(1, 2**20)))
    return Trace(out, label=label, metadata={"seed": seed})


def assert_same_requests(expected, actual):
    expected = list(expected)
    actual = list(actual)
    assert len(actual) == len(expected)
    for left, right in zip(expected, actual):
        assert (left.op, left.name) == (right.op, right.name)
        if left.is_insert:
            assert left.size == right.size


# ------------------------------------------------------------ hypothesis battery
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 999),
    block_records=st.sampled_from([1, 2, 3, 5, 8]),
    boundary=st.sampled_from([-1, 0, 1]),
    multiple=st.integers(1, 6),
    compress=st.booleans(),
)
def test_v3_round_trip_across_block_boundaries(
    tmp_path_factory, seed, block_records, boundary, multiple, compress
):
    """Round trip with the trace length a multiple of the block size, one
    under, and one over — the off-by-one edges of block flushing."""
    requests = max(0, block_records * multiple + boundary)
    trace = churny_trace(seed, requests)
    path = tmp_path_factory.mktemp("v3rt") / "t.v3"
    save_trace(trace, path, version=3, compress=compress, block_records=block_records)
    assert_same_requests(trace, load_trace(path))
    assert_same_requests(trace, iter_trace(path))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 999),
    block_records=st.sampled_from([2, 3, 7]),
    requests=st.integers(0, 60),
    data=st.data(),
)
def test_v3_seek_to_block_suffix_equals_full_scan(
    tmp_path_factory, seed, block_records, requests, data
):
    """``iter_range(n)`` == skipping the first n blocks of a serial scan,
    and ``entry_snapshot(n)`` == the live set a serial replay has there."""
    trace = churny_trace(seed, requests)
    path = tmp_path_factory.mktemp("v3seek") / "t.v3"
    save_trace(trace, path, version=3, block_records=block_records)
    index = read_block_index(path)
    assert index is not None
    assert index.total_records == len(trace)
    assert sum(block.records for block in index.blocks) == len(trace)

    block = data.draw(st.integers(0, max(0, len(index.blocks) - 1)))
    start = index.blocks[block].start if index.blocks else 0
    assert_same_requests(list(trace)[start:], index.iter_range(block))

    live = {}
    for request in list(trace)[:start]:
        if request.is_insert:
            live[str(request.name)] = request.size
        else:
            live.pop(str(request.name), None)
    snapshot = dict(index.entry_snapshot(block)) if index.blocks else {}
    assert snapshot == live


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 99), compress=st.booleans(), data=st.data())
def test_v3_truncation_detected_at_every_cut(tmp_path_factory, seed, compress, data):
    """Cutting a v3 file anywhere must raise a loud error naming the path."""
    trace = churny_trace(seed, 24)
    path = tmp_path_factory.mktemp("v3cut") / "whole.v3"
    save_trace(trace, path, version=3, compress=compress, block_records=5)
    whole = path.read_bytes()
    cut = data.draw(st.integers(1, len(whole) - 1))
    clipped = path.parent / f"cut-{cut}.v3"
    clipped.write_bytes(whole[:cut])
    with pytest.raises(TraceFormatError, match="cut-"):
        list(iter_trace(clipped))
    with pytest.raises(TraceFormatError):
        load_trace(clipped)


# ----------------------------------------------------------------- fixed cases
def test_v3_empty_trace_round_trips(tmp_path):
    path = tmp_path / "empty.v3"
    save_trace(Trace([], label="empty"), path, version=3)
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.label == "empty"
    index = read_block_index(path)
    assert index is not None
    assert len(index) == 0
    assert index.total_records == 0


def test_v3_label_and_metadata_round_trip(tmp_path):
    trace = Trace([Request.insert("x", 3)], label="v3 demo", metadata={"seed": 9})
    path = tmp_path / "meta.v3"
    save_trace(trace, path, version=3, metadata={"extra": True})
    loaded = load_trace(path)
    assert loaded.label == "v3 demo"
    assert loaded.metadata == {"seed": 9, "extra": True}


def test_v3_trace_file_source_is_re_iterable(tmp_path):
    trace = churny_trace(4, 30)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=7)
    source = TraceFileSource(path)
    assert_same_requests(trace, source)
    assert_same_requests(trace, source)


def test_v3_info_reports_blocks_and_seekability(tmp_path):
    trace = churny_trace(5, 23)
    plain = tmp_path / "t.v3"
    save_trace(trace, plain, version=3, block_records=5)
    info = trace_info(plain)
    assert info.version == 3
    assert info.seekable
    assert info.blocks == 5  # ceil(23 / 5)
    assert info.block_records == 5
    assert info.requests == 23

    gz = tmp_path / "t.v3.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    info = trace_info(gz)
    assert info.version == 3
    assert not info.seekable
    assert info.requests == 23

    v2 = tmp_path / "t.v2"
    save_legacy_trace(trace, v2)
    info = trace_info(v2)
    assert not info.seekable
    assert info.blocks == 0


def test_read_block_index_returns_none_for_unseekable_files(tmp_path):
    trace = churny_trace(6, 10)
    v2 = tmp_path / "t.v2"
    save_legacy_trace(trace, v2)
    assert read_block_index(v2) is None

    v1 = tmp_path / "t.v1"
    save_trace(trace, v1, version=1)
    assert read_block_index(v1) is None

    v3 = tmp_path / "t.v3"
    save_trace(trace, v3, version=3)
    gz = tmp_path / "t.v3.gz"
    gz.write_bytes(gzip.compress(v3.read_bytes()))
    assert read_block_index(gz) is None


def test_v3_per_block_compression_stays_seekable(tmp_path):
    """``compress=True`` on v3 compresses each block body, not the container,
    so the footer index still works."""
    trace = churny_trace(7, 40)
    path = tmp_path / "t.v3z"
    save_trace(trace, path, version=3, compress=True, block_records=8)
    index = read_block_index(path)
    assert index is not None
    assert index.compressed
    assert len(index) == 5
    assert_same_requests(trace, index.iter_range(0))


def test_v3_bad_footer_magic_rejected(tmp_path):
    trace = churny_trace(8, 12)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=4)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    broken = tmp_path / "badfooter.v3"
    broken.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="footer magic"):
        read_block_index(broken)


def test_v3_trailer_offset_out_of_range_rejected(tmp_path):
    trace = churny_trace(9, 12)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=4)
    data = bytearray(path.read_bytes())
    data[-16:-8] = (len(data) + 100).to_bytes(8, "little")
    broken = tmp_path / "badoffset.v3"
    broken.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="past the footer"):
        read_block_index(broken)


def test_v3_footer_count_mismatch_rejected(tmp_path):
    """A footer whose per-block record counts don't sum to the END total."""
    trace = churny_trace(10, 12)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=4)
    index = read_block_index(path)
    data = bytearray(path.read_bytes())
    # The END record starts with tag 0x00 then varint(total); bump the total.
    end_offset = int.from_bytes(data[-16:-8], "little")
    assert data[end_offset] == 0x00
    old = encode_varint(index.total_records)
    new = encode_varint(index.total_records + 1)
    assert len(old) == len(new)
    data[end_offset + 1 : end_offset + 1 + len(old)] = new
    broken = tmp_path / "badcount.v3"
    broken.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="sum to"):
        read_block_index(broken)


def test_v3_block_tag_mismatch_rejected(tmp_path):
    """Corrupting the tag byte at a block's indexed offset fails the seek."""
    trace = churny_trace(11, 12)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=4)
    index = read_block_index(path)
    data = bytearray(path.read_bytes())
    data[index.blocks[1].offset] = 0x7E
    broken = tmp_path / "badtag.v3"
    broken.write_bytes(bytes(data))
    corrupt = read_block_index(broken)
    with pytest.raises(TraceFormatError, match="block tag|block 1"):
        list(corrupt.iter_range(1))


def test_v3_rejects_block_size_below_one(tmp_path):
    with pytest.raises(ValueError, match="block size"):
        save_trace(Trace([]), tmp_path / "x.v3", version=3, block_records=0)


def test_v2z_gzip_container_truncation_detected_at_every_cut(tmp_path):
    """The gzip-container regression: a clipped ``.gz`` trace must raise a
    loud truncation error naming the file, never yield a silent prefix."""
    trace = churny_trace(12, 40)
    plain = tmp_path / "t.v2"
    save_legacy_trace(trace, plain)
    whole = gzip.compress(plain.read_bytes())
    for cut in sorted({1, 10, len(whole) // 3, len(whole) // 2, len(whole) - 1}):
        clipped = tmp_path / f"cut-{cut}.v2.gz"
        clipped.write_bytes(whole[:cut])
        with pytest.raises(ValueError, match=f"cut-{cut}|empty file"):
            list(iter_trace(clipped))
        with pytest.raises(ValueError):
            load_trace(clipped)


OVERLONG_VARINT = bytes([0xFF] * 10)


@pytest.mark.parametrize(
    "decode, where",
    [
        # a snapshot entry whose name-prefix varint never terminates
        (lambda: _decode_snapshot(OVERLONG_VARINT, 1, "f", 7), "f: block 7 snapshot: "),
        # a snapshot entry whose size varint never terminates
        (
            lambda: _decode_snapshot(bytes([0, 1]) + b"a" + OVERLONG_VARINT, 1, "f", 7),
            "f: block 7 snapshot: ",
        ),
        # the first record's size, in block 5
        (
            lambda: list(
                _decode_block_records(
                    bytes([0x01, 0, 1]) + b"a" + OVERLONG_VARINT, _NameTable(), 1, "f", "block 5"
                )
            ),
            "f: block 5, record 1: ",
        ),
        # the second record's name id, in block 5
        (
            lambda: list(
                _decode_block_records(
                    bytes([0x01, 0, 1]) + b"a" + bytes([3, 0x03]) + OVERLONG_VARINT,
                    _NameTable(),
                    2,
                    "f",
                    "block 5",
                )
            ),
            "f: block 5, record 2: ",
        ),
    ],
    ids=["snapshot-prefix", "snapshot-size", "record-size", "record-name-id"],
)
def test_corrupt_varint_errors_name_the_block_and_record(decode, where):
    """An over-long varint names its block (and record), not the block index
    posing as a record number or a record number without its block."""
    with pytest.raises(TraceFormatError) as caught:
        decode()
    assert str(caught.value) == where + "corrupt varint (over 9 bytes)"


def test_corrupt_varint_in_a_crafted_v3_file_names_block_and_record(tmp_path):
    """End to end: a v3 file whose second block holds an over-long size."""
    good = tmp_path / "good.v3"
    save_trace(Trace([Request.insert("a", 1), Request.insert("b", 2)]), good,
               version=3, block_records=1)
    data = good.read_bytes()
    index = read_block_index(good)
    second = index.blocks[1].offset
    # BLOCK tag, 1 record, 1 entry, snapshot "a"/1 (4 bytes), body length,
    # body = INSERT_NEW prefix 0, suffix "b", size <- replaced by 10 x 0xFF.
    body = bytes([0x01, 0, 1]) + b"b" + OVERLONG_VARINT
    snapshot = bytes([0, 1]) + b"a" + bytes([1])
    block = bytes([0x05, 1, 1, len(snapshot)]) + snapshot + bytes([len(body)]) + body
    bad = tmp_path / "bad.v3"
    bad.write_bytes(data[:second] + block)
    with pytest.raises(TraceFormatError, match=r"block 1, record 1: corrupt varint"):
        list(iter_trace(bad))


# ------------------------------------------------- synced files: continuation
def write_synced(path, trace, compress=False, block_records=40, batch=7):
    """Write ``trace`` in ``batch``-request syncs: a snapshot block opens
    each ``block_records``-record segment and continuation blocks follow."""
    writer = open_trace_writer(
        path, version=3, label="synced", compress=compress, block_records=block_records
    )
    for index, request in enumerate(trace, 1):
        writer.write(request)
        if index % batch == 0:
            writer.sync()
    writer.close()


def read_uvarint(data, pos):
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


def block_layout(path):
    """``(header_end, [(tag, end_offset, records), ...], end_tag_offset)``,
    parsed from the raw bytes independently of the reader under test."""
    data = path.read_bytes()
    with open(path, "rb") as handle:
        read_binary_header(handle, path)
        pos = handle.tell()
    header_end = pos
    blocks = []
    while data[pos] in (0x05, 0x06):
        tag = data[pos]
        records, pos = read_uvarint(data, pos + 1)
        if tag == 0x05:
            _entries, pos = read_uvarint(data, pos)
            snapshot_len, pos = read_uvarint(data, pos)
            pos += snapshot_len
        body_len, pos = read_uvarint(data, pos)
        pos += body_len
        blocks.append((tag, pos, records))
    return header_end, blocks, pos


@pytest.mark.parametrize("compress", [False, True, "background"])
def test_synced_file_round_trips_with_continuation_blocks(tmp_path, compress):
    trace = churny_trace(21, 130)
    path = tmp_path / "synced.v3"
    write_synced(path, trace, compress=compress)
    _header_end, blocks, _end = block_layout(path)
    tags = [tag for tag, _offset, _records in blocks]
    # Segments of 40 records: 5 syncs of 7 then the rollover flush of 5,
    # so each segment is one snapshot block plus continuation blocks.
    assert tags.count(0x05) == 4 and tags.count(0x06) > tags.count(0x05)
    assert_same_requests(trace, load_trace(path))
    index = read_block_index(path)
    assert [block.records for block in index.blocks] == [40, 40, 40, 10]
    for segment in range(len(index)):
        start = index.blocks[segment].start
        assert_same_requests(list(trace)[start:], index.iter_range(segment))
        live = {}
        for request in list(trace)[:start]:
            if request.is_insert:
                live[str(request.name)] = request.size
            else:
                live.pop(str(request.name), None)
        assert dict(index.entry_snapshot(segment)) == live
    tail = read_trace_tail(path)
    assert tail.complete and tail.blocks == len(blocks)
    assert_same_requests(trace, tail.requests)


@pytest.mark.parametrize("compress", [False, True, "background"])
def test_synced_file_truncation_at_every_cut(tmp_path, compress):
    """Cut a synced file anywhere past its header: the strict reader must
    raise, and the tail reader must return exactly the records of the
    complete blocks before the cut."""
    trace = list(churny_trace(22, 100))
    path = tmp_path / "synced.v3"
    write_synced(path, trace, compress=compress)
    whole = path.read_bytes()
    header_end, blocks, end_tag = block_layout(path)
    clipped = tmp_path / "cut.v3"
    for cut in range(header_end, len(whole)):
        clipped.write_bytes(whole[:cut])
        with pytest.raises(TraceFormatError, match="cut.v3"):
            list(iter_trace(clipped))
        complete = [(end, records) for _tag, end, records in blocks if end <= cut]
        kept = sum(records for _end, records in complete)
        tail = read_trace_tail(clipped)
        assert tail.blocks == len(complete), cut
        assert tail.complete == (cut > end_tag), cut
        assert_same_requests(trace[:kept], tail.requests)


def crafted(tmp_path, name, body):
    """A v3 header followed by ``body`` (raw blocks, END/footer or not)."""
    header = tmp_path / "header.v3"
    save_trace(Trace([], label="crafted"), header, version=3)
    header_end, _blocks, _end = block_layout(header)
    path = tmp_path / name
    path.write_bytes(header.read_bytes()[:header_end] + body)
    return path


def test_continuation_block_first_is_rejected(tmp_path):
    body = bytes([0x01, 0, 1]) + b"a" + bytes([4])
    path = crafted(tmp_path, "lead.v3", bytes([0x06, 1, len(body)]) + body)
    with pytest.raises(TraceFormatError, match="block 0: continuation block with no snapshot"):
        list(iter_trace(path))
    tail = read_trace_tail(path)
    assert tail.requests == [] and not tail.complete


def test_continuation_block_with_an_unbound_id_is_rejected(tmp_path):
    """The snapshot block binds "a" to id 0; the continuation deletes id 5."""
    first = bytes([0x01, 0, 1]) + b"a" + bytes([4])
    second = bytes([0x03, 5])
    blocks = (
        bytes([0x05, 1, 0, 0, len(first)]) + first
        + bytes([0x06, 1, len(second)]) + second
    )
    path = crafted(tmp_path, "unbound.v3", blocks)
    with pytest.raises(
        TraceFormatError, match=r"block 0\.1, record 1: name id 5 references an unbound"
    ):
        list(iter_trace(path))
    assert [r.name for r in read_trace_tail(path).requests] == ["a"]


def test_footer_segment_count_disagreeing_with_blocks_read_is_rejected(tmp_path):
    """Move one record from segment 0's footer entry to segment 1's: the
    END total still matches, the segments do not."""
    trace = churny_trace(23, 60)
    path = tmp_path / "synced.v3"
    write_synced(path, trace)
    index = read_block_index(path)
    data = path.read_bytes()
    end_offset = int.from_bytes(data[-16:-8], "little")
    records = [block.records for block in index.blocks]
    records[0] += 1
    records[1] -= 1
    footer = bytearray([0x00]) + encode_varint(index.total_records)
    footer += encode_varint(len(records))
    previous = 0
    for block, count in zip(index.blocks, records):
        footer += encode_varint(block.offset - previous) + encode_varint(count)
        previous = block.offset
    footer += data[-16:]
    broken = tmp_path / "badsegment.v3"
    broken.write_bytes(data[:end_offset] + bytes(footer))
    with pytest.raises(
        TraceFormatError, match="footer entry 0 disagrees with the segment of block 0"
    ):
        list(iter_trace(broken))
    with pytest.raises(
        TraceFormatError, match=r"footer entry 0 .* footer: \[\d+, 41\], read: \[\d+, 40\]"
    ):
        list(read_block_index(broken).iter_range(0))


# Digests of offline writes (no sync) of one fixed trace: the byte layout of
# files written without sync() is pinned, so an encoder change that moves a
# byte is caught here rather than by readers of archived traces.
OFFLINE_DIGESTS = {
    "plain": "6f2aecb6e0786f79ad1557351c9cfcddcc4e7e4ad16cdc35247a3fdeef229af0",
    "zlib": "bc31922680b6483647dc590992fdd513e93ac0315d82f7561b6fb2c0fb2a9ac0",
    "background": "bc31922680b6483647dc590992fdd513e93ac0315d82f7561b6fb2c0fb2a9ac0",
    "block_records=1000": "f1740775e71c6b2c399d37392e9183513fcfe6076bcbcece19de99c58b45b0f4",
}


@pytest.mark.parametrize("variant", sorted(OFFLINE_DIGESTS))
def test_offline_writes_are_byte_pinned(tmp_path, variant):
    if variant in ("zlib", "background") and "ng" in zlib.ZLIB_RUNTIME_VERSION:
        pytest.skip(f"zlib-ng {zlib.ZLIB_RUNTIME_VERSION} deflates to other bytes")
    trace = churn_trace(5000, UniformSizes(1, 64), target_live=200, seed=16)
    options = {
        "plain": {},
        "zlib": {"compress": True},
        "background": {"compress": "background"},
        "block_records=1000": {"block_records": 1000},
    }[variant]
    path = tmp_path / "pinned.v3"
    save_trace(trace, path, version=3, **options)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OFFLINE_DIGESTS[variant]
