"""Round-trip and cross-format tests for the trace file formats (v0-v3).

The cross-format battery saves randomized traces — weird names (whitespace,
``#``, ``%``, unicode, space-adjacent), sizes from 1 up to multi-byte-varint
huge — through every coexisting format and checks that all loaders agree
request-for-request, so the formats cannot drift apart silently.  The
read-only legacy v2 format is written by the frozen encoder in
:mod:`benchmarks.legacy_codec`, byte-for-byte what the retired v2 writer
produced.  The read-only v0 text format is read from the committed fixture
``tests/data/legacy-churn.v0`` (written by the retired v0 writer) or from
lines these tests format themselves.
"""

import gzip
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from benchmarks.legacy_codec import save_legacy_trace
from repro.workloads import (
    Request,
    UniformSizes,
    Trace,
    TraceFileSource,
    TraceFormatError,
    churn_trace,
    iter_trace,
    load_trace,
    open_trace_writer,
    save_trace,
    trace_info,
)
from repro.workloads.binary import MAGIC, encode_varint
from repro.workloads.replay import TRACE_FORMAT_VERSION

DATA = Path(__file__).parent / "data"


def save_any(trace, path, version, compress=False, metadata=None):
    """``save_trace``, with legacy v2 written by the frozen encoder."""
    if version == 2:
        save_legacy_trace(trace, path, metadata=metadata, compress=compress)
    else:
        save_trace(trace, path, version=version, compress=compress, metadata=metadata)


def write_v0(trace, path):
    """Format ``trace`` as a headerless v0 text file: an optional ``# trace``
    label line, then raw ``I name size`` / ``D name`` lines."""
    lines = [f"# trace {trace.label}"]
    for r in trace:
        lines.append(f"I {r.name} {r.size}" if r.is_insert else f"D {r.name}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_trace(names, sizes, shuffle_seed, label="t", metadata=None):
    """A well-formed trace inserting every name and deleting a prefix of them
    in a seed-determined order (so deletes never dangle)."""
    requests = [Request.insert(name, size) for name, size in zip(names, sizes)]
    rng = random.Random(shuffle_seed)
    victims = list(names)
    rng.shuffle(victims)
    requests.extend(Request.delete(name) for name in victims[: len(victims) // 2])
    return Trace(requests, label=label, metadata=metadata)


def assert_round_trip(trace, loaded):
    assert len(loaded) == len(trace)
    for original, copy in zip(trace, loaded):
        assert copy.op == original.op
        assert copy.name == str(original.name)
        if original.is_insert:
            assert copy.size == original.size


names_strategy = st.lists(
    st.text(min_size=1, max_size=12),
    min_size=0,
    max_size=12,
    unique=True,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(names=names_strategy, data=st.data())
def test_v1_round_trip_arbitrary_names(tmp_path_factory, names, data):
    """v1 survives whitespace, newlines, '#', '%', and unicode in names."""
    sizes = [data.draw(st.integers(min_value=1, max_value=512)) for _ in names]
    trace = build_trace(names, sizes, shuffle_seed=data.draw(st.integers(0, 99)))
    path = tmp_path_factory.mktemp("v1") / "trace.txt"
    save_trace(trace, path)
    assert_round_trip(trace, load_trace(path))


@pytest.mark.parametrize(
    "name",
    ["a b", "tab\tname", "line\nbreak", "# comment", "I", "D 5", "100%", "naïve name", " "],
)
def test_v1_round_trips_one_odd_name(tmp_path, name):
    trace = Trace([Request.insert(name, 7), Request.delete(name)], label="odd")
    path = tmp_path / "odd.txt"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert [r.name for r in loaded] == [name, name]


def test_v1_label_and_metadata_round_trip(tmp_path):
    trace = Trace(
        [Request.insert("x", 3)],
        label="churn demo\nwith newline",
        metadata={"seed": 7, "kind": "churn"},
    )
    path = tmp_path / "meta.txt"
    save_trace(trace, path, metadata={"extra": True})
    loaded = load_trace(path)
    assert loaded.label == "churn demo\nwith newline"
    assert loaded.metadata == {"seed": 7, "kind": "churn", "extra": True}
    assert load_trace(path, label="override").label == "override"


@pytest.mark.parametrize("version", [0, 1])
def test_empty_trace_round_trips(tmp_path, version):
    path = tmp_path / f"empty-v{version}.txt"
    (write_v0 if version == 0 else save_trace)(Trace([], label="empty"), path)
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.label == "empty"


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    names=st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
            min_size=1,
            max_size=8,
        ),
        min_size=0,
        max_size=10,
        unique=True,
    ),
    data=st.data(),
)
def test_v0_round_trip_safe_names(tmp_path_factory, names, data):
    sizes = [data.draw(st.integers(min_value=1, max_value=64)) for _ in names]
    trace = build_trace(names, sizes, shuffle_seed=data.draw(st.integers(0, 99)))
    path = tmp_path_factory.mktemp("v0") / "trace.txt"
    write_v0(trace, path)
    assert_round_trip(trace, load_trace(path))


@pytest.mark.parametrize("compress", [False, True])
def test_v0_writes_are_refused_naming_v1_and_v3(tmp_path, compress):
    with pytest.raises(ValueError, match="v0 text trace format is read-only.*version=1 or version=3"):
        open_trace_writer(tmp_path / "x.v0", version=0, compress=compress)
    with pytest.raises(ValueError, match="read-only"):
        save_trace(Trace([Request.insert("a", 1)]), tmp_path / "y.v0", version=0)
    assert not (tmp_path / "x.v0").exists() and not (tmp_path / "y.v0").exists()


def test_v0_legacy_file_still_loads(tmp_path):
    """A file written by the original (pre-versioning) writer parses as v0."""
    path = tmp_path / "legacy.txt"
    path.write_text("# trace legacy-label\nI obj-1 5\nI obj-2 3\nD obj-1\n", encoding="utf-8")
    loaded = load_trace(path)
    assert loaded.label == "legacy-label"
    assert [(r.op, r.name) for r in loaded] == [
        ("insert", "obj-1"),
        ("insert", "obj-2"),
        ("delete", "obj-1"),
    ]
    assert loaded.metadata == {}


def test_v1_empty_name_rejected(tmp_path):
    trace = Trace([Request.insert("", 2)])
    with pytest.raises(ValueError, match="empty name"):
        save_trace(trace, tmp_path / "bad.txt")


def test_unknown_version_header_rejected(tmp_path):
    path = tmp_path / "future.txt"
    path.write_text("# repro-trace v9\nI a 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported trace format"):
        load_trace(path)
    with pytest.raises(ValueError, match="version"):
        save_trace(Trace([]), tmp_path / "x.txt", version=9)


def test_malformed_v1_metadata_rejected(tmp_path):
    path = tmp_path / "badmeta.txt"
    path.write_text("# repro-trace v1\n# meta {not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match="metadata"):
        load_trace(path)


def test_non_dict_v1_metadata_rejected(tmp_path):
    path = tmp_path / "intmeta.txt"
    path.write_text("# repro-trace v1\n# meta 5\nI a 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        load_trace(path)


def test_default_format_is_v1(tmp_path):
    path = tmp_path / "default.txt"
    save_trace(Trace([Request.insert("a b", 2)]), path)
    assert TRACE_FORMAT_VERSION == 1
    assert path.read_text(encoding="utf-8").startswith("# repro-trace v1\n")


# ---------------------------------------------------------- cross-format battery
#: Names that historically break line-oriented formats: whitespace (leading,
#: trailing, inner), record-keyword lookalikes, comment/escape characters,
#: unicode, and near-empty names.
WEIRD_NAMES = [
    " ",
    "  ",
    " x",
    "x ",
    "a b",
    "tab\tname",
    "line\nbreak",
    "# comment",
    "# trace fake",
    "# repro-trace v1",
    "I",
    "D",
    "D 5",
    "100%",
    "%41",
    "naïve",
    "名前",
    "обj",
    " sep",
]


def random_weird_trace(seed, requests, huge_sizes=False):
    """A seeded-random well-formed trace: weird + plain names, name reuse
    after deletion (exercises the v2 intern table), sizes including 1 and —
    when asked — multi-byte-varint huge values."""
    rng = random.Random(seed)
    pool = WEIRD_NAMES + [f"obj-{i}" for i in range(40)]
    live = {}
    out = []
    max_size = 10**12 if huge_sizes else 512
    for _ in range(requests):
        if live and (rng.random() < 0.45 or len(live) == len(pool)):
            name = rng.choice(sorted(live))
            live.pop(name)
            out.append(Request.delete(name))
        else:
            name = rng.choice([n for n in pool if n not in live])
            size = rng.choice([1, 2, rng.randint(1, 64), rng.randint(1, max_size)])
            live[name] = size
            out.append(Request.insert(name, size))
    return Trace(out, label=f"weird-{seed}", metadata={"seed": seed})


def requests_of(loaded):
    return [(r.op, r.name, r.size if r.is_insert else 0) for r in loaded]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("requests", [1, 2, 37, 400])
def test_cross_format_loaders_agree(tmp_path, seed, requests):
    """The same trace through v1, legacy v2, v3, and their compressed
    variants (plus gzip containers) loads back identically under every
    loader, request for request."""
    trace = random_weird_trace(seed * 101 + requests, requests, huge_sizes=(seed % 2 == 0))
    expected = [(r.op, str(r.name), r.size if r.is_insert else 0) for r in trace]
    paths = {}
    for tag, kwargs in [
        ("v1", {"version": 1}),
        ("v2", {"version": 2}),
        ("v2z", {"version": 2, "compress": True}),
        ("v3", {"version": 3}),
        ("v3z", {"version": 3, "compress": True}),
    ]:
        paths[tag] = tmp_path / f"t.{tag}"
        save_any(trace, paths[tag], **kwargs)
    # gzip container around the text and the binary formats
    for tag in ("v1", "v2z", "v3z"):
        gz = tmp_path / f"t.{tag}.gz"
        gz.write_bytes(gzip.compress(paths[tag].read_bytes()))
        paths[f"{tag}.gz"] = gz
    for tag, path in paths.items():
        loaded = load_trace(path)
        assert requests_of(loaded) == expected, tag
        assert requests_of(iter_trace(path)) == expected, f"iter:{tag}"
        assert loaded.label == trace.label, tag
        assert loaded.metadata == trace.metadata, tag


@pytest.mark.parametrize(
    "version, compress", [(1, False), (2, False), (2, True), (3, False), (3, True)]
)
def test_cross_format_v0_agrees_on_safe_names(tmp_path, version, compress):
    """The committed v0 fixture (v0-safe names) reads back as the trace it
    was written from, and re-encoding it through each other format,
    including the legacy v2, keeps it request-for-request."""
    trace = churn_trace(1500, UniformSizes(1, 80), target_live=60, seed=21, label="battery")
    expected = [(r.op, str(r.name), r.size if r.is_insert else 0) for r in trace]
    fixture = DATA / "legacy-churn.v0"
    assert requests_of(load_trace(fixture)) == expected
    assert requests_of(iter_trace(fixture)) == expected
    path = tmp_path / f"t.v{version}{'z' if compress else ''}"
    save_any(load_trace(fixture), path, version, compress=compress)
    assert requests_of(load_trace(path)) == expected
    assert requests_of(iter_trace(path)) == expected
    assert load_trace(path).label == "battery"


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(names=names_strategy, data=st.data())
@pytest.mark.parametrize("compress", [False, True])
def test_v2_round_trip_arbitrary_names(tmp_path_factory, names, data, compress):
    """v2 survives arbitrary unicode names and huge sizes (hypothesis)."""
    sizes = [data.draw(st.integers(min_value=1, max_value=2**40)) for _ in names]
    trace = build_trace(names, sizes, shuffle_seed=data.draw(st.integers(0, 99)))
    path = tmp_path_factory.mktemp("v2") / "trace.bin"
    save_legacy_trace(trace, path, compress=compress)
    assert_round_trip(trace, load_trace(path))


def test_v2_label_metadata_and_override_round_trip(tmp_path):
    trace = Trace(
        [Request.insert("x", 3)],
        label="churn demo\nwith newline",
        metadata={"seed": 7, "kind": "churn"},
    )
    path = tmp_path / "meta.bin"
    save_legacy_trace(trace, path, metadata={"extra": True}, compress=True)
    loaded = load_trace(path)
    assert loaded.label == "churn demo\nwith newline"
    assert loaded.metadata == {"seed": 7, "kind": "churn", "extra": True}
    assert load_trace(path, label="override").label == "override"


@pytest.mark.parametrize("compress", [False, True])
def test_v2_empty_trace_round_trips(tmp_path, compress):
    path = tmp_path / "empty.bin"
    save_legacy_trace(Trace([], label="empty"), path, compress=compress)
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.label == "empty"


def test_v2_empty_name_round_trips(tmp_path):
    """Unlike the line-oriented formats, the binary formats have a length
    field and can carry the empty name."""
    trace = Trace([Request.insert("", 2), Request.delete("")])
    for version in (2, 3):
        path = tmp_path / f"noname.v{version}"
        save_any(trace, path, version)
        assert [r.name for r in load_trace(path)] == ["", ""]


def test_v2_name_coding_stays_compact(tmp_path):
    """Front-coding + live-scoped ids: reinserting a just-deleted long name
    costs a few bytes (full prefix share), deletes cost ~2 bytes — the
    90-byte name must hit the file once, not 51 times."""
    long_name = "a-rather-long-object-name-" + "x" * 64
    trace = Trace(
        [Request.insert(long_name, 5), Request.delete(long_name)] * 50
        + [Request.insert(long_name, 5)]
    )
    for version in (2, 3):
        path = tmp_path / f"intern.v{version}"
        save_any(trace, path, version)
        assert path.stat().st_size < len(long_name) + 101 * 5 + 64, version
        assert requests_of(load_trace(path)) == requests_of(trace)


def test_v2_ids_are_recycled_across_object_generations(tmp_path):
    """A long trace whose live set stays tiny must keep its name ids tiny
    too (the LIFO pool recycles them), no matter how many distinct names
    pass through."""
    out = []
    for i in range(3000):
        name = f"generation-{i:07d}"
        out.append(Request.insert(name, 1))
        out.append(Request.delete(name))
    trace = Trace(out)
    for version in (2, 3):
        path = tmp_path / f"recycle.v{version}"
        save_any(trace, path, version)
        # Every delete must be a 2-byte DELETE_REF (tag + id 0): inserts are
        # front-coded to ~5 bytes, so the whole file stays tiny.
        assert path.stat().st_size < 6000 * 7, version
        assert requests_of(load_trace(path)) == requests_of(trace)


def test_trace_info_matches_trace_properties(tmp_path):
    trace = random_weird_trace(99, 300)
    path = tmp_path / "t.v3z"
    save_trace(trace, path, version=3, compress=True)
    info = trace_info(path)
    assert info.requests == len(trace)
    assert info.inserts == trace.num_inserts
    assert info.deletes == trace.num_deletes
    assert info.delta == trace.delta
    assert info.peak_volume == trace.peak_volume()
    assert info.total_inserted_volume == trace.total_inserted_volume
    assert info.label == trace.label
    assert info.metadata == trace.metadata
    assert info.version == 3 and info.compressed


def test_trace_file_source_is_re_iterable(tmp_path):
    trace = random_weird_trace(7, 50)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3)
    source = TraceFileSource(path)
    assert requests_of(source) == requests_of(source)
    assert source.label == trace.label
    assert source.metadata == trace.metadata


def test_save_compress_requires_v2(tmp_path):
    """Only the binary format compresses; the error names v3, the binary
    version that is still written."""
    with pytest.raises(ValueError, match="version=3"):
        save_trace(Trace([]), tmp_path / "x", version=1, compress=True)


@pytest.mark.parametrize("compress", [False, True])
def test_v2_writes_are_refused_naming_v3(tmp_path, compress):
    with pytest.raises(ValueError, match="read-only.*version=3"):
        open_trace_writer(tmp_path / "x.v2", version=2, compress=compress)
    with pytest.raises(ValueError, match="version=3"):
        save_trace(Trace([]), tmp_path / "y.v2", version=2)
    assert not (tmp_path / "x.v2").exists() and not (tmp_path / "y.v2").exists()


@pytest.mark.parametrize("name", ["legacy-churn.v2", "legacy-churn.v2z"])
def test_committed_legacy_v2_fixtures_decode_to_the_seeded_trace(tmp_path, name):
    """Files written by the retired v2 writer itself still read back."""
    compress = name.endswith("z")
    expected = churn_trace(2000, target_live=60, seed=2014)
    expected.metadata["seed"] = 2014
    loaded = load_trace(DATA / name)
    assert requests_of(loaded) == [
        (r.op, str(r.name), r.size if r.is_insert else 0) for r in expected
    ]
    assert loaded.label == expected.label
    assert loaded.metadata == {"seed": 2014}
    info = trace_info(DATA / name)
    assert info.version == 2 and info.compressed == compress
    # The frozen encoder reproduces the committed files byte for byte.
    again = tmp_path / name
    save_legacy_trace(expected, again, compress=compress)
    assert again.read_bytes() == (DATA / name).read_bytes()


# ------------------------------------------------------------- v2 error paths
def v2_file(tmp_path, body, version=2, flags=0, header=b"{}"):
    """Hand-assemble a v2 file around ``body`` (uncompressed records)."""
    path = tmp_path / "crafted.bin"
    path.write_bytes(
        MAGIC + encode_varint(version) + bytes([flags]) + encode_varint(len(header)) + header + body
    )
    return path


END = bytes([0x00])


def test_empty_file_rejected_by_every_reader(tmp_path):
    """The empty-file bugfix: a zero-byte file used to fall through format
    detection as an empty v0 trace; now every reader rejects it clearly."""
    path = tmp_path / "empty"
    path.write_bytes(b"")
    for reader in (load_trace, lambda p: list(iter_trace(p)), trace_info):
        with pytest.raises(ValueError, match="empty file"):
            reader(path)
    gz = tmp_path / "empty.gz"
    gz.write_bytes(gzip.compress(b""))
    with pytest.raises(ValueError, match="empty file"):
        load_trace(gz)


def test_v2_truncation_detected_at_every_cut(tmp_path):
    """Cutting a valid v2 file anywhere must raise, never yield a prefix."""
    trace = random_weird_trace(3, 40)
    for compress in (False, True):
        path = tmp_path / f"whole{compress}.bin"
        save_legacy_trace(trace, path, compress=compress)
        data = path.read_bytes()
        for cut in {1, 4, len(data) // 4, len(data) // 2, len(data) - 1}:
            clipped = tmp_path / f"cut{compress}-{cut}.bin"
            clipped.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                list(iter_trace(clipped))
            with pytest.raises(ValueError):
                load_trace(clipped)


def test_v2_compressed_body_truncation_raises_with_path_at_every_cut(tmp_path):
    """Clipping a zlib-compressed v2 body at *any* byte must raise a
    :class:`TraceFormatError` naming the file — never a bare ``zlib.error``
    or a silent prefix."""
    whole = tmp_path / "whole.v2z"
    save_legacy_trace(random_weird_trace(3, 30), whole, compress=True)
    data = whole.read_bytes()
    clipped = tmp_path / "clipped.v2z"
    for cut in range(1, len(data)):
        clipped.write_bytes(data[:cut])
        with pytest.raises(TraceFormatError, match="clipped"):
            list(iter_trace(clipped))
        with pytest.raises(TraceFormatError, match="clipped"):
            trace_info(clipped)


def test_v2_bad_magic_rejected(tmp_path):
    path = tmp_path / "badmagic.bin"
    path.write_bytes(b"\x93RPTRACX" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        load_trace(path)


def test_v2_unknown_version_rejected(tmp_path):
    path = v2_file(tmp_path, END + encode_varint(0), version=4)
    with pytest.raises(ValueError, match="unsupported binary trace version 4"):
        load_trace(path)
    with pytest.raises(ValueError, match="version"):
        save_trace(Trace([]), tmp_path / "x.bin", version=9)


def test_v2_unknown_flags_rejected(tmp_path):
    path = v2_file(tmp_path, END + encode_varint(0), flags=0x82)
    with pytest.raises(ValueError, match="unknown flag bits"):
        load_trace(path)


def test_v2_unknown_record_tag_rejected(tmp_path):
    path = v2_file(tmp_path, bytes([0x7F]) + END + encode_varint(0))
    with pytest.raises(ValueError, match="unknown record tag 0x7f"):
        load_trace(path)


def test_v2_unbound_name_reference_rejected(tmp_path):
    # INSERT_REF of id 5 with nothing live
    body = bytes([0x02]) + encode_varint(5) + encode_varint(1) + END + encode_varint(1)
    with pytest.raises(ValueError, match="unbound"):
        load_trace(v2_file(tmp_path, body))
    # DELETE_REF of an id that was never bound
    body = bytes([0x03]) + encode_varint(0) + END + encode_varint(1)
    with pytest.raises(ValueError, match="unbound"):
        load_trace(v2_file(tmp_path, body))


def insert_new(name, size):
    raw = name.encode("utf-8")
    return bytes([0x01]) + encode_varint(0) + encode_varint(len(raw)) + raw + encode_varint(size)


def test_v2_record_count_mismatch_rejected(tmp_path):
    body = insert_new("a", 3) + END + encode_varint(9)
    with pytest.raises(ValueError, match="count mismatch"):
        load_trace(v2_file(tmp_path, body))


def test_v2_overlong_name_prefix_rejected(tmp_path):
    # front-coded prefix longer than the previous name (which is empty)
    body = bytes([0x01]) + encode_varint(7) + encode_varint(0) + encode_varint(1)
    body += END + encode_varint(1)
    with pytest.raises(ValueError, match="prefix length"):
        load_trace(v2_file(tmp_path, body))


def test_v2_trailing_data_rejected(tmp_path):
    path = v2_file(tmp_path, END + encode_varint(0) + b"junk")
    with pytest.raises(ValueError, match="trailing data"):
        load_trace(path)


def test_v2_malformed_header_block_rejected(tmp_path):
    path = v2_file(tmp_path, END + encode_varint(0), header=b"{not json")
    with pytest.raises(ValueError, match="header block"):
        load_trace(path)
    path = v2_file(tmp_path, END + encode_varint(0), header=b"[1]")
    with pytest.raises(ValueError, match="JSON object"):
        load_trace(path)


def test_binary_garbage_rejected_with_clear_error(tmp_path):
    path = tmp_path / "garbage.bin"
    path.write_bytes(bytes(range(200, 256)) * 5)
    with pytest.raises(ValueError, match="not a valid trace"):
        load_trace(path)


def test_error_is_trace_format_error_subclass():
    assert issubclass(TraceFormatError, ValueError)


def test_text_header_lines_after_records_rejected(tmp_path):
    """Header-lookalike lines past the leading block fail loudly instead of
    silently dropping a label or metadata the old whole-file reader kept."""
    v1 = tmp_path / "late-meta.txt"
    v1.write_text('# repro-trace v1\nI a 3\n# meta {"seed": 7}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="after\\s+.*the first record"):
        load_trace(v1)
    v0 = tmp_path / "late-label.txt"
    v0.write_text("I a 3\n# trace late\nD a\n", encoding="utf-8")
    with pytest.raises(ValueError, match="top of the file"):
        load_trace(v0)
    # plain comments after records stay fine
    ok = tmp_path / "comment.txt"
    ok.write_text("# trace ok\nI a 3\n# just a comment\nD a\n", encoding="utf-8")
    assert len(load_trace(ok)) == 2
