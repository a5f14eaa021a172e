"""The binary trace container: compact, seekable, optionally compressed.

Layout of a v3 file (the only binary version written)::

    magic        8 bytes   b"\\x93RPTRACE" (first byte non-ASCII so text
                           parsers bail out immediately)
    version      varint    3
    flags        1 byte    bit 0: each block body is zlib-compressed
    header len   varint    byte length of the JSON header block
    header       bytes     UTF-8 JSON: {"label": str, "meta": {...}}

then **segments** — a snapshot block and any continuation blocks after
it — and an END record::

    0x05  BLOCK:     varint record-count   records encoded in this block
                     varint entry-count    objects live at segment entry
                     varint snapshot-len   byte length of the snapshot
                     snapshot              entry-count x (front-coded name,
                                           varint size), sorted by UTF-8
                                           name bytes, front-coded from ""
                     varint body-len       on-disk body bytes
                     body                  records (zlib-compressed per
                                           block when flagged)

    0x06  CONTINUE:  varint record-count   records encoded in this block
                     varint body-len       on-disk body bytes
                     body                  records, decoded against the
                                           interning table the block before
                                           it left (no snapshot)

    0x00  END:       varint total record count
                     varint segment count
                     segment count x (varint offset, varint record-count)
                       - offset of the segment's 0x05 tag: absolute for the
                         first segment, delta from the previous offset
                         after that; record-count covers the whole segment
                     8 bytes   little-endian absolute offset of the END tag
                     8 bytes   footer magic b"\\x93RPT3IDX"

A block body is a sequence of varint-encoded records over a *live-scoped
interned name table*: an insert binds its name to an integer id (the most
recently freed id, else the next fresh one — writer and reader mirror the
same LIFO rule), a delete references the id and frees it again.  Ids are
therefore bounded by the peak number of simultaneously *live* objects, so
they stay one or two bytes even in traces with millions of distinct names.
Name bytes are *front-coded*: each name-carrying record stores the byte
length it shares with the previously written name plus the new suffix,
which collapses the ``obj-000123``-style names synthetic workloads
generate to a couple of bytes.

    0x01  INSERT, new name:   varint shared-prefix-len, varint suffix-len,
                              suffix bytes, varint size   (binds an id)
    0x02  INSERT, live name:  varint name-id, varint size (id stays bound;
                              only produced for degenerate double-inserts)
    0x03  DELETE, live name:  varint name-id              (frees the id)
    0x04  DELETE, other name: varint shared-prefix-len, varint suffix-len,
                              suffix bytes                (binds nothing)

A snapshot block re-binds the snapshot names to ids ``0..entry_count-1``
in snapshot order (next fresh id = entry_count, free-id pool empty) and
front-codes record names starting from the *last* snapshot name, so a
segment decodes from its own bytes alone.  A continuation block carries
on the ids, free-id pool and previous name the block before it left.
The writer opens a snapshot block every ``block_records`` records; only
:meth:`BinaryTraceWriter.sync` writes continuation blocks, so without it
a segment is one block.  The footer indexes segments, and the fixed-size
trailer lets a reader seek straight to the footer, then to any segment —
what :func:`read_block_index` and sharded parallel replay build on.
Errors name blocks ``block S`` (segment ``S``'s snapshot block) or ``block
S.J`` (its ``J``-th continuation block).  Truncation stays loud: every
byte before the trailer is needed to reach the END record, the footer
must agree with the segments read, and the trailer offset must point back
at the END tag.  All varints are unsigned LEB128.  Readers older than
continuation blocks reject a synced file ("unknown record tag 0x06");
``repro trace convert`` rewrites it with snapshot blocks only.

**Legacy v2 (read-only).** v2 files share the magic/flags/header layout
(version varint 2; flag bit 0 means *one* zlib stream over the whole body)
and have no blocks: the body is exactly a v3 block body with an empty entry
snapshot, followed by ``0x00 END`` and a varint total record count.  The v3
block decoder reads it, holding the whole (decompressed) body in memory —
``repro trace convert IN OUT --format v3`` upgrades a large v2 file to
streaming reads and the block index.

:class:`BinaryTraceWriter` and the v3 reader hold an I/O buffer plus
per-*live*-object state (the id table and free-id stack, and one block's
worth of bytes), never anything proportional to the trace length or the
number of distinct names.
"""

from __future__ import annotations

import io
import json
import os
import queue
import sys
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.faults.injector import fault_write
from repro.obs.telemetry import get_telemetry
from repro.workloads.base import DELETE, INSERT, Request

#: First bytes of every binary trace file.
MAGIC = b"\x93RPTRACE"
#: The binary container version :class:`BinaryTraceWriter` writes.
BINARY_FORMAT_VERSION = 3
#: Every binary container version this module reads (v2 is read-only).
KNOWN_BINARY_VERSIONS = (2, 3)
#: Records per v3 block when the writer is not told otherwise.
DEFAULT_BLOCK_RECORDS = 65536

_FLAG_ZLIB = 0x01

_TAG_END = 0x00
_TAG_INSERT_NEW = 0x01
_TAG_INSERT_REF = 0x02
_TAG_DELETE_REF = 0x03
_TAG_DELETE_NEW = 0x04
_TAG_BLOCK = 0x05
_TAG_CONTINUE = 0x06

_FOOTER_MAGIC = b"\x93RPT3IDX"
_TRAILER_LEN = 8 + len(_FOOTER_MAGIC)

#: ``expected`` for :func:`_decode_block_records` on a v2 body: decode until
#: the END tag instead of a declared record count.
_UNTIL_END = sys.maxsize

# Hot-loop aliases: one LOAD_GLOBAL each instead of attribute lookups per
# record.  Requests are built via object.__new__ so the decode loop pays no
# dataclass __init__/__post_init__ frames; the loop re-checks what those
# would have (op is fixed, insert sizes are validated explicitly).
_new_request = object.__new__
_set_attr = object.__setattr__


class TraceFormatError(ValueError):
    """A trace file is malformed: bad magic, truncated, or corrupt."""


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128 encoding of ``value`` (which must be >= 0)."""
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


# --------------------------------------------------------------------- reader
@dataclass
class BinaryHeader:
    """The decoded fixed header of a binary (v2/v3) trace file."""

    version: int
    compressed: bool
    label: str
    metadata: Dict[str, Any] = field(default_factory=dict)


# These two header helpers intentionally mirror the block decode loop's
# bounds checks: the header and the v3 block structure must be read
# byte-exactly from the raw handle (no buffered overshoot), while the
# record decode is specialised for in-memory block bodies on the hot path.
# Keep their guards and error wording in sync.
def _read_exact_from(handle, count: int, what: str, path) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise TraceFormatError(
            f"{path}: truncated trace file (unexpected end of data while reading {what})"
        )
    return data


def _read_varint_from(handle, what: str, path) -> int:
    value = 0
    shift = 0
    while True:
        byte = _read_exact_from(handle, 1, what, path)[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7
        if shift > 63:
            raise TraceFormatError(
                f"{path}: corrupt varint while reading {what} (over 9 bytes)"
            )


def read_binary_header(handle, path) -> BinaryHeader:
    """Decode the binary header from ``handle`` (positioned at offset 0).

    The header is read byte-exactly, so ``handle`` is left positioned at the
    first body byte.  Raises :class:`TraceFormatError` on bad magic, an
    unknown version, or a malformed header block.
    """
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise TraceFormatError(
            f"{path}: bad magic {magic!r}; not a v2/v3 binary trace"
        )
    version = _read_varint_from(handle, "format version", path)
    if version not in KNOWN_BINARY_VERSIONS:
        raise TraceFormatError(
            f"{path}: unsupported binary trace version {version}; "
            f"this reader knows v2 and v3"
        )
    flags = _read_exact_from(handle, 1, "flags", path)[0]
    if flags & ~_FLAG_ZLIB:
        raise TraceFormatError(
            f"{path}: unknown flag bits 0x{flags:02x} in v{version} header"
        )
    header_length = _read_varint_from(handle, "header length", path)
    header_bytes = _read_exact_from(handle, header_length, "JSON header block", path)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceFormatError(
            f"{path}: malformed v{version} JSON header block: {error}"
        ) from error
    if not isinstance(header, dict):
        raise TraceFormatError(
            f"{path}: v{version} header block must be a JSON object, "
            f"got {type(header).__name__}"
        )
    metadata = header.get("meta", {})
    if not isinstance(metadata, dict):
        raise TraceFormatError(
            f"{path}: v{version} trace metadata must be a JSON object, "
            f"got {type(metadata).__name__}"
        )
    return BinaryHeader(
        version=version,
        compressed=bool(flags & _FLAG_ZLIB),
        label=str(header.get("label", "")),
        metadata=metadata,
    )


def _decode_varint_slow(buf, pos: int, first: int, path, where: str, record=None):
    """Continuation of an inline varint decode whose first byte had the
    high bit set.  Raises IndexError past the end of ``buf`` (the caller's
    truncation logic handles it).  ``where`` (and ``record``, when the
    varint belongs to one) only name the spot in the error message."""
    value = first & 0x7F
    shift = 7
    while True:
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            spot = where if record is None else f"{where}, record {record}"
            raise TraceFormatError(f"{path}: {spot}: corrupt varint (over 9 bytes)")


def iter_binary_records(handle, header: BinaryHeader, path) -> Iterator[Request]:
    """Yield the requests of a v2/v3 body one at a time.

    ``handle`` must be positioned at the first body byte (where
    :func:`read_binary_header` leaves it).  Verifies the END trailer and the
    record count, so truncated and over-long files raise
    :class:`TraceFormatError` instead of yielding a silent prefix.  v3
    streams block by block; a legacy v2 body is read whole.
    """
    if header.version == 3:
        return _iter_v3_records(handle, header, path)
    return _iter_v2_records(handle, header, path)


# ------------------------------------------------------------------ v3 reader
def _decode_snapshot(
    data: bytes, entry_count: int, path, block: int
) -> Tuple[List[str], List[int], bytes]:
    """Decode a block-entry snapshot: ``(names, sizes, last_raw_name)``.

    Names must be strictly increasing in UTF-8 byte order (that is what
    makes the writer/reader id assignment deterministic and front-coding
    effective); the returned ``last_raw_name`` seeds record front-coding.
    """
    names: List[str] = []
    sizes: List[int] = []
    pos = 0
    prev: Optional[bytes] = None
    raw = b""
    where = f"block {block} snapshot"
    try:
        for _ in range(entry_count):
            prefix = data[pos]
            pos += 1
            if prefix >= 0x80:
                prefix, pos = _decode_varint_slow(data, pos, prefix, path, where)
            suffix_len = data[pos]
            pos += 1
            if suffix_len >= 0x80:
                suffix_len, pos = _decode_varint_slow(data, pos, suffix_len, path, where)
            end = pos + suffix_len
            if end > len(data):
                raise IndexError
            if prefix > len(raw):
                raise TraceFormatError(
                    f"{path}: {where}: name prefix length {prefix} exceeds "
                    f"the previous name's {len(raw)} bytes"
                )
            raw = raw[:prefix] + data[pos:end]
            pos = end
            size = data[pos]
            pos += 1
            if size >= 0x80:
                size, pos = _decode_varint_slow(data, pos, size, path, where)
            if prev is not None and raw <= prev:
                raise TraceFormatError(
                    f"{path}: {where}: entries not in sorted name order"
                )
            if size < 1:
                raise TraceFormatError(
                    f"{path}: {where}: live object with non-positive size {size}"
                )
            prev = raw
            try:
                names.append(raw.decode("utf-8"))
            except UnicodeDecodeError as error:
                raise TraceFormatError(
                    f"{path}: {where}: undecodable name: {error}"
                ) from error
            sizes.append(size)
    except IndexError:
        raise TraceFormatError(
            f"{path}: truncated trace file (unexpected end of data while "
            f"reading {where})"
        ) from None
    if pos != len(data):
        raise TraceFormatError(f"{path}: {where}: trailing bytes after the entries")
    return names, sizes, raw


class _NameTable:
    """What a block body decodes against: bound ids, the free-id pool, the
    next fresh id and the front-coding name (see the module docstring)."""

    __slots__ = ("bound", "free_ids", "next_id", "previous_name")

    def __init__(self, names: Sequence[str] = (), previous_name: bytes = b"") -> None:
        self.bound: Dict[int, str] = dict(enumerate(names))
        self.free_ids: List[int] = []
        self.next_id = len(names)
        self.previous_name = previous_name


def _decode_block_records(body: bytes, table: _NameTable, expected: int, path, where: str):
    """Yield exactly ``expected`` requests from one in-memory block body.

    Records are decoded against ``table``, which is left as the next
    continuation block needs it once the body is decoded.  The body must
    contain exactly the declared records with no bytes left over.
    ``where`` (``"block 5"``) prefixes error messages.

    With ``expected=_UNTIL_END`` (a legacy v2 body) decoding instead stops
    at the first END tag and the generator returns ``(records, pos)``,
    ``pos`` being the offset just past that tag; the caller checks what
    follows it.
    """
    bound = table.bound
    free_ids = table.free_ids
    next_id = table.next_id
    previous_name = table.previous_name
    count = 0
    pos = 0
    try:
        while count < expected:
            count += 1  # before the tag read: on IndexError, count - 1 are whole
            tag = body[pos]
            pos += 1
            if tag == _TAG_INSERT_NEW or tag == _TAG_DELETE_NEW:
                prefix = body[pos]
                pos += 1
                if prefix >= 0x80:
                    prefix, pos = _decode_varint_slow(body, pos, prefix, path, where, count)
                suffix_len = body[pos]
                pos += 1
                if suffix_len >= 0x80:
                    suffix_len, pos = _decode_varint_slow(
                        body, pos, suffix_len, path, where, count
                    )
                end = pos + suffix_len
                if end > len(body):
                    raise IndexError
                if prefix:
                    if prefix > len(previous_name):
                        raise TraceFormatError(
                            f"{path}: {where}, record {count}: name prefix length "
                            f"{prefix} exceeds the previous name's "
                            f"{len(previous_name)} bytes"
                        )
                    raw = previous_name[:prefix] + body[pos:end]
                else:
                    raw = body[pos:end]
                pos = end
                previous_name = raw
                try:
                    name = raw.decode("utf-8")
                except UnicodeDecodeError as error:
                    raise TraceFormatError(
                        f"{path}: {where}, record {count}: undecodable name: {error}"
                    ) from error
                if tag == _TAG_INSERT_NEW:
                    size = body[pos]
                    pos += 1
                    if size >= 0x80:
                        size, pos = _decode_varint_slow(body, pos, size, path, where, count)
                    if size < 1:
                        raise TraceFormatError(
                            f"{path}: {where}, record {count}: insert with "
                            f"non-positive size {size}"
                        )
                    if free_ids:
                        bound[free_ids.pop()] = name
                    else:
                        bound[next_id] = name
                        next_id += 1
                    request = _new_request(Request)
                    _set_attr(request, "op", INSERT)
                    _set_attr(request, "name", name)
                    _set_attr(request, "size", size)
                else:
                    request = _new_request(Request)
                    _set_attr(request, "op", DELETE)
                    _set_attr(request, "name", name)
                    _set_attr(request, "size", 0)
                yield request
            elif tag == _TAG_DELETE_REF or tag == _TAG_INSERT_REF:
                name_id = body[pos]
                pos += 1
                if name_id >= 0x80:
                    name_id, pos = _decode_varint_slow(body, pos, name_id, path, where, count)
                if tag == _TAG_DELETE_REF:
                    try:
                        name = bound.pop(name_id)
                    except KeyError:
                        raise TraceFormatError(
                            f"{path}: {where}, record {count}: name id {name_id} "
                            "references an unbound name (never inserted, or "
                            "already deleted)"
                        ) from None
                    free_ids.append(name_id)
                    request = _new_request(Request)
                    _set_attr(request, "op", DELETE)
                    _set_attr(request, "name", name)
                    _set_attr(request, "size", 0)
                else:
                    try:
                        name = bound[name_id]
                    except KeyError:
                        raise TraceFormatError(
                            f"{path}: {where}, record {count}: name id {name_id} "
                            "references an unbound name (never inserted, or "
                            "already deleted)"
                        ) from None
                    size = body[pos]
                    pos += 1
                    if size >= 0x80:
                        size, pos = _decode_varint_slow(body, pos, size, path, where, count)
                    if size < 1:
                        raise TraceFormatError(
                            f"{path}: {where}, record {count}: insert with "
                            f"non-positive size {size}"
                        )
                    request = _new_request(Request)
                    _set_attr(request, "op", INSERT)
                    _set_attr(request, "name", name)
                    _set_attr(request, "size", size)
                yield request
            elif tag == _TAG_END and expected == _UNTIL_END:
                return count - 1, pos
            else:
                raise TraceFormatError(
                    f"{path}: {where}, record {count}: unknown record tag 0x{tag:02x}"
                )
    except IndexError:
        if expected == _UNTIL_END:
            raise TraceFormatError(
                f"{path}: truncated trace file (end of data before the END "
                f"trailer; {count - 1} record(s) read)"
            ) from None
        raise TraceFormatError(
            f"{path}: {where}: truncated record data (body ends mid-record; "
            f"{count - 1} of {expected} record(s) decoded)"
        ) from None
    if pos != len(body):
        raise TraceFormatError(
            f"{path}: {where}: trailing bytes after the declared records"
        )
    table.next_id = next_id
    table.previous_name = previous_name


def _read_block(handle, snapshot: bool, compressed: bool, path, segment: int, where: str):
    """Read one block with ``handle`` positioned just past its tag.

    Returns ``(record_count, entries, body)`` with the body decompressed;
    ``entries`` is the decoded ``(names, sizes, last_raw_name)`` snapshot
    of a snapshot block and ``None`` for a continuation block.
    """
    record_count = _read_varint_from(handle, "block record count", path)
    if snapshot:
        entry_count = _read_varint_from(handle, "block entry count", path)
        snapshot_len = _read_varint_from(handle, "block snapshot length", path)
        data = _read_exact_from(handle, snapshot_len, "block snapshot", path)
    body_len = _read_varint_from(handle, "block body length", path)
    body = _read_exact_from(handle, body_len, "block body", path)
    if compressed:
        try:
            body = zlib.decompress(body)
        except zlib.error as error:
            raise TraceFormatError(
                f"{path}: {where}: corrupt zlib block body ({error})"
            ) from error
    entries = _decode_snapshot(data, entry_count, path, segment) if snapshot else None
    return record_count, entries, body


@dataclass
class _Walk:
    """What :func:`_walk_blocks` read: ``[offset, records]`` per segment,
    the blocks decoded, and the tag that ended the walk (``None``: end of
    data, or a torn block in a tolerant walk)."""

    segments: List[List[int]] = field(default_factory=list)
    blocks: int = 0
    stop_tag: Optional[int] = None


def _walk_blocks(
    handle, path, compressed: bool, walk: _Walk, strict: bool = True,
    first_segment: int = 0, segments: Optional[int] = None,
) -> Iterator[Iterator[Request]]:
    """Walk v3 blocks from the handle's position, yielding each block's
    requests as an iterator to consume before asking for the next.

    The continuation rule lives here: a snapshot block opens a segment
    with a fresh interning table, a continuation block decodes against the
    table the block before it left.  The walk ends at the first tag that
    starts no block of it (END, garbage, end of data, or the snapshot block
    after ``segments`` segments), leaving the handle just past that tag.
    Strict walks raise :class:`TraceFormatError` on a malformed block;
    tolerant ones stop quietly before it and never yield part of a block.
    """
    table: Optional[_NameTable] = None
    segment = continuation = 0
    while True:
        offset = handle.tell()
        probe = handle.read(1)
        tag = probe[0] if probe else None
        if tag == _TAG_BLOCK and (segments is None or len(walk.segments) < segments):
            segment = first_segment + len(walk.segments)
            continuation = 0
            where = f"block {segment}"
        elif tag == _TAG_CONTINUE and table is not None:
            continuation += 1
            where = f"block {segment}.{continuation}"
        elif tag == _TAG_CONTINUE and strict:
            raise TraceFormatError(
                f"{path}: block {first_segment}: continuation block with no "
                "snapshot block before it"
            )
        else:
            walk.stop_tag = tag
            return
        try:
            count, entries, body = _read_block(
                handle, tag == _TAG_BLOCK, compressed, path, segment, where
            )
            if entries is not None:
                table = _NameTable(entries[0], entries[2])
            decoded = _decode_block_records(body, table, count, path, where)
            if not strict:
                decoded = list(decoded)
        except TraceFormatError:
            if strict:
                raise
            return
        if entries is not None:
            walk.segments.append([offset, 0])
        walk.segments[-1][1] += count
        walk.blocks += 1
        yield decoded


def _read_footer(handle, path) -> Tuple[int, List[Tuple[int, int]]]:
    """Read the END record past its tag: ``(total records, [(segment
    offset, segment records), ...])``."""
    total = _read_varint_from(handle, "END trailer record count", path)
    entries: List[Tuple[int, int]] = []
    offset = 0
    for _ in range(_read_varint_from(handle, "footer segment count", path)):
        offset += _read_varint_from(handle, "footer segment offset", path)
        entries.append((offset, _read_varint_from(handle, "footer segment records", path)))
    return total, entries


def _check_segments(path, indexed: List[Tuple[int, int]], walk: _Walk, first: int = 0) -> None:
    """The footer's ``(offset, records)`` entries from segment ``first`` on
    must match the segments the walk read, one for one."""
    read = walk.segments
    for index in range(max(len(indexed), len(read))):
        entry = list(indexed[index]) if index < len(indexed) else "nothing"
        seen = read[index] if index < len(read) else "nothing"
        if entry != seen:
            stop = "end of data" if walk.stop_tag is None else f"tag 0x{walk.stop_tag:02x}"
            raise TraceFormatError(
                f"{path}: footer entry {first + index} disagrees with the segment "
                f"of block {first + index} actually read ([offset, records] in the "
                f"footer: {entry}, read: {seen}; the walk stopped at {stop})"
            )


def _iter_v3_records(handle, header: BinaryHeader, path) -> Iterator[Request]:
    """Sequential scan of a v3 body: blocks, END record, footer, trailer."""
    start_offset = handle.tell()
    walk = _Walk()
    for block in _walk_blocks(handle, path, header.compressed, walk):
        yield from block
    count = sum(records for _offset, records in walk.segments)
    if walk.stop_tag is None:
        raise TraceFormatError(
            f"{path}: truncated trace file (end of data before the END "
            f"trailer; {count} record(s) read)"
        )
    if walk.stop_tag != _TAG_END:
        raise TraceFormatError(
            f"{path}: block {len(walk.segments)}: unknown record tag 0x{walk.stop_tag:02x}"
        )
    offset = handle.tell() - 1
    declared, footer = _read_footer(handle, path)
    if declared != count:
        raise TraceFormatError(
            f"{path}: record count mismatch: END trailer declares "
            f"{declared}, read {count}"
        )
    _check_segments(path, footer, walk)
    trailer = _read_exact_from(handle, _TRAILER_LEN, "footer trailer", path)
    if trailer[8:] != _FOOTER_MAGIC:
        raise TraceFormatError(
            f"{path}: bad footer magic {trailer[8:]!r} in the v3 trailer"
        )
    end_offset = int.from_bytes(trailer[:8], "little")
    if end_offset != offset:
        raise TraceFormatError(
            f"{path}: v3 trailer points at offset {end_offset}, but the "
            f"END record is at {offset}"
        )
    if handle.read(1):
        raise TraceFormatError(f"{path}: trailing data after the END trailer")
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.add("trace_io.decode_records", count)
        telemetry.add("trace_io.decode_bytes", handle.tell() - start_offset)
        telemetry.add("trace_io.decode_files")


def _iter_v2_records(handle, header: BinaryHeader, path) -> Iterator[Request]:
    """Read a legacy v2 body: one snapshot-less block body, END, count."""
    raw = handle.read()
    body = raw
    if header.compressed:
        inflater = zlib.decompressobj()
        try:
            body = inflater.decompress(raw)
        except zlib.error as error:
            raise TraceFormatError(f"{path}: corrupt zlib record body ({error})") from error
        if not inflater.eof:
            raise TraceFormatError(
                f"{path}: truncated zlib record body (compressed stream ends mid-block)"
            )
        if inflater.unused_data:
            raise TraceFormatError(
                f"{path}: trailing data after the compressed record body"
            )
    count, pos = yield from _decode_block_records(
        body, _NameTable(), _UNTIL_END, path, "v2 body"
    )
    trailer = io.BytesIO(body[pos:])
    declared = _read_varint_from(trailer, "END trailer record count", path)
    if declared != count:
        raise TraceFormatError(
            f"{path}: record count mismatch: END trailer declares {declared}, "
            f"read {count}"
        )
    if trailer.read(1):
        raise TraceFormatError(f"{path}: trailing data after the END trailer")
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.add("trace_io.decode_records", count)
        telemetry.add("trace_io.decode_bytes", len(raw))
        telemetry.add("trace_io.decode_files")


# --------------------------------------------------------------- block index
@dataclass(frozen=True)
class TraceBlock:
    """One indexed v3 segment: its snapshot block and the continuation
    blocks after it, as described by the footer index."""

    index: int  # position in the segment sequence
    offset: int  # absolute file offset of the segment's 0x05 block tag
    records: int  # records encoded in the whole segment
    start: int  # global index of the segment's first record


@dataclass
class BlockIndex:
    """The seek index of a v3 trace: where every segment lives.

    Built by :func:`read_block_index` from the fixed-size trailer at the
    end of the file — no body scan.  ``entry_snapshot`` and ``iter_range``
    seek straight to a segment's snapshot block, which is what sharded
    parallel replay and suffix scans build on.
    """

    path: str
    compressed: bool
    total_records: int
    blocks: List[TraceBlock]
    header: BinaryHeader

    def __len__(self) -> int:
        return len(self.blocks)

    def entry_snapshot(self, block: int) -> List[Tuple[str, int]]:
        """The live ``(name, size)`` objects at entry to ``blocks[block]``."""
        target = self.blocks[block]
        with open(self.path, "rb") as handle:
            handle.seek(target.offset)
            tag = _read_exact_from(handle, 1, "block tag", self.path)[0]
            if tag != _TAG_BLOCK:
                raise TraceFormatError(
                    f"{self.path}: block {block}: expected a block tag at its "
                    f"indexed offset, found 0x{tag:02x}"
                )
            _count, (names, sizes, _last), _body = _read_block(
                handle, True, self.compressed, self.path, block, f"block {block}"
            )
        self._count_seeks(1)
        return list(zip(names, sizes))

    def iter_range(self, start: int, stop: Optional[int] = None) -> Iterator[Request]:
        """Yield the requests of segments ``start..stop-1`` by seeking.

        ``stop`` defaults to the end of the trace, so ``iter_range(n)`` is
        the suffix of the trace from segment ``n`` on.
        """
        blocks = self.blocks[start:stop]
        if not blocks:
            return
        walk = _Walk()
        with open(self.path, "rb") as handle:
            handle.seek(blocks[0].offset)
            for block in _walk_blocks(
                handle, self.path, self.compressed, walk,
                first_segment=blocks[0].index, segments=len(blocks),
            ):
                yield from block
        indexed = [(block.offset, block.records) for block in blocks]
        _check_segments(self.path, indexed, walk, blocks[0].index)
        self._count_seeks(len(blocks))

    def _count_seeks(self, seeks: int) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.add("trace_io.block_seeks", seeks)


def read_block_index(path: Union[str, os.PathLike]) -> Optional[BlockIndex]:
    """Read the footer index of a v3 trace without scanning the body.

    Returns ``None`` when ``path`` is not seekable — not a plain-container
    v3 file (v0/v1/v2, or anything inside a gzip container, which has no
    random access).  Raises :class:`TraceFormatError` when the file claims
    to be v3 but its trailer or footer is missing or corrupt.
    """
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:  # text, or a gzip container
            return None
        handle.seek(0)
        header = read_binary_header(handle, path)
        if header.version != 3:
            return None
        file_size = os.fstat(handle.fileno()).st_size
        if file_size < _TRAILER_LEN:
            raise TraceFormatError(
                f"{path}: truncated trace file (too small for the v3 trailer)"
            )
        handle.seek(file_size - _TRAILER_LEN)
        trailer = handle.read(_TRAILER_LEN)
        if trailer[8:] != _FOOTER_MAGIC:
            raise TraceFormatError(
                f"{path}: bad footer magic {trailer[8:]!r} in the v3 trailer "
                "(truncated or not a completed v3 trace)"
            )
        end_offset = int.from_bytes(trailer[:8], "little")
        if end_offset >= file_size - _TRAILER_LEN:
            raise TraceFormatError(
                f"{path}: v3 trailer points at offset {end_offset}, past the footer"
            )
        handle.seek(end_offset)
        tag = _read_exact_from(handle, 1, "END tag", path)[0]
        if tag != _TAG_END:
            raise TraceFormatError(
                f"{path}: v3 trailer points at tag 0x{tag:02x}, not the END record"
            )
        total, footer = _read_footer(handle, path)
        blocks: List[TraceBlock] = []
        start = 0
        for index, (offset, records) in enumerate(footer):
            blocks.append(TraceBlock(index=index, offset=offset, records=records, start=start))
            start += records
        if start != total:
            raise TraceFormatError(
                f"{path}: footer block records sum to {start}, END trailer "
                f"declares {total}"
            )
        if handle.tell() != file_size - _TRAILER_LEN:
            raise TraceFormatError(
                f"{path}: footer does not end at the v3 trailer"
            )
    return BlockIndex(
        path=str(path),
        compressed=header.compressed,
        total_records=total,
        blocks=blocks,
        header=header,
    )


# ----------------------------------------------------------------- tail reader
@dataclass
class TraceTail:
    """What :func:`read_trace_tail` salvaged from a (possibly crashed) v3 file."""

    requests: List[Request]
    complete: bool  # True when the END trailer was reached (a finished trace)
    blocks: int  # complete blocks decoded, snapshot and continuation alike
    header: BinaryHeader


def read_trace_tail(path: Union[str, os.PathLike]) -> TraceTail:
    """Best-effort sequential read of a v3 trace that may lack its trailer.

    The strict readers treat a missing END trailer as corruption — correct
    for archives, useless for crash recovery.  A live serving session syncs
    its recording after every batch (see :meth:`BinaryTraceWriter.sync`),
    so after a crash the file is a prefix of complete, self-delimiting
    blocks followed by at most one torn block.  This reader decodes every
    complete block and stops quietly at the first truncation, returning the
    salvaged requests — the "trace tail" that snapshot-restore replays.

    Raises :class:`TraceFormatError` only when the file is not a plain v3
    trace at all (bad magic, not v3, or a header too mangled to read).
    """
    with open(path, "rb") as handle:
        header = read_binary_header(handle, path)
        if header.version != 3:
            raise TraceFormatError(
                f"{path}: tail recovery needs a v3 trace, got v{header.version}"
            )
        walk = _Walk()
        requests: List[Request] = []
        for block in _walk_blocks(handle, path, header.compressed, walk, strict=False):
            requests.extend(block)
    return TraceTail(requests, walk.stop_tag == _TAG_END, walk.blocks, header)


# --------------------------------------------------------------------- writer
class WriterContextMixin:
    """``with open_trace_writer(...) as writer:`` support for every format:
    a clean exit closes (committing the trailer/metadata), an exception
    aborts so a partial file is left truncation-detectable, never silently
    valid."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class BinaryTraceWriter(WriterContextMixin):
    """Streaming writer for the binary trace format (v3).

    Usable as a context manager; requests are encoded into the current
    block and each full block is written out, so writing a 10M-request
    trace never holds it in memory: the only growing state is the
    live-name table plus the free-id pool (both bounded by the peak number
    of simultaneously live objects) and one block's worth of encoded
    records.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        label: str = "trace",
        metadata: Optional[Dict[str, Any]] = None,
        compress: Union[bool, str] = False,
        compresslevel: int = 6,
        block_records: int = DEFAULT_BLOCK_RECORDS,
    ) -> None:
        if block_records < 1:
            raise ValueError(f"v3 block size must be >= 1 record, got {block_records}")
        if isinstance(compress, str) and compress != "background":
            raise ValueError(
                f"unknown compress mode {compress!r}; "
                "use False, True (inline), or 'background'"
            )
        self.path = path
        self.count = 0
        self.block_records = block_records
        header = {"label": str(label)}
        if metadata:
            header["meta"] = dict(metadata)
        try:
            header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"cannot save trace metadata to {path}: not JSON-serialisable ({error})"
            ) from error
        flags = _FLAG_ZLIB if compress else 0
        self._handle = open(path, "wb")
        self._handle.write(
            MAGIC
            + encode_varint(BINARY_FORMAT_VERSION)
            + bytes([flags])
            + encode_varint(len(header_bytes))
            + header_bytes
        )
        self._compressed = bool(compress)
        self._compresslevel = compresslevel
        self._background = compress == "background"
        self._buffer = bytearray()
        self._closed = False
        self._live_sizes: Dict[str, int] = {}  # for segment-entry snapshots
        self._segments: List[List[int]] = []  # footer: [offset, records] each
        # Background compression: a single writer thread owns the file
        # handle between header and trailer — it compresses each block and
        # writes it in submission order, so the on-disk bytes are identical
        # to inline compression while the encode loop stays free to run.
        # Errors surface on the next write()/sync()/close().
        self._tasks: Optional[queue.Queue] = None
        self._worker: Optional[threading.Thread] = None
        self._worker_error: Optional[BaseException] = None
        if self._background:
            self._tasks = queue.Queue(maxsize=8)
            self._worker = threading.Thread(
                target=self._background_loop,
                name=f"trace-compress:{os.path.basename(str(path))}",
                daemon=True,
            )
            self._worker.start()
        self._start_segment()

    # ---------------------------------------------------------------- blocks
    def _start_segment(self) -> None:
        """Capture the segment-entry snapshot and restart the interning table.

        Snapshot names are bound to ids ``0..n-1`` in sorted UTF-8 byte
        order (fresh ids continue from ``n``, the free pool empties) and
        record front-coding restarts from the last snapshot name — exactly
        what the reader reconstructs from the snapshot alone.
        """
        entries = sorted(
            (name.encode("utf-8"), name, size)
            for name, size in self._live_sizes.items()
        )
        snapshot = bytearray()
        self._previous_name = b""  # front-coding state
        for raw, _name, size in entries:
            self._append_name(snapshot, raw)
            snapshot += encode_varint(size)
        self._snapshot = (len(entries), bytes(snapshot))
        self._bound = {name: index for index, (_raw, name, _size) in enumerate(entries)}
        self._free_ids: List[int] = []  # LIFO pool, mirrored by the reader
        self._next_id = len(entries)
        self._segment_records = 0  # records in the segment, written or buffered
        self._segment_written = 0  # of those, handed to _write_block already

    def _flush_block(self) -> None:
        """Hand the buffered records to :meth:`_write_block` (inline or on
        the writer thread): as the segment's snapshot block while none of
        the segment is written, as a continuation block after that."""
        block = (
            bytes(self._buffer),
            self._segment_records - self._segment_written,
            None if self._segment_written else self._snapshot,
        )
        self._segment_written = self._segment_records
        self._buffer.clear()
        if self._background:
            self._submit(block)
        else:
            self._write_block(*block)

    def _write_block(
        self, body: bytes, records: int, snapshot: Optional[Tuple[int, bytes]]
    ) -> None:
        """Write one block and index it: a snapshot block (``snapshot`` is
        ``(entries, bytes)``) opens a footer entry, a continuation block
        (``None``) adds its records to the last one."""
        if self._compressed:
            body = zlib.compress(body, self._compresslevel)
        if snapshot is None:
            head = bytes([_TAG_CONTINUE]) + encode_varint(records)
        else:
            entries, data = snapshot
            offset = self._handle.tell()
            head = (
                bytes([_TAG_BLOCK])
                + encode_varint(records)
                + encode_varint(entries)
                + encode_varint(len(data))
                + data
            )
        # Fault site: a crash mid-block must leave a truncation the reader
        # detects (the missing END trailer / footer), never a silent gap.
        fault_write("trace.write.block", self._handle, head + encode_varint(len(body)) + body)
        if snapshot is None:
            self._segments[-1][1] += records
        else:
            self._segments.append([offset, records])

    # ---------------------------------------------------- background worker
    def _submit(self, block) -> None:
        """Hand one block to the writer thread (surfaces its last error)."""
        if self._worker_error is not None:
            raise self._worker_error
        self._tasks.put(block)

    def _background_loop(self) -> None:
        """The writer thread: compress and write blocks in submission order.

        The thread is the only writer between header and trailer, so file
        offsets recorded here (for the footer) are consistent.  zlib
        releases the GIL, which is what lets compression overlap the
        CPU-bound encode/replay loop.  After an error the loop keeps
        draining (writing nothing) so submitters never block on a dead
        consumer; the error re-raises on the next write()/sync()/close().
        """
        while True:
            block = self._tasks.get()
            if block is None:
                self._tasks.task_done()
                return
            try:
                if self._worker_error is None:
                    self._write_block(*block)
            except BaseException as error:
                self._worker_error = error
            finally:
                self._tasks.task_done()

    def _finish_background(self, discard: bool = False) -> None:
        """Stop the writer thread and (unless discarding) surface its error."""
        if self._worker is None:
            return
        self._tasks.put(None)
        self._worker.join()
        self._worker = None
        if not discard and self._worker_error is not None:
            raise self._worker_error

    # --------------------------------------------------------------- records
    def _append_name(self, buffer: bytearray, raw: bytes) -> None:
        """Front-coded name bytes: shared-prefix length + suffix."""
        previous = self._previous_name
        prefix = 0
        limit = min(len(raw), len(previous))
        while prefix < limit and raw[prefix] == previous[prefix]:
            prefix += 1
        self._previous_name = raw
        suffix_len = len(raw) - prefix
        if prefix < 0x80:
            buffer.append(prefix)
        else:
            buffer += encode_varint(prefix)
        if suffix_len < 0x80:
            buffer.append(suffix_len)
        else:
            buffer += encode_varint(suffix_len)
        buffer += raw[prefix:]

    def write(self, request: Request) -> None:
        """Append one request to the trace."""
        if self._closed:
            raise ValueError(f"trace writer for {self.path} is already closed")
        name = str(request.name)
        name_id = self._bound.get(name)
        buffer = self._buffer
        size = request.size
        if request.op == INSERT:
            if name_id is None:
                if self._free_ids:
                    self._bound[name] = self._free_ids.pop()
                else:
                    self._bound[name] = self._next_id
                    self._next_id += 1
                buffer.append(_TAG_INSERT_NEW)
                self._append_name(buffer, name.encode("utf-8"))
            else:
                # Degenerate double-insert of a live name: keep the binding.
                buffer.append(_TAG_INSERT_REF)
                if name_id < 0x80:
                    buffer.append(name_id)
                else:
                    buffer += encode_varint(name_id)
            if size < 0x80:
                buffer.append(size)
            else:
                buffer += encode_varint(size)
            self._live_sizes[name] = size
        else:
            if name_id is None:
                buffer.append(_TAG_DELETE_NEW)
                self._append_name(buffer, name.encode("utf-8"))
            else:
                del self._bound[name]
                self._free_ids.append(name_id)
                buffer.append(_TAG_DELETE_REF)
                if name_id < 0x80:
                    buffer.append(name_id)
                else:
                    buffer += encode_varint(name_id)
            self._live_sizes.pop(name, None)
        self.count += 1
        self._segment_records += 1
        if self._segment_records >= self.block_records:
            self._flush_block()
            self._start_segment()

    def sync(self) -> None:
        """Flush everything written so far to the OS in decodable form.

        The records since the last block go out as one block: the
        segment's snapshot block if none of the segment is written yet,
        else a continuation block (no snapshot), so a sync costs the
        records since the last one, not the live set.  After ``sync()``
        every request written so far sits in a complete, self-delimiting
        block that :func:`read_trace_tail` can recover even if the process
        dies before :meth:`close`.  Background-compression tasks are
        drained first, so on return the bytes have left the process.
        """
        if self._closed:
            raise ValueError(f"trace writer for {self.path} is already closed")
        if self._segment_records > self._segment_written:
            self._flush_block()
        if self._background:
            self._tasks.join()
            if self._worker_error is not None:
                raise self._worker_error
        self._handle.flush()

    def close(self) -> None:
        """Write the END trailer and footer index and close the file
        (idempotent)."""
        if self._closed:
            return
        if self._segment_records > self._segment_written:
            self._flush_block()
        # The footer needs the final offsets, so the writer thread (the only
        # other writer) must be done before the trailer lands.
        self._finish_background()
        end_offset = self._handle.tell()
        footer = bytearray([_TAG_END])
        footer += encode_varint(self.count)
        footer += encode_varint(len(self._segments))
        previous = 0
        for offset, records in self._segments:
            footer += encode_varint(offset - previous)
            footer += encode_varint(records)
            previous = offset
        footer += end_offset.to_bytes(8, "little")
        footer += _FOOTER_MAGIC
        # Fault site: a crash before the footer lands must be detected as
        # truncation by the reader (missing END/magic), never read back as
        # a shorter-but-valid trace.
        fault_write("trace.write.trailer", self._handle, bytes(footer))
        self._handle.close()
        self._closed = True
        # Cold path: one telemetry push per completed file, so the
        # per-request write loop never touches telemetry.
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.add("trace_io.encode_records", self.count)
            telemetry.add("trace_io.encode_bytes", os.path.getsize(self.path))
            telemetry.add("trace_io.encode_files")

    def abort(self) -> None:
        """Close the underlying file without writing a valid trailer."""
        if not self._closed:
            self._finish_background(discard=True)
            self._handle.close()
            self._closed = True
