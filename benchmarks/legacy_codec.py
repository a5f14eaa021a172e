"""Frozen copies of retired trace codec behaviour.

``src/`` no longer writes v2 (v3 is the only binary format it produces) and
reads v2 through the v3 block decoder.  Three frozen pieces of older codecs
live here instead:

* the pre-block-index v2 *decoder* (the reader ``repro.workloads.binary``
  shipped before the codec raw-speed pass: bounded-buffer
  ``_RecordStream``, per-field method calls), kept verbatim minus
  telemetry.  ``bench_trace_io`` decodes the same v2 file through it and
  through the live codec and asserts the live one is at least 25% faster —
  a machine-independent throughput guard, since both sides run on the same
  interpreter and hardware;
* the last v2 *encoder* (:func:`save_legacy_trace`, plain or whole-body
  zlib), byte-for-byte what ``save_trace(version=2[, compress=True])``
  wrote, so tests and benchmarks can still produce legacy v2 inputs;
* the snapshot-per-sync v3 writer (:class:`SnapshotPerSyncWriter`): the
  live writer with ``sync()`` as it was before continuation blocks, ending
  the segment so the next block re-snapshots every live name.
  ``bench_trace_io`` times served-style syncs through it and through the
  live writer and asserts the live ``sync()`` is at least 3x faster.

Not a public API; only the benchmarks and tests import this.
"""

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from repro.workloads.base import INSERT, Request
from repro.workloads.binary import BinaryTraceWriter

MAGIC = b"\x93RPTRACE"
LEGACY_VERSION = 2

_FLAG_ZLIB = 0x01

_TAG_END = 0x00
_TAG_INSERT_NEW = 0x01
_TAG_INSERT_REF = 0x02
_TAG_DELETE_REF = 0x03
_TAG_DELETE_NEW = 0x04

_CHUNK = 64 * 1024


class LegacyFormatError(ValueError):
    """A trace file is malformed: bad magic, truncated, or corrupt."""


class _RecordStream:
    """Bounded-buffer reader over a (possibly zlib-compressed) record body."""

    def __init__(self, handle, compressed, path):
        self._handle = handle
        self._path = path
        self._decompressor = zlib.decompressobj() if compressed else None
        self._buffer = b""
        self._pos = 0
        self._input_done = False

    def _fill(self, need):
        while len(self._buffer) - self._pos < need and not self._input_done:
            chunk = self._handle.read(_CHUNK)
            if not chunk:
                self._input_done = True
                if self._decompressor is not None:
                    try:
                        tail = self._decompressor.flush()
                    except zlib.error as error:
                        raise LegacyFormatError(
                            f"{self._path}: truncated or corrupt zlib record body ({error})"
                        ) from error
                    if not self._decompressor.eof:
                        raise LegacyFormatError(
                            f"{self._path}: truncated zlib record body "
                            "(compressed stream ends mid-block)"
                        )
                    if tail:
                        self._buffer = self._buffer[self._pos:] + tail
                        self._pos = 0
                break
            if self._decompressor is not None:
                try:
                    chunk = self._decompressor.decompress(chunk)
                except zlib.error as error:
                    raise LegacyFormatError(
                        f"{self._path}: corrupt zlib record body ({error})"
                    ) from error
            self._buffer = self._buffer[self._pos:] + chunk
            self._pos = 0

    def at_eof(self):
        self._fill(1)
        if len(self._buffer) - self._pos >= 1:
            return False
        if self._decompressor is not None and self._decompressor.unused_data:
            raise LegacyFormatError(
                f"{self._path}: trailing data after the compressed record body"
            )
        return True

    def read_exact(self, count, what):
        self._fill(count)
        if len(self._buffer) - self._pos < count:
            raise LegacyFormatError(
                f"{self._path}: truncated trace file (unexpected end of data "
                f"while reading {what})"
            )
        start = self._pos
        self._pos += count
        return self._buffer[start:self._pos]

    def read_varint(self, what):
        value = 0
        shift = 0
        while True:
            byte = self.read_exact(1, what)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise LegacyFormatError(
                    f"{self._path}: corrupt varint while reading {what} (over 9 bytes)"
                )


@dataclass
class LegacyHeader:
    version: int
    compressed: bool
    label: str
    metadata: Dict[str, Any] = field(default_factory=dict)


def _read_exact_from(handle, count, what, path):
    data = handle.read(count)
    if len(data) != count:
        raise LegacyFormatError(
            f"{path}: truncated trace file (unexpected end of data while reading {what})"
        )
    return data


def _read_varint_from(handle, what, path):
    value = 0
    shift = 0
    while True:
        byte = _read_exact_from(handle, 1, what, path)[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7
        if shift > 63:
            raise LegacyFormatError(
                f"{path}: corrupt varint while reading {what} (over 9 bytes)"
            )


def read_legacy_header(handle, path) -> LegacyHeader:
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise LegacyFormatError(f"{path}: bad magic {magic!r}; not a v2 binary trace")
    version = _read_varint_from(handle, "format version", path)
    if version != LEGACY_VERSION:
        raise LegacyFormatError(
            f"{path}: unsupported binary trace version {version}; "
            f"this reader knows v{LEGACY_VERSION}"
        )
    flags = _read_exact_from(handle, 1, "flags", path)[0]
    if flags & ~_FLAG_ZLIB:
        raise LegacyFormatError(f"{path}: unknown flag bits 0x{flags:02x} in v2 header")
    header_length = _read_varint_from(handle, "header length", path)
    header_bytes = _read_exact_from(handle, header_length, "JSON header block", path)
    header = json.loads(header_bytes.decode("utf-8"))
    return LegacyHeader(
        version=version,
        compressed=bool(flags & _FLAG_ZLIB),
        label=str(header.get("label", "")),
        metadata=header.get("meta", {}),
    )


def iter_legacy_records(handle, header: LegacyHeader, path) -> Iterator[Request]:
    stream = _RecordStream(handle, compressed=header.compressed, path=path)
    bound: Dict[int, str] = {}
    free_ids: list = []
    next_id = 0
    previous_name = b""
    count = 0

    def read_name():
        nonlocal previous_name
        prefix_length = stream.read_varint("name prefix length")
        if prefix_length > len(previous_name):
            raise LegacyFormatError(
                f"{path}: record {count}: name prefix length {prefix_length} exceeds "
                f"the previous name's {len(previous_name)} bytes"
            )
        suffix_length = stream.read_varint("name suffix length")
        raw = previous_name[:prefix_length] + stream.read_exact(suffix_length, "name bytes")
        previous_name = raw
        return raw.decode("utf-8")

    def ref_name():
        name_id = stream.read_varint("name id")
        try:
            return bound[name_id]
        except KeyError:
            raise LegacyFormatError(
                f"{path}: record {count}: name id {name_id} references an unbound name "
                "(never inserted, or already deleted)"
            ) from None

    while True:
        if stream.at_eof():
            raise LegacyFormatError(
                f"{path}: truncated trace file (end of data before the END trailer; "
                f"{count} record(s) read)"
            )
        tag = stream.read_exact(1, "record tag")[0]
        if tag == _TAG_END:
            declared = stream.read_varint("END trailer record count")
            if declared != count:
                raise LegacyFormatError(
                    f"{path}: record count mismatch: END trailer declares {declared}, "
                    f"read {count}"
                )
            if not stream.at_eof():
                raise LegacyFormatError(f"{path}: trailing data after the END trailer")
            return
        count += 1
        if tag == _TAG_INSERT_NEW:
            name = read_name()
            if free_ids:
                name_id = free_ids.pop()
            else:
                name_id = next_id
                next_id += 1
            bound[name_id] = name
            yield Request.insert(name, stream.read_varint("insert size"))
        elif tag == _TAG_INSERT_REF:
            name = ref_name()
            yield Request.insert(name, stream.read_varint("insert size"))
        elif tag == _TAG_DELETE_REF:
            name_id = stream.read_varint("name id")
            try:
                name = bound.pop(name_id)
            except KeyError:
                raise LegacyFormatError(
                    f"{path}: record {count}: name id {name_id} references an unbound "
                    "name (never inserted, or already deleted)"
                ) from None
            free_ids.append(name_id)
            yield Request.delete(name)
        elif tag == _TAG_DELETE_NEW:
            yield Request.delete(read_name())
        else:
            raise LegacyFormatError(
                f"{path}: record {count}: unknown record tag 0x{tag:02x}"
            )


def iter_legacy_trace(path) -> Iterator[Request]:
    """Stream a plain (non-gzip) v2 file through the legacy decoder."""
    with open(path, "rb") as handle:
        header = read_legacy_header(handle, path)
        yield from iter_legacy_records(handle, header, path)


# ------------------------------------------------------------------- encoder
def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def save_legacy_trace(trace, path, metadata=None, compress: bool = False) -> None:
    """``save_trace(trace, path, metadata, version=2, compress=compress)``
    exactly as the retired v2 writer did it.

    Same merged label/metadata header, live-scoped LIFO name ids,
    front-coded names, 64 KiB body flushes and (when ``compress``) one
    level-6 zlib stream over the whole body.
    """
    merged = dict(trace.metadata)
    if metadata:
        merged.update(metadata)
    header: Dict[str, Any] = {"label": str(trace.label)}
    if merged:
        header["meta"] = merged
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    compressor = zlib.compressobj(6) if compress else None
    bound: Dict[str, int] = {}
    free_ids: List[int] = []
    next_id = 0
    previous = b""
    count = 0
    buffer = bytearray()

    def append_name(raw: bytes) -> None:
        nonlocal previous
        prefix = 0
        limit = min(len(raw), len(previous))
        while prefix < limit and raw[prefix] == previous[prefix]:
            prefix += 1
        previous = raw
        buffer.extend(_varint(prefix) + _varint(len(raw) - prefix) + raw[prefix:])

    with open(path, "wb") as handle:
        handle.write(
            MAGIC
            + _varint(LEGACY_VERSION)
            + bytes([_FLAG_ZLIB if compress else 0])
            + _varint(len(header_bytes))
            + header_bytes
        )

        def flush() -> None:
            data = bytes(buffer)
            buffer.clear()
            if compressor is not None:
                data = compressor.compress(data)
            if data:
                handle.write(data)

        for request in trace:
            name = str(request.name)
            name_id = bound.get(name)
            if request.op == INSERT:
                if name_id is None:
                    if free_ids:
                        bound[name] = free_ids.pop()
                    else:
                        bound[name] = next_id
                        next_id += 1
                    buffer.append(_TAG_INSERT_NEW)
                    append_name(name.encode("utf-8"))
                else:
                    buffer.append(_TAG_INSERT_REF)
                    buffer.extend(_varint(name_id))
                buffer.extend(_varint(request.size))
            elif name_id is None:
                buffer.append(_TAG_DELETE_NEW)
                append_name(name.encode("utf-8"))
            else:
                del bound[name]
                free_ids.append(name_id)
                buffer.append(_TAG_DELETE_REF)
                buffer.extend(_varint(name_id))
            count += 1
            if len(buffer) >= _CHUNK:
                flush()
        buffer.append(_TAG_END)
        buffer.extend(_varint(count))
        flush()
        if compressor is not None:
            handle.write(compressor.flush())


# ------------------------------------------------------- snapshot-per-sync v3
class SnapshotPerSyncWriter(BinaryTraceWriter):
    """The v3 writer whose ``sync()`` ends the segment: the next block is a
    snapshot block again, so every sync pays a sorted, front-coded snapshot
    of every live name (O(live) work and bytes per sync)."""

    def sync(self) -> None:
        super().sync()
        if self._segment_records:
            self._start_segment()
