"""Trace recording and replay: four on-disk formats, one streaming core.

Four coexisting formats are readable, with transparent detection (plus a
transparent gzip container around any of them):

* **v3** (binary, seekable; see :mod:`repro.workloads.binary`): magic +
  version header, a JSON label/metadata block, then varint-encoded records
  over an interned name table, grouped into self-contained blocks with
  live-object snapshots (optionally zlib-compressed per block) and a
  footer index of block offsets, so the trace can be seeked to any block
  and sharded across worker processes (see
  :func:`repro.workloads.binary.read_block_index`).  Written by
  ``save_trace(..., version=3[, compress=True])``; the binary format for
  large (multi-million-request) traces.

* **v2** (legacy binary, read-only): the pre-block v3 layout — the same
  records in one body with no index, optionally one zlib stream.  Still
  read everywhere; no longer written.  Upgrade a v2 file with
  ``repro trace convert IN OUT --format v3``.

* **v1** (text, written by default) starts with a ``# repro-trace v1``
  header line followed by optional ``# label <quoted>`` and ``# meta
  <json>`` lines, then one request per line::

        # repro-trace v1
        # label churn%20demo
        # meta {"seed": 7}
        I <quoted-name> <size>
        D <quoted-name>

  Object names and the label are percent-encoded (``urllib.parse.quote``
  with no safe characters), so names containing whitespace, newlines, ``#``
  or ``%`` round-trip exactly.

* **v0** (the historical text format, readable, no longer written) has no
  version header — just an optional leading ``# trace <label>`` comment and
  raw ``I name size`` / ``D name`` lines split on whitespace.  Upgrade a v0
  file with ``repro trace convert IN OUT``.

Header lines (label / metadata) are recognised in the leading comment block
of a text trace; later ``#`` lines are skipped as comments, except
header-lookalikes (``# label`` / ``# meta`` / ``# trace``), which are
rejected loudly rather than silently dropped.  Names are
stringified on save in every format: a trace whose names are the integers
``1, 2, ...`` loads back with the string names ``"1", "2", ...``.

Streaming
---------

:func:`load_trace` materialises a full :class:`Trace`.  For traces too
large to hold in memory, :func:`iter_trace` yields requests one at a time
and :class:`TraceFileSource` wraps a file as a re-iterable
:class:`~repro.workloads.base.RequestSource` that ``Allocator.run``,
:meth:`~repro.engine.EngineSession.run`, and ``repro.metrics.run_trace``
accept in place of a ``Trace``.  :func:`trace_info` computes a file's
summary statistics (counts, delta, peak live volume) in one streaming pass,
and the full analytics bundle (``repro trace analyze``) streams the same
way through :class:`~repro.engine.analytics.TraceAnalyticsObserver`.  The
write direction streams too: every writer returned by
:func:`open_trace_writer` is usable as a context manager, and the
``trace_recorder`` engine observer pipes a live replay straight into one.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Union
from urllib.parse import quote, unquote

from repro.workloads.base import Request, Trace
from repro.workloads.binary import (
    DEFAULT_BLOCK_RECORDS,
    BinaryTraceWriter,
    TraceFormatError,
    WriterContextMixin,
    iter_binary_records,
    read_binary_header,
    read_block_index,
    MAGIC as _BINARY_MAGIC,
)

#: Version written by :func:`save_trace` when none is requested.
TRACE_FORMAT_VERSION = 1
#: All format versions :func:`load_trace` / :func:`iter_trace` understand.
KNOWN_TRACE_VERSIONS = (0, 1, 2, 3)

_V1_HEADER = "# repro-trace v1"
_GZIP_MAGIC = b"\x1f\x8b"


# -------------------------------------------------------------------- writers
class _TextTraceWriterV1(WriterContextMixin):
    """Streaming writer for the percent-encoded v1 text format."""

    def __init__(self, path, label: str = "trace", metadata: Optional[dict] = None) -> None:
        self.path = path
        self.count = 0
        self._handle = open(path, "w", encoding="utf-8")
        self._handle.write(_V1_HEADER + "\n")
        self._handle.write(f"# label {quote(label, safe='')}\n")
        if metadata:
            self._handle.write(f"# meta {json.dumps(metadata, sort_keys=True)}\n")

    def write(self, request: Request) -> None:
        name = quote(str(request.name), safe="")
        if not name:
            raise ValueError(
                f"cannot save an object with an empty name to {self.path}: "
                "the line-oriented trace format needs a non-empty name field"
            )
        if request.is_insert:
            self._handle.write(f"I {name} {request.size}\n")
        else:
            self._handle.write(f"D {name}\n")
        self.count += 1

    def close(self) -> None:
        self._handle.close()

    def abort(self) -> None:
        self._handle.close()


def open_trace_writer(
    path: Union[str, os.PathLike],
    version: int = TRACE_FORMAT_VERSION,
    label: str = "trace",
    metadata: Optional[Dict[str, Any]] = None,
    compress: Union[bool, str] = False,
    block_records: int = DEFAULT_BLOCK_RECORDS,
):
    """Open a streaming trace writer (``.write(request)`` / ``.close()``).

    This is the single write path for every format: :func:`save_trace` and
    ``repro trace convert`` both go through it.  ``compress`` is only
    meaningful for the binary format (v3: zlib per block, so the file stays
    seekable); pass ``compress="background"`` to run the zlib work on a
    writer thread that overlaps a CPU-bound producer (byte-identical output
    — see :class:`~repro.workloads.binary.BinaryTraceWriter`).
    ``block_records`` sets the v3 block size.  v0 and v2 are read-only.
    """
    if version == 0:
        raise ValueError(
            "the v0 text trace format is read-only; write version=1 or version=3 "
            "instead (repro trace convert IN OUT upgrades v0 files)"
        )
    if version == 2:
        raise ValueError(
            "the v2 binary trace format is read-only; write version=3 instead "
            "(repro trace convert IN OUT --format v3 upgrades v2 files)"
        )
    if compress and version != 3:
        raise ValueError(
            f"compression is only supported by the binary format (v3), not v{version}; "
            "pass version=3 (or convert with --format v3 --compress)"
        )
    if version == 1:
        return _TextTraceWriterV1(path, label=label, metadata=metadata)
    if version == 3:
        return BinaryTraceWriter(
            path,
            label=label,
            metadata=metadata,
            compress=compress,
            block_records=block_records,
        )
    raise ValueError(
        f"unknown trace format version {version!r}; writable versions: 1, 3"
    )


def save_trace(
    trace: Trace,
    path: Union[str, os.PathLike],
    metadata: Optional[Dict[str, Any]] = None,
    version: int = TRACE_FORMAT_VERSION,
    compress: Union[bool, str] = False,
    block_records: int = DEFAULT_BLOCK_RECORDS,
) -> None:
    """Write ``trace`` to ``path`` in the requested format version.

    ``metadata`` (JSON-serialisable dict) is merged over ``trace.metadata``
    and stored in the v1/v3 header.  ``compress=True`` (v3 only)
    zlib-compresses each block body, so the file stays seekable.
    """
    merged = dict(trace.metadata)
    if metadata:
        merged.update(metadata)
    writer = open_trace_writer(
        path,
        version=version,
        label=trace.label,
        metadata=merged or None,
        compress=compress,
        block_records=block_records,
    )
    try:
        for request in trace:
            writer.write(request)
        # close() is inside the guard: it writes the last block and the
        # footer, so a full disk can surface there.
        writer.close()
    except BaseException:
        writer.abort()
        raise


# -------------------------------------------------------------------- readers
class _SafeGzipHandle(io.BufferedIOBase):
    """A gzip read handle whose failures are loud trace errors.

    The gzip module raises a bare ``EOFError`` when the container is
    truncated (and ``zlib.error``/``BadGzipFile`` on corruption) — none of
    which are the :class:`TraceFormatError` the trace readers promise, so
    a clipped ``.gz`` trace used to surface as a traceback with no file
    path.  Translating here, once, covers every read path: ``iter_trace``,
    ``load_trace``, ``trace_info``, and the streaming analyzers.
    """

    def __init__(self, path) -> None:
        self._handle = gzip.open(path, "rb")
        self._path = path

    def _translate(self, error) -> TraceFormatError:
        return TraceFormatError(
            f"{self._path}: truncated or corrupt gzip container ({error})"
        )

    def read(self, size=-1):
        try:
            return self._handle.read(size)
        except (EOFError, zlib.error, gzip.BadGzipFile) as error:
            raise self._translate(error) from error

    def read1(self, size=-1):
        try:
            return self._handle.read1(size)
        except (EOFError, zlib.error, gzip.BadGzipFile) as error:
            raise self._translate(error) from error

    def readinto(self, buffer):
        try:
            return self._handle.readinto(buffer)
        except (EOFError, zlib.error, gzip.BadGzipFile) as error:
            raise self._translate(error) from error

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return self._handle.seekable()

    def seek(self, offset, whence=io.SEEK_SET):
        try:
            return self._handle.seek(offset, whence)
        except (EOFError, zlib.error, gzip.BadGzipFile) as error:
            raise self._translate(error) from error

    def tell(self):
        return self._handle.tell()

    def close(self) -> None:
        self._handle.close()
        super().close()


def _open_container(path):
    """Open ``path`` for binary reading, unwrapping a gzip container.

    Returns ``(handle, container)`` where ``container`` is ``"gzip"`` or
    ``"plain"`` and ``handle`` is positioned at offset 0 of the (inner)
    trace bytes.
    """
    handle = open(path, "rb")
    try:
        head = handle.read(2)
    except OSError:
        handle.close()
        raise
    if head == _GZIP_MAGIC:
        handle.close()
        return _SafeGzipHandle(path), "gzip"
    if head == _GZIP_MAGIC[:1]:
        # A lone 0x1f first byte is a gzip container clipped inside its own
        # magic; without this check it would fall through to the text reader
        # and silently parse as an empty trace.
        handle.close()
        raise TraceFormatError(
            f"{path}: truncated or corrupt gzip container (file ends inside "
            "the gzip magic)"
        )
    handle.seek(0)
    return handle, "plain"


@dataclass
class _TraceShape:
    """Where a trace file's records live and what its header said."""

    container: str  # "plain" or "gzip"
    version: int  # 0, 1, 3, or the read-only legacy 2
    compressed: bool  # binary zlib flag (v3: per block, v2: whole body)
    label: str
    metadata: Dict[str, Any] = field(default_factory=dict)
    header_lines: int = 0  # leading text lines consumed by the header scan


def _scan_text_header(text_handle, path) -> _TraceShape:
    """Read the leading comment block of a text trace (v0 or v1).

    Leaves ``text_handle`` positioned at the first record line (header
    lines already consumed).
    """
    start = text_handle.tell()
    first = text_handle.readline()
    stripped = first.strip()
    if stripped.startswith("# repro-trace ") and stripped != _V1_HEADER:
        raise TraceFormatError(
            f"{path}:1: unsupported trace format {stripped!r}; this reader knows "
            "v0, v1, and the binary v2/v3 container"
        )
    shape = _TraceShape(
        container="plain",
        version=1 if stripped == _V1_HEADER else 0,
        compressed=False,
        label="",
        header_lines=1,
    )
    if shape.version == 0:
        if stripped.startswith("# trace "):
            shape.label = stripped[len("# trace "):]
        else:
            # Not a header line: the first line is already a record (or a
            # plain comment) — hand it back to the record scan.
            shape.header_lines = 0
            text_handle.seek(start)
        return shape
    while True:
        position = text_handle.tell()
        line = text_handle.readline()
        stripped = line.strip()
        if stripped.startswith("# label "):
            shape.label = unquote(stripped[len("# label "):].strip())
        elif stripped.startswith("# meta "):
            try:
                metadata = json.loads(stripped[len("# meta "):])
            except json.JSONDecodeError as error:
                raise TraceFormatError(
                    f"{path}:{shape.header_lines + 1}: malformed metadata JSON: {error}"
                ) from error
            if not isinstance(metadata, dict):
                raise TraceFormatError(
                    f"{path}:{shape.header_lines + 1}: trace metadata must be a JSON "
                    f"object, got {type(metadata).__name__}"
                )
            shape.metadata = metadata
        elif not line or not stripped or stripped.startswith("#"):
            if not line:
                return shape
        else:
            text_handle.seek(position)
            return shape
        shape.header_lines += 1


def _text_handle(handle):
    return io.TextIOWrapper(handle, encoding="utf-8")


def _probe(path) -> "_TraceShape":
    """Detect the container, format version, and header of ``path``."""
    handle, container = _open_container(path)
    try:
        magic = handle.read(len(_BINARY_MAGIC))
        if magic == b"" and container == "plain":
            raise TraceFormatError(
                f"{path}: empty file; a valid trace always carries at least a header "
                "(v0 '# trace' line, v1 '# repro-trace v1' line, or the binary magic)"
            )
        if magic == _BINARY_MAGIC:
            handle.seek(0)
            header = read_binary_header(handle, path)
            return _TraceShape(
                container=container,
                version=header.version,
                compressed=header.compressed,
                label=header.label,
                metadata=header.metadata,
            )
        if magic[:1] == _BINARY_MAGIC[:1]:
            raise TraceFormatError(
                f"{path}: bad magic {magic!r}; looks like a binary trace but is not "
                "a v2/v3 file this reader understands"
            )
        handle.seek(0)
        try:
            text = _text_handle(handle)
            if container == "gzip" and text.read(1) == "":
                raise TraceFormatError(
                    f"{path}: empty file; a valid trace always carries at least a "
                    "header (v0 '# trace' line, v1 '# repro-trace v1' line, or the "
                    "binary magic)"
                )
            text.seek(0)
            shape = _scan_text_header(text, path)
        except UnicodeDecodeError as error:
            raise TraceFormatError(
                f"{path}: not a valid trace: neither the binary trace magic nor "
                f"decodable text ({error})"
            ) from error
        shape.container = container
        return shape
    finally:
        handle.close()


def _parse_record(line: str, line_number: int, path, decode) -> Request:
    parts = line.split()
    if parts[0] == "I":
        if len(parts) != 3:
            raise ValueError(f"{path}:{line_number}: malformed insert {line!r}")
        try:
            size = int(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{line_number}: malformed insert {line!r}") from None
        return Request.insert(decode(parts[1]), size)
    if parts[0] == "D":
        if len(parts) != 2:
            raise ValueError(f"{path}:{line_number}: malformed delete {line!r}")
        return Request.delete(decode(parts[1]))
    raise ValueError(f"{path}:{line_number}: unknown record {line!r}")


def _iter_text_records(text_handle, shape: _TraceShape, path) -> Iterator[Request]:
    decode = unquote if shape.version == 1 else str
    line_number = shape.header_lines
    try:
        for raw in text_handle:
            line_number += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                # Header lines must lead the file (the streaming header scan
                # reads only the leading comment block); refusing them here
                # beats silently dropping a label or metadata that the old
                # whole-file reader would have honoured.
                if line.startswith(("# label ", "# meta ")) or (
                    shape.version == 0 and line.startswith("# trace ")
                ):
                    raise TraceFormatError(
                        f"{path}:{line_number}: header line {line.split()[1]!r} after "
                        "the first record; header lines are only recognised at the "
                        "top of the file — re-save or `repro trace convert` it"
                    )
                continue
            yield _parse_record(line, line_number, path, decode)
    except UnicodeDecodeError as error:
        raise TraceFormatError(
            f"{path}:{line_number + 1}: not a valid text trace (undecodable bytes: {error})"
        ) from error


class TraceFileSource:
    """A re-iterable, streaming :class:`~repro.workloads.base.RequestSource`
    over a trace file in any known format (v0 / v1 / v2 / v3, optionally
    inside a gzip container).

    The header (format version, label, metadata) is read eagerly at
    construction time; each ``iter()`` re-opens the file and yields
    :class:`Request` objects one at a time, so replaying a 10M-request
    trace never materialises it.  ``len()`` is intentionally *not*
    provided — a request count would need a full pass; use
    :func:`trace_info` when you want one.
    """

    def __init__(self, path: Union[str, os.PathLike], label: str = "") -> None:
        self.path = path
        self._shape = _probe(path)
        self.version = self._shape.version
        self.container = self._shape.container
        self.compressed = self._shape.compressed
        self.label = label or self._shape.label or os.path.basename(str(path))
        self.metadata: Dict[str, Any] = dict(self._shape.metadata)

    def __iter__(self) -> Iterator[Request]:
        handle, _ = _open_container(self.path)
        try:
            if self.version >= 2:
                header = read_binary_header(handle, self.path)
                yield from iter_binary_records(handle, header, self.path)
            else:
                text = _text_handle(handle)
                shape = _scan_text_header(text, self.path)
                yield from _iter_text_records(text, shape, self.path)
        finally:
            handle.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TraceFileSource {str(self.path)!r} v{self.version}"
            f"{' zlib' if self.compressed else ''}"
            f"{' gzip' if self.container == 'gzip' else ''}>"
        )


def iter_trace(path: Union[str, os.PathLike]) -> Iterator[Request]:
    """Yield the requests of a trace file one at a time (any known format).

    Streaming counterpart of :func:`load_trace`: peak memory is bounded by
    the read buffer (plus, for v3, one block and the live-scoped name
    table — one entry per simultaneously live object), never by the trace
    length.  Legacy v2 files are the exception: their body is read whole.
    """
    return iter(TraceFileSource(path))


def load_trace(path: Union[str, os.PathLike], label: str = "") -> Trace:
    """Read a trace file in any known format (v0, v1, v2, or v3).

    The format is detected from the file's first bytes (a gzip container
    around any format is unwrapped transparently); object names come back
    as strings and sizes as integers.  An explicit ``label`` argument
    overrides whatever the file header carries.  An empty file is rejected
    with a clear :class:`ValueError` — no writer ever produces one.
    """
    source = TraceFileSource(path, label=label)
    return Trace(source, label=source.label, metadata=source.metadata)


@dataclass
class TraceInfo:
    """Summary of a trace file, computed in one streaming pass."""

    path: str
    file_bytes: int
    container: str
    version: int
    compressed: bool
    label: str
    metadata: Dict[str, Any]
    requests: int
    inserts: int
    deletes: int
    distinct_names: int
    delta: int
    peak_volume: int
    final_volume: int
    total_inserted_volume: int
    #: v3 only: number of blocks in the footer index (0 otherwise).
    blocks: int = 0
    #: v3 only: records in the largest block (the writer's block size).
    block_records: int = 0
    #: True when the file can be seeked to any block (plain-container v3).
    seekable: bool = False

    @property
    def format_description(self) -> str:
        parts = [f"v{self.version}", "binary" if self.version >= 2 else "text"]
        if self.compressed:
            parts.append("zlib blocks" if self.version == 3 else "zlib body")
        if self.container == "gzip":
            parts.append("gzip container")
        return f"{parts[0]} ({', '.join(parts[1:])})"


def trace_info(path: Union[str, os.PathLike]) -> TraceInfo:
    """Characterise a trace file without materialising it.

    Streams the file once, tracking the live-object map (memory is bounded
    by the number of *simultaneously live* objects plus distinct names, not
    the request count) to compute counts, delta, and peak live volume.
    """
    source = TraceFileSource(path)
    requests = inserts = deletes = 0
    delta = 0
    volume = 0
    peak_volume = 0
    total_inserted = 0
    live: Dict[str, int] = {}
    names: set = set()
    for request in source:
        requests += 1
        names.add(request.name)
        if request.is_insert:
            inserts += 1
            total_inserted += request.size
            if request.size > delta:
                delta = request.size
            volume += request.size - live.get(request.name, 0)
            live[request.name] = request.size
            if volume > peak_volume:
                peak_volume = volume
        else:
            deletes += 1
            volume -= live.pop(request.name, 0)
    blocks = 0
    block_records = 0
    seekable = False
    if source.version == 3 and source.container == "plain":
        index = read_block_index(path)
        if index is not None:
            blocks = len(index.blocks)
            block_records = max((b.records for b in index.blocks), default=0)
            seekable = True
    return TraceInfo(
        path=str(path),
        file_bytes=os.path.getsize(path),
        container=source.container,
        version=source.version,
        compressed=source.compressed,
        label=source.label,
        metadata=source.metadata,
        requests=requests,
        inserts=inserts,
        deletes=deletes,
        distinct_names=len(names),
        delta=delta,
        peak_volume=peak_volume,
        final_volume=volume,
        total_inserted_volume=total_inserted,
        blocks=blocks,
        block_records=block_records,
        seekable=seekable,
    )
