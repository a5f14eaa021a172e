"""Wire protocol of the live allocation service: varint-length-prefixed JSON.

Every message on the wire is one *frame*: an unsigned LEB128 varint giving
the byte length of a UTF-8 JSON document, followed by that document.  The
varint prefix makes frames self-delimiting over a plain byte stream with
one allocation per message and no sentinel-escaping; JSON keeps the
payloads debuggable with ``nc``/``socat`` and trivially versionable.

Client → server messages are objects with an ``op`` field:

``{"op": "hello", "tenant": NAME, "protocol": 1}``
    First frame on every connection.  ``tenant`` is optional (the server
    assigns ``client-N``).
``{"op": "batch", "seq": N, "reqs": [["i", name, size], ["d", name], ...]}``
    A batch of allocation requests.  Requests use compact arrays, not
    objects — the hot path of the saturation harness.
``{"op": "stats", "seq": N}`` / ``{"op": "snapshot", "seq": N, "path": P}``
    / ``{"op": "drain", "seq": N}``
    Control verbs; they queue behind earlier batches of the same tenant,
    so a DRAIN response proves everything before it was applied and
    recorded.
``{"op": "close"}``
    Finalize this connection's session (per-tenant arenas write their
    trace trailer) and say goodbye.

Server → client responses echo ``seq`` and carry ``"ok": true/false``;
responses to one connection always arrive in request order.

Sizes: names and sizes travel as JSON scalars; names arrive as strings
(matching what trace files round-trip — names are stringified on save in
every trace format, so a served session's recorded trace replays offline
byte-identically).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, BinaryIO, Dict, List, Optional, Sequence

from repro.workloads.base import DELETE, INSERT, Request
from repro.workloads.binary import encode_varint

#: Protocol version spoken by this module (echoed in the hello exchange).
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's JSON body.  A 16 MiB frame is ~500k compact
#: requests — far beyond any sane batch; anything larger is a corrupt or
#: hostile stream and is refused before allocation.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed frame, message, or request encoding."""


# ----------------------------------------------------------------- framing
def encode_frame(message: Dict[str, Any]) -> bytes:
    """Encode one message as a length-prefixed frame."""
    body = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return encode_varint(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(message).__name__}")
    return message


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on a connection cut mid-frame or a malformed
    prefix/body.
    """
    length = 0
    shift = 0
    first = True
    while True:
        byte = await reader.read(1)
        if not byte:
            if first:
                return None
            raise ProtocolError("connection closed inside a frame length prefix")
        first = False
        length |= (byte[0] & 0x7F) << shift
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length exceeds the {MAX_FRAME_BYTES}-byte limit")
        if not byte[0] & 0x80:
            break
        shift += 7
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection closed inside a frame body "
            f"({len(error.partial)}/{length} bytes)"
        ) from error
    return _decode_body(body)


def read_frame_sync(stream: BinaryIO) -> Optional[Dict[str, Any]]:
    """Blocking counterpart of :func:`read_frame` over a file-like socket
    (``socket.makefile("rb")``)."""
    length = 0
    shift = 0
    first = True
    while True:
        byte = stream.read(1)
        if not byte:
            if first:
                return None
            raise ProtocolError("connection closed inside a frame length prefix")
        first = False
        length |= (byte[0] & 0x7F) << shift
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length exceeds the {MAX_FRAME_BYTES}-byte limit")
        if not byte[0] & 0x80:
            break
        shift += 7
    body = b""
    while len(body) < length:
        chunk = stream.read(length - len(body))
        if not chunk:
            raise ProtocolError(
                f"connection closed inside a frame body ({len(body)}/{length} bytes)"
            )
        body += chunk
    return _decode_body(body)


# ------------------------------------------------------------- request codec
def encode_requests(requests: Sequence[Request]) -> List[List[Any]]:
    """Compact on-the-wire form: ``["i", name, size]`` / ``["d", name]``."""
    out: List[List[Any]] = []
    for request in requests:
        if request.op == INSERT:
            out.append(["i", str(request.name), request.size])
        else:
            out.append(["d", str(request.name)])
    return out


def decode_requests(payload: Any, prefix: str = "") -> List[Request]:
    """Decode a batch body back into :class:`Request` objects.

    ``prefix`` namespaces the names (shared-arena mode prefixes each
    tenant's objects with ``"<tenant>/"`` so clients cannot collide).
    """
    if not isinstance(payload, list):
        raise ProtocolError("batch 'reqs' must be a list")
    requests: List[Request] = []
    try:
        for item in payload:
            tag = item[0]
            if tag == "i":
                requests.append(Request(INSERT, prefix + str(item[1]), int(item[2])))
            elif tag == "d":
                requests.append(Request(DELETE, prefix + str(item[1])))
            else:
                raise ProtocolError(f"unknown request tag {tag!r}")
    except ProtocolError:
        raise
    except (TypeError, ValueError, IndexError, KeyError) as error:
        raise ProtocolError(f"malformed request in batch: {error}") from error
    return requests
