"""Framed TCP protocol of the distributed enumeration runner.

Transport framing
-----------------
Every message is one *frame*: a 5-byte header — ``!BI`` message type
plus body length — followed by the body.  Bodies are bounded
(:data:`MAX_FRAME_BYTES`), so a corrupt or hostile length word can
never provoke a giant allocation; anything malformed raises the typed
:class:`~repro.engine.wire.WireDecodeError` and the connection is
dropped.  The same framing is implemented twice on purpose: an asyncio
flavour for the coordinator's server (many connections, one event
loop) and a plain-socket flavour for the worker (one connection, a
simple blocking loop with timeouts) — the bytes on the wire are
identical.

Handshake
---------
A connecting worker sends ``HELLO`` (JSON): magic, protocol version
and its available graph-kernel tier.  The coordinator answers
``WELCOME`` (JSON): protocol version, the **graph fingerprint** (a
digest of the exact graph payload this job ships), the coordinator's
kernel tier and the heartbeat cadence — then streams the ``GRAPH``
frame itself (JSON header + the packed ``uint64`` adjacency, shipped
once per host).  A worker that reconnects — after a network blip or a
coordinator restart — compares the fingerprint against the graph it
already holds and skips the rebuild when they match, so resuming a job
against a warm fleet costs one round-trip, not a re-ship of the
adjacency.

There is one wire format (the packed batches of
:mod:`repro.engine.wire`), so the protocol version alone says whether
two ends can talk.  A version mismatch is answered with a fatal
``ERROR`` frame before closing, so an old worker fails loudly instead
of retrying forever against a coordinator it cannot serve.

Steady state
------------
``BATCH`` (coordinator → worker) and ``RESULT`` (worker → coordinator)
carry an ``!QI`` batch id + CRC-32 of the body, then the flat byte
serialisations of :mod:`repro.engine.wire` — the checksum means a
bit-flipped batch or result is always *detected* (the connection is
dropped and the batch requeued) instead of decoding into wrong masks.
``BATCH_FAILED`` (worker → coordinator) is the typed cooperative-abort
reply: the worker hit its per-batch resource watchdog (wall-clock
deadline or RSS ceiling), freed its scratch state and *stayed alive*;
the body is the batch id + a JSON ``{reason, elapsed_s, peak_rss}``
document the coordinator feeds into its retry/quarantine policy.
``HEARTBEAT`` frames flow worker →
coordinator on a fixed cadence (from a side thread, so a worker deep
in a long ``Extend`` still proves liveness); ``PING`` flows coordinator
→ worker so an idle worker can distinguish a quiet coordinator from a
dead one.  ``GOODBYE`` announces a graceful worker departure, and
acknowledges a ``SHUTDOWN``, which tells workers the job is complete
(also in answer to a ``HELLO`` during the coordinator's shutdown).
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.engine.base import EngineError, WireDecodeError

if TYPE_CHECKING:  # typed-core annotations only — no runtime import
    import asyncio
    import threading

    from repro.engine.pool import GraphPayload

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MSG_HELLO",
    "MSG_WELCOME",
    "MSG_GRAPH",
    "MSG_BATCH",
    "MSG_RESULT",
    "MSG_HEARTBEAT",
    "MSG_PING",
    "MSG_GOODBYE",
    "MSG_SHUTDOWN",
    "MSG_ERROR",
    "MSG_BATCH_FAILED",
    "Frame",
    "encode_frame",
    "read_frame_async",
    "recv_frame",
    "send_frame",
    "encode_json",
    "decode_json",
    "encode_graph_payload",
    "decode_graph_payload",
    "payload_fingerprint",
    "pack_tagged",
    "unpack_tagged",
    "encode_batch_failed",
    "decode_batch_failed",
    "parse_address",
    "DEFAULT_LIVENESS_WINDOWS",
    "validate_liveness_config",
]

#: Heartbeat windows a connection may miss before it is declared dead
#: (default; CLI-configurable via --heartbeat-misses).  Lives here —
#: the numpy-free module both transport ends import — so backend
#: construction can validate liveness settings without importing the
#: runner (which needs numpy for the packed wire format).
DEFAULT_LIVENESS_WINDOWS = 3.0


def validate_liveness_config(
    heartbeat_s: float,
    pending_timeout_s: float | None,
    liveness_windows: float = DEFAULT_LIVENESS_WINDOWS,
) -> None:
    """Reject liveness settings that cannot work, at startup.

    The pending-timeout is enforced by the sweeper, which ticks once
    per heartbeat interval — a ``pending_timeout_s`` at or below
    ``heartbeat_s`` would fire late (or confusingly, on its first
    tick), so it is rejected up front with an actionable error rather
    than surfacing as a mysterious late timeout mid-run.
    """
    if heartbeat_s <= 0:
        raise EngineError("heartbeat interval must be positive")
    if liveness_windows <= 0:
        raise EngineError("heartbeat miss threshold must be positive")
    if pending_timeout_s is not None and pending_timeout_s <= heartbeat_s:
        raise EngineError(
            f"pending_timeout_s ({pending_timeout_s:g}s) must exceed the "
            f"heartbeat interval ({heartbeat_s:g}s): the liveness sweep "
            "that enforces it only ticks once per heartbeat — raise "
            "--pending-timeout or lower --heartbeat-interval"
        )

#: Version 2 added the per-body CRC-32 in tagged frames and the
#: BATCH_FAILED cooperative-abort frame.  Version 3 dropped the
#: one-value wire-format negotiation (HELLO's ``wire_formats``,
#: WELCOME's ``wire_format``).  Version 4 batches carry candidate
#: families instead of answers plus directions, and a HELLO after the
#: job's end is answered SHUTDOWN.  Every version checks the version right
#: after the magic, so a peer of another version — older or newer — is
#: answered with a clean fatal ERROR frame rather than garbage.
PROTOCOL_VERSION = 4
MAGIC = "repro-enum"

#: Per-frame body cap.  The largest legitimate frame is the graph
#: payload (``rows × words × 8`` bytes of packed adjacency): 256 MiB
#: covers graphs far beyond anything the enumeration itself could
#: handle, while bounding what a malformed header can make us allocate.
MAX_FRAME_BYTES = 1 << 28

MSG_HELLO = 1
MSG_WELCOME = 2
MSG_GRAPH = 3
MSG_BATCH = 4
MSG_RESULT = 5
MSG_HEARTBEAT = 6
MSG_PING = 7
MSG_GOODBYE = 8
MSG_SHUTDOWN = 9
MSG_ERROR = 10
MSG_BATCH_FAILED = 11

_KNOWN_TYPES = frozenset(range(MSG_HELLO, MSG_BATCH_FAILED + 1))

_HEADER = struct.Struct("!BI")
_BATCH_ID = struct.Struct("!Q")


@dataclass(frozen=True)
class Frame:
    """One decoded frame: message type + raw body."""

    msg_type: int
    payload: bytes


def _validate_header(msg_type: int, length: int) -> None:
    if msg_type not in _KNOWN_TYPES:
        raise WireDecodeError(f"unknown frame type {msg_type}")
    if length > MAX_FRAME_BYTES:
        raise WireDecodeError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """Serialise one frame (header + body) into bytes."""
    _validate_header(msg_type, len(payload))
    return _HEADER.pack(msg_type, len(payload)) + payload


# ----------------------------------------------------------------------
# Asyncio flavour (coordinator side)
# ----------------------------------------------------------------------


async def read_frame_async(reader: asyncio.StreamReader) -> Frame:
    """Read one frame from an ``asyncio.StreamReader``.

    Raises ``asyncio.IncompleteReadError`` on EOF and
    :class:`WireDecodeError` on malformed headers.
    """
    header = await reader.readexactly(_HEADER.size)
    msg_type, length = _HEADER.unpack(header)
    _validate_header(msg_type, length)
    payload = await reader.readexactly(length) if length else b""
    return Frame(msg_type, payload)


# ----------------------------------------------------------------------
# Plain-socket flavour (worker side)
# ----------------------------------------------------------------------


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Frame:
    """Read one frame from a blocking socket (honours its timeout)."""
    msg_type, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    _validate_header(msg_type, length)
    payload = _recv_exact(sock, length) if length else b""
    return Frame(msg_type, payload)


def send_frame(
    sock: socket.socket,
    msg_type: int,
    payload: bytes = b"",
    lock: threading.Lock | None = None,
) -> None:
    """Write one frame; ``lock`` serialises writers (heartbeat thread)."""
    data = encode_frame(msg_type, payload)
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


# ----------------------------------------------------------------------
# JSON message bodies (handshake, errors)
# ----------------------------------------------------------------------


def encode_json(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode()


def decode_json(payload: bytes) -> dict:
    try:
        message = json.loads(payload)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireDecodeError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise WireDecodeError("frame body must be a JSON object")
    return message


# ----------------------------------------------------------------------
# Batch/result bodies (batch id + wire bytes)
# ----------------------------------------------------------------------


_TAGGED = struct.Struct("!QI")


def pack_tagged(batch_id: int, body: bytes) -> bytes:
    """Prefix ``body`` with its ``!Q`` batch id and CRC-32."""
    return _TAGGED.pack(batch_id, zlib.crc32(body)) + body


def unpack_tagged(payload: bytes) -> tuple[int, bytes]:
    """Split a tagged body into ``(batch_id, body bytes)``, CRC-checked.

    The checksum turns silent wire corruption of a batch or result into
    a typed decode failure — the connection is dropped and the batch
    requeued, so a flipped bit costs a retry, never a wrong answer.
    """
    if len(payload) < _TAGGED.size:
        raise WireDecodeError(
            f"tagged frame of {len(payload)} bytes is shorter than its "
            "id + checksum"
        )
    batch_id, crc = _TAGGED.unpack_from(payload)
    body = payload[_TAGGED.size :]
    if zlib.crc32(body) != crc:
        raise WireDecodeError(
            f"tagged frame for batch {batch_id} failed its CRC-32 check"
        )
    return batch_id, body


def encode_batch_failed(
    batch_id: int, reason: str, elapsed_s: float, peak_rss: int
) -> bytes:
    """Body of a BATCH_FAILED frame (cooperative worker-side abort)."""
    return pack_tagged(
        batch_id,
        encode_json(
            {
                "reason": reason,
                "elapsed_s": float(elapsed_s),
                "peak_rss": int(peak_rss),
            }
        ),
    )


def decode_batch_failed(payload: bytes) -> tuple[int, str, float, int]:
    """Decode a BATCH_FAILED body → (batch_id, reason, elapsed, peak_rss)."""
    batch_id, body = unpack_tagged(payload)
    detail = decode_json(body)
    try:
        reason = str(detail["reason"])
        elapsed_s = float(detail["elapsed_s"])
        peak_rss = int(detail["peak_rss"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireDecodeError(f"malformed BATCH_FAILED body: {exc}") from exc
    return batch_id, reason, elapsed_s, peak_rss


# ----------------------------------------------------------------------
# The graph payload frame
# ----------------------------------------------------------------------

_LABEL_TYPES = {int: "i", str: "s", float: "f", bool: "b"}


def _encode_label(label: Hashable) -> list[object]:
    """JSON-safe label encoding (type-tagged so ``1`` ≠ ``"1"``)."""
    kind = _LABEL_TYPES.get(type(label))
    if kind is not None:
        return [kind, label]
    if label is None:
        return ["n"]
    if isinstance(label, tuple):
        return ["t", [_encode_label(item) for item in label]]
    raise EngineError(
        f"distributed execution needs JSON-encodable node labels "
        f"(int/str/float/bool/None/tuples thereof), got "
        f"{type(label).__name__}"
    )


def _decode_label(encoded: object) -> Hashable:
    if not isinstance(encoded, list) or not encoded:
        raise WireDecodeError("malformed label encoding")
    kind = encoded[0]
    if kind == "n":
        return None
    if len(encoded) != 2:
        raise WireDecodeError("malformed label encoding")
    value = encoded[1]
    if kind == "t":
        if not isinstance(value, list):
            raise WireDecodeError("malformed tuple label")
        return tuple(_decode_label(item) for item in value)
    expected = {"i": int, "s": str, "f": float, "b": bool}.get(kind)
    if expected is None or not isinstance(value, expected) or (
        expected is int and isinstance(value, bool)
    ):
        raise WireDecodeError(f"malformed label of kind {kind!r}")
    return value


_GRAPH_HEADER_LEN = struct.Struct("!I")


def encode_graph_payload(payload: GraphPayload) -> bytes:
    """Serialise a :class:`~repro.engine.pool.GraphPayload` for the wire.

    The triangulator must be a registry name — custom heuristic
    *instances* would need pickling, which the socket protocol
    deliberately never does.
    """
    if not isinstance(payload.triangulator, str):
        raise EngineError(
            "distributed execution requires a registry-named "
            "triangulator (custom instances cannot ship over a socket)"
        )
    header = encode_json(
        {
            "labels": [_encode_label(label) for label in payload.labels],
            "alive": payload.alive,
            "num_edges": payload.num_edges,
            "triangulator": payload.triangulator,
            "backend": payload.backend,
            "rows": payload.rows,
            "words": payload.words,
        }
    )
    return _GRAPH_HEADER_LEN.pack(len(header)) + header + payload.packed


def decode_graph_payload(data: bytes) -> "GraphPayload":
    """Rebuild a validated :class:`~repro.engine.pool.GraphPayload`."""
    from repro.engine.pool import GraphPayload

    if len(data) < _GRAPH_HEADER_LEN.size:
        raise WireDecodeError("graph frame is shorter than its header")
    (header_len,) = _GRAPH_HEADER_LEN.unpack_from(data)
    if header_len > len(data) - _GRAPH_HEADER_LEN.size:
        raise WireDecodeError("graph frame header overruns the frame")
    header = decode_json(
        data[_GRAPH_HEADER_LEN.size : _GRAPH_HEADER_LEN.size + header_len]
    )
    packed = data[_GRAPH_HEADER_LEN.size + header_len :]
    try:
        labels = tuple(
            _decode_label(item) for item in header["labels"]
        )
        alive = int(header["alive"])
        num_edges = int(header["num_edges"])
        triangulator = str(header["triangulator"])
        backend = str(header["backend"])
        rows = int(header["rows"])
        words = int(header["words"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireDecodeError(f"malformed graph header: {exc}") from exc
    if alive < 0 or rows < 0 or words < 1 or num_edges < 0:
        raise WireDecodeError("graph header fields out of range")
    if alive >> rows:
        raise WireDecodeError(
            f"graph header alive mask names vertices beyond its {rows} rows"
        )
    if len(labels) != rows:
        raise WireDecodeError(
            f"graph header names {len(labels)} labels for {rows} rows"
        )
    if len(packed) != rows * words * 8:
        raise WireDecodeError(
            f"packed adjacency holds {len(packed)} bytes; expected "
            f"{rows * words * 8} for {rows} rows × {words} words"
        )
    return GraphPayload(
        labels=labels,
        alive=alive,
        num_edges=num_edges,
        triangulator=triangulator,
        backend=backend,
        rows=rows,
        words=words,
        packed=packed,
    )


def payload_fingerprint(graph_frame: bytes) -> str:
    """Digest of the exact graph frame a job ships.

    Computed over the serialised frame, so it pins everything a worker
    rebuilds from: labels, interning order, adjacency, triangulator and
    graph-core backend.  Workers use it to recognise the job across
    reconnects (and a restarted coordinator of the same job) and reuse
    their warm state instead of rebuilding.
    """
    return hashlib.sha256(graph_frame).hexdigest()


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``host:port`` (host defaults to all interfaces for '')."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise EngineError(
            f"address {text!r} must look like host:port (host may be "
            "empty to bind every interface)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise EngineError(f"invalid port in address {text!r}") from None
    if not 0 <= port <= 65535:
        raise EngineError(f"port {port} out of range in address {text!r}")
    return host or "0.0.0.0", port
