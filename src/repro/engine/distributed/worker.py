"""Worker-side transport: a reconnecting TCP client around WorkerState.

``repro worker --connect HOST:PORT`` runs :func:`run_worker`, which
drives exactly the same compute path as an in-process pool worker —
:class:`repro.engine.pool.WorkerState` — behind a blocking socket:

handshake
    HELLO (protocol version, local kernel tier) → WELCOME (graph
    fingerprint, coordinator's kernel tier, heartbeat cadence) →
    GRAPH (the packed uint64 adjacency, shipped once per connection).
    The graph frame's fingerprint keys the rebuilt
    :class:`WorkerState`, so a reconnect to the *same* job skips the
    rebuild and keeps its per-region separator caches warm.

steady state
    BATCH frames are decoded with :func:`repro.engine.wire.
    batch_from_bytes`, executed via ``WorkerState.run_batch``, and the
    packed result is framed straight back, tagged with the batch id.
    A daemon heartbeat thread beats every ``heartbeat_s`` even while a
    long batch computes, so the coordinator's liveness sweep never
    mistakes "busy" for "dead".

failure
    A lost/reset/idle-timed-out connection triggers a bounded
    exponential-backoff reconnect loop (full jitter); the coordinator
    requeues whatever this worker owned, so a reconnecting worker
    never double-delivers.  A SHUTDOWN frame or an ERROR frame marked
    fatal (protocol version mismatch, bad magic) ends the process
    instead — retrying a rejected handshake would loop forever.
"""

from __future__ import annotations

import random
import socket
import sys
import threading
import time
from dataclasses import dataclass

from repro.engine import wire
from repro.engine.base import EngineError
from repro.engine.distributed import protocol
from repro.engine.distributed.chaos import ChaosInjector
from repro.engine.pool import GraphPayload, WorkerState
from repro.engine.watchdog import BatchAbortedError, BatchLimits
from repro.graph import bitset_np

__all__ = ["WorkerConfig", "run_worker"]


@dataclass(frozen=True)
class WorkerConfig:
    """Tunables for the reconnecting worker loop."""

    connect_timeout_s: float = 5.0
    #: Consecutive failed connection attempts before giving up.
    max_retries: int = 8
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 5.0
    #: Heartbeat cadence fallback; the coordinator's WELCOME overrides it.
    heartbeat_s: float = 2.0
    #: Idle receive window (multiples of heartbeat_s) before the
    #: coordinator is presumed dead and the worker reconnects.
    idle_windows: float = 6.0
    #: Per-batch resource watchdog (wall-clock deadline / RSS ceiling);
    #: ``None`` disables supervision.  On breach the batch is aborted
    #: cooperatively and reported with a BATCH_FAILED frame — the
    #: worker stays alive and keeps serving.
    limits: BatchLimits | None = None
    #: Fault injection: ``(separator_mask, mode)`` poison spec applied
    #: to the worker state (see ``WorkerState.set_poison``), and the
    #: chaos injector spliced into the socket after each handshake.
    poison: tuple[int, str] | None = None
    chaos: ChaosInjector | None = None


class _FatalHandshake(EngineError):
    """Coordinator rejected us for a reason reconnecting cannot fix."""


def _local_kernel_tier() -> str:
    """Best kernel tier this host can run, for the HELLO handshake."""
    native = bitset_np.GRAPH_BACKENDS.get("native")
    if native is not None and native.runtime_available():
        return "native"
    return "numpy"


def _log(message: str) -> None:
    print(f"[repro-worker] {message}", file=sys.stderr, flush=True)


def _backoff_sleep(attempt: int, config: WorkerConfig) -> None:
    ceiling = min(
        config.backoff_cap_s, config.backoff_base_s * (2 ** (attempt - 1))
    )
    time.sleep(ceiling * (0.5 + random.random() / 2))


class _Heartbeat(threading.Thread):
    """Beats MSG_HEARTBEAT on a cadence, including during long batches."""

    def __init__(self, sock: socket.socket, lock: threading.Lock,
                 interval_s: float):
        super().__init__(name="repro-worker-heartbeat", daemon=True)
        self._sock = sock
        self._lock = lock
        self._interval_s = interval_s
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        beat = protocol.encode_frame(protocol.MSG_HEARTBEAT)
        while not self._stop.wait(self._interval_s):
            try:
                with self._lock:
                    self._sock.sendall(beat)
            except OSError:
                return


def _handshake(sock: socket.socket, config: WorkerConfig) -> dict:
    """HELLO → WELCOME; returns the coordinator's welcome document."""
    hello = protocol.encode_json(
        {
            "magic": protocol.MAGIC,
            "protocol": protocol.PROTOCOL_VERSION,
            "kernel_tier": _local_kernel_tier(),
        }
    )
    protocol.send_frame(sock, protocol.MSG_HELLO, hello)
    frame = protocol.recv_frame(sock)
    if frame.msg_type == protocol.MSG_ERROR:
        detail = protocol.decode_json(frame.payload)
        raise _FatalHandshake(
            f"coordinator rejected handshake: {detail.get('error', '?')}"
        )
    if frame.msg_type != protocol.MSG_WELCOME:
        raise wire.WireDecodeError(
            f"expected WELCOME, got frame type {frame.msg_type}"
        )
    welcome = protocol.decode_json(frame.payload)
    if welcome.get("magic") != protocol.MAGIC:
        raise _FatalHandshake("coordinator handshake magic mismatch")
    if welcome.get("protocol") != protocol.PROTOCOL_VERSION:
        raise _FatalHandshake(
            "protocol version mismatch: worker speaks "
            f"{protocol.PROTOCOL_VERSION}, coordinator speaks "
            f"{welcome.get('protocol')!r}"
        )
    return welcome


def _receive_graph(
    sock: socket.socket,
    config: WorkerConfig,
    welcome: dict,
    state: WorkerState | None,
    fingerprint: str | None,
) -> tuple[WorkerState, str]:
    """GRAPH frame → WorkerState, reusing ``state`` when unchanged."""
    frame = protocol.recv_frame(sock)
    if frame.msg_type != protocol.MSG_GRAPH:
        raise wire.WireDecodeError(
            f"expected GRAPH, got frame type {frame.msg_type}"
        )
    incoming = protocol.payload_fingerprint(frame.payload)
    expected = welcome.get("fingerprint")
    if isinstance(expected, str) and expected and incoming != expected:
        # The WELCOME names the digest of the exact frame the
        # coordinator ships; a mismatch means the frame was corrupted
        # in transit.  Reconnecting re-ships it — never rebuild a graph
        # from bytes that failed their integrity check.
        raise wire.WireDecodeError(
            f"graph frame digest {incoming[:12]} does not match the "
            f"announced fingerprint {expected[:12]}"
        )
    if state is not None and incoming == fingerprint:
        return state, fingerprint
    payload: GraphPayload = protocol.decode_graph_payload(frame.payload)
    state = WorkerState(payload, limits=config.limits)
    if config.poison is not None:
        state.set_poison(*config.poison)
    return state, incoming


def _serve(
    sock: socket.socket,
    config: WorkerConfig,
    state: WorkerState | None,
    fingerprint: str | None,
) -> tuple[str, WorkerState | None, str | None]:
    """Serve one connection; returns (outcome, state, fingerprint).

    Outcome is ``"shutdown"`` (clean end of job), or ``"lost"`` (the
    connection died and a reconnect is in order).  Fatal handshake
    rejections propagate as :class:`_FatalHandshake`.
    """
    sock.settimeout(config.connect_timeout_s)
    try:
        welcome = _handshake(sock, config)
        state, fingerprint = _receive_graph(
            sock, config, welcome, state, fingerprint
        )
    except (ConnectionError, OSError, wire.WireDecodeError) as exc:
        # A coordinator tearing down (job already finished) resets
        # connections that are still mid-handshake; that is transient
        # fleet churn, not a protocol rejection — only an explicit
        # ERROR frame or a WELCOME mismatch is fatal.
        _log(f"handshake interrupted ({exc}); reconnecting")
        return "lost", state, fingerprint
    _log(
        f"joined job (graph {fingerprint[:12]}, "
        f"kernel tier {state.kernel_tier})"
    )

    heartbeat_s = welcome.get("heartbeat_s")
    if not isinstance(heartbeat_s, (int, float)) or heartbeat_s <= 0:
        heartbeat_s = config.heartbeat_s
    if config.chaos is not None:
        # Splice the fault schedule in only now: the handshake must
        # stay clean (a corrupted HELLO/WELCOME is a *fatal* protocol
        # rejection by design — chaos injects only survivable faults).
        sock = config.chaos.wrap(sock)
    write_lock = threading.Lock()
    heartbeat = _Heartbeat(sock, write_lock, float(heartbeat_s))
    heartbeat.start()
    sock.settimeout(heartbeat_s * config.idle_windows)
    batches = 0
    try:
        while True:
            try:
                frame = protocol.recv_frame(sock)
            except socket.timeout:
                _log("coordinator went silent; reconnecting")
                return "lost", state, fingerprint
            if frame.msg_type == protocol.MSG_BATCH:
                batch_id, body = protocol.unpack_tagged(frame.payload)
                batch = wire.batch_from_bytes(body)
                try:
                    result = state.run_batch(batch)
                except BatchAbortedError as exc:
                    # Watchdog breach (or injected poison): the batch
                    # is reported failed with a typed frame and this
                    # worker keeps serving — no process death, no
                    # reconnect burned, scratch state already freed.
                    _log(
                        f"batch {batch_id} aborted ({exc.reason}) after "
                        f"{exc.elapsed_s:.1f}s; staying alive"
                    )
                    data = protocol.encode_batch_failed(
                        batch_id, exc.reason, exc.elapsed_s, exc.peak_rss
                    )
                    with write_lock:
                        protocol.send_frame(
                            sock, protocol.MSG_BATCH_FAILED, data
                        )
                    continue
                data = protocol.pack_tagged(
                    batch_id, wire.result_to_bytes(result)
                )
                with write_lock:
                    protocol.send_frame(sock, protocol.MSG_RESULT, data)
                batches += 1
            elif frame.msg_type == protocol.MSG_PING:
                continue  # liveness is carried by the heartbeat thread
            elif frame.msg_type == protocol.MSG_SHUTDOWN:
                _log(f"job complete ({batches} batches served)")
                return "shutdown", state, fingerprint
            elif frame.msg_type == protocol.MSG_ERROR:
                detail = protocol.decode_json(frame.payload)
                if detail.get("fatal"):
                    raise _FatalHandshake(str(detail.get("error", "?")))
                _log(f"coordinator error: {detail.get('error', '?')}")
            # Unknown frame types are ignored for forward compatibility.
    except (ConnectionError, OSError, wire.WireDecodeError) as exc:
        _log(f"connection lost ({exc}); reconnecting")
        return "lost", state, fingerprint
    finally:
        heartbeat.stop()


def run_worker(
    address: tuple[str, int], config: WorkerConfig | None = None
) -> int:
    """Connect to a coordinator and serve batches until the job ends.

    Returns a process exit code: 0 on clean SHUTDOWN, 1 when the
    reconnect budget is exhausted, 2 on a fatal handshake rejection.
    """
    config = config if config is not None else WorkerConfig()
    state: WorkerState | None = None
    fingerprint: str | None = None
    attempts = 0
    while True:
        try:
            sock = socket.create_connection(
                address, timeout=config.connect_timeout_s
            )
        except OSError as exc:
            attempts += 1
            if attempts > config.max_retries:
                _log(
                    f"could not reach coordinator at "
                    f"{address[0]}:{address[1]} after {attempts - 1} "
                    f"retries: {exc}"
                )
                return 1
            _backoff_sleep(attempts, config)
            continue
        try:
            try:
                outcome, state, fingerprint = _serve(
                    sock, config, state, fingerprint
                )
            except socket.timeout:
                outcome = "lost"
            except _FatalHandshake as exc:
                _log(str(exc))
                return 2
            except KeyboardInterrupt:
                # Operator-initiated departure: announce it so the
                # coordinator requeues our batches immediately instead
                # of waiting out the heartbeat-miss window.
                try:
                    protocol.send_frame(sock, protocol.MSG_GOODBYE)
                except OSError:
                    pass
                raise
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if outcome == "shutdown":
            return 0
        if state is not None:
            # We had a working session; treat the loss as transient and
            # restart the retry budget.
            attempts = 0
        attempts += 1
        if attempts > config.max_retries:
            _log("reconnect budget exhausted; giving up")
            return 1
        _backoff_sleep(attempts, config)
