"""Coordinator-side transport: the asyncio TCP batch runner.

:class:`DistributedRunner` implements the same surface the sharded
coordinator already drives — ``submit(batch) → Future``, ``workers``,
``close()`` — so
:func:`repro.engine.sharded.coordinated_stream` (and with it
checkpointing, multi-region products, adaptive batching and the whole
(Q, P, V) control discipline) runs over TCP unchanged.  The runner owns
an asyncio event loop on a background thread; ``submit`` hands the
encoded batch across with ``call_soon_threadsafe`` and returns a
``concurrent.futures.Future`` the coordinator waits on exactly as it
waits on process-pool futures.

Elastic membership
------------------
Workers may connect and disconnect at any point of the job.  A new
connection is handshaken (protocol version, graph fingerprint, kernel
tier), shipped the packed adjacency once, and immediately pulls from
the shared dispatch queue.  Nothing requires a worker at job start:
batches simply wait in the pending queue until a host joins
(``pending_timeout_s`` bounds that wait when set, failing the
in-flight futures with a typed error instead of hanging forever).

Fault-tolerant requeue (exactly-once), bounded by a retry budget
----------------------------------------------------------------
Each dispatched batch is owned by exactly one connection.  When a
connection dies — EOF/reset from a SIGKILLed worker, a missed
heartbeat window, or a per-batch timeout — every unresolved batch it
owned is requeued at the *front* of the pending queue and re-dispatched
to a surviving (or future) worker.  Exactly-once delivery to the
coordinator is enforced by batch id: the first result to arrive
resolves the future and retires the id, and any late duplicate — a
result already in the read buffer when its batch was requeued for
timeout, say — is dropped on the floor.  This is the transport-level
generalisation of the checkpoint-v2 discipline the in-process
coordinator already applies (in-flight answers are requeued, never
recorded as processed), so a worker loss costs recomputation, never
answers.  Coordinator restart is the checkpoint document's job: a
resumed job builds a fresh runner, reconnecting workers re-handshake
against the same graph fingerprint, and the (Q, P, V) restore requeues
whatever was in flight when the coordinator died.

Unbounded requeue turns a *poison* batch — one that deterministically
OOMs or wedges every worker it touches — into a fleet-killing loop:
dispatch, death, requeue-to-front, repeat.  Every failure-driven
requeue therefore counts against the batch's ``max_batch_retries``
budget (owner death and typed ``BATCH_FAILED`` cooperative aborts
alike); a batch that exhausts it has its future failed with a typed
:class:`~repro.engine.base.BatchFailedError` instead of being requeued
again, and the coordinator's quarantine policy (split in half once,
then re-drive serially in-process) takes over — one bad batch degrades
gracefully instead of taking the fleet down.

Fleet events are folded into the run statistics (``worker_joins``,
``worker_losses``, ``batches_requeued``, ``batch_retries``,
``protocol_rejections``), so a run report shows the membership churn
next to the timings it explains.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future

from repro.engine import wire
from repro.engine.base import BatchFailedError, EngineError
from repro.engine.distributed import protocol
from repro.sgr.enum_mis import EnumMISStatistics

__all__ = ["DistributedRunner", "validate_liveness_config"]

#: Batches one connection may own at once (one running, one queued
#: behind it, one in transit — the pool runner's pipelining depth).
_PER_CONNECTION = 3

#: Heartbeat windows a connection may miss before it is declared dead.
#: Canonically defined in the (numpy-free) protocol module so backend
#: construction can validate liveness settings without importing this
#: module; re-exported here for the runner's own callers.
_LIVENESS_WINDOWS = protocol.DEFAULT_LIVENESS_WINDOWS

_HANDSHAKE_TIMEOUT_S = 10.0

#: How long shutdown waits for workers to close their end after the
#: SHUTDOWN broadcast before force-closing the sockets.
_SHUTDOWN_LINGER_S = 5.0

_DEBUG = bool(os.environ.get("REPRO_DIST_DEBUG"))


def _dbg(msg: str) -> None:
    if _DEBUG:
        print(f"[coord {time.monotonic():.4f}] {msg}", file=sys.stderr, flush=True)


def _log(msg: str) -> None:
    print(f"[repro-coordinator] {msg}", file=sys.stderr, flush=True)


validate_liveness_config = protocol.validate_liveness_config


class _Connection:
    """One connected worker: socket streams + ownership bookkeeping."""

    __slots__ = (
        "reader",
        "writer",
        "name",
        "tier",
        "last_seen",
        "inflight",
        "closed",
    )

    def __init__(self, reader, writer, name: str, tier: str, now: float):
        self.reader = reader
        self.writer = writer
        self.name = name
        self.tier = tier
        self.last_seen = now
        self.inflight: dict[int, _Batch] = {}
        self.closed = False


class _Batch:
    """One submitted batch: its encoded frame and its future."""

    __slots__ = (
        "batch_id",
        "data",
        "future",
        "conn",
        "dispatched_at",
        "attempts",
        "failures",
    )

    def __init__(self, batch_id: int, data: bytes, future: Future):
        self.batch_id = batch_id
        self.data = data
        self.future = future
        self.conn: _Connection | None = None
        self.dispatched_at = 0.0
        self.attempts = 0
        #: Failure-driven requeues burned so far (owner death, batch
        #: timeout, BATCH_FAILED); capped by max_batch_retries.
        self.failures = 0


class DistributedRunner:
    """Asyncio TCP transport behind the ``submit(batch) → Future`` surface.

    Parameters
    ----------
    payload:
        The job's graph payload (must be packed — numpy on both ends).
    listen:
        ``(host, port)`` to bind; port 0 picks a free port, the bound
        address is exposed as :attr:`address`.
    expected_workers:
        Fleet size the adaptive batcher sizes for.  Membership is
        elastic regardless: fewer workers just drain slower, more share
        the queue as they join.
    heartbeat_s / batch_timeout_s:
        Liveness cadence, and the per-batch wall-clock bound after
        which a silent worker is declared stuck and its batches
        requeued elsewhere.
    pending_timeout_s:
        When set, how long batches may sit pending with *no* worker
        connected before the run fails with :class:`EngineError`
        (``None`` waits indefinitely — fully elastic).  Must exceed
        ``heartbeat_s`` — the sweeper that enforces it ticks once per
        heartbeat.
    max_batch_retries:
        Failure-driven requeues one batch may burn (owner death, batch
        timeout, typed BATCH_FAILED abort) before its future is failed
        with :class:`~repro.engine.base.BatchFailedError` and the
        coordinator's quarantine policy takes over.
    liveness_windows:
        Heartbeat intervals a connection may go silent before it is
        declared dead (the miss threshold).
    stats:
        The run's statistics; fleet events are counted on it.
    on_listening:
        Callback invoked with the bound ``(host, port)`` once the
        server accepts connections (tests and benchmarks use it to
        launch workers against an ephemeral port).
    wait_for_workers_s:
        When set, block construction until ``expected_workers`` have
        joined or the wait times out (the run then proceeds with
        whatever joined — useful to keep fleet spin-up out of a
        benchmark's measured window).
    """

    def __init__(
        self,
        payload,
        listen: tuple[str, int],
        *,
        expected_workers: int = 1,
        heartbeat_s: float = 2.0,
        batch_timeout_s: float = 300.0,
        pending_timeout_s: float | None = None,
        max_batch_retries: int = 3,
        liveness_windows: float = _LIVENESS_WINDOWS,
        stats: EnumMISStatistics | None = None,
        on_listening=None,
        wait_for_workers_s: float | None = None,
    ) -> None:
        if expected_workers < 1:
            raise EngineError(
                f"expected_workers must be >= 1, got {expected_workers}"
            )
        if batch_timeout_s <= 0:
            raise EngineError("batch_timeout_s must be positive")
        if max_batch_retries < 0:
            raise EngineError("max_batch_retries must be >= 0")
        validate_liveness_config(
            heartbeat_s, pending_timeout_s, liveness_windows
        )
        # Validates payload shape (packed, registry triangulator) and
        # label encodability before any socket exists.
        self._graph_frame = protocol.encode_graph_payload(payload)
        self._fingerprint = protocol.payload_fingerprint(self._graph_frame)
        self.workers = expected_workers
        self._heartbeat_s = heartbeat_s
        self._batch_timeout_s = batch_timeout_s
        self._pending_timeout_s = pending_timeout_s
        self._max_batch_retries = max_batch_retries
        self._liveness_windows = liveness_windows
        self._stats = stats if stats is not None else EnumMISStatistics()
        self._payload_tier = payload.backend
        # Hosts whose handshake was rejected — each is logged once, so
        # a mismatched build retrying does not flood the coordinator.
        self._rejected_hosts: set[str] = set()

        self._ids = itertools.count(1)
        self._closed = False
        # Loop-thread state -------------------------------------------------
        self._pending: deque[_Batch] = deque()
        self._live: dict[int, _Batch] = {}
        self._done: set[int] = set()
        self._connections: list[_Connection] = []
        self._no_worker_since: float | None = None
        self._server = None
        self._sweeper = None
        # Signalled whenever membership grows (for wait_for_workers).
        self._membership = threading.Condition()

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-distributed", daemon=True
        )
        self._thread.start()
        try:
            self.address = asyncio.run_coroutine_threadsafe(
                self._start(listen), self._loop
            ).result(timeout=_HANDSHAKE_TIMEOUT_S)
        except BaseException:
            self._stop_loop()
            raise
        if on_listening is not None:
            on_listening(self.address)
        if wait_for_workers_s is not None:
            self.wait_for_workers(expected_workers, wait_for_workers_s)

    # ------------------------------------------------------------------
    # Public surface (called from the coordinator thread)
    # ------------------------------------------------------------------

    @property
    def connected_workers(self) -> int:
        """Live connection count (snapshot; membership is elastic)."""
        return len(self._connections)

    def wait_for_workers(self, count: int, timeout_s: float) -> int:
        """Block until ``count`` workers are connected (or timeout).

        Returns the connected count at exit; never raises on timeout —
        membership is elastic, the job proceeds with whoever joined.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._membership:
            while len(self._connections) < count:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._membership.wait(remaining)
        return self.connected_workers

    def submit(self, batch) -> "Future":
        """Encode ``batch`` and enqueue it for the fleet; returns its future."""
        if self._closed:
            raise EngineError("distributed runner is closed")
        if not isinstance(batch, wire.PackedBatch):
            raise EngineError(
                "distributed runner only transports packed batches"
            )
        future: Future = Future()
        batch_id = next(self._ids)
        data = protocol.encode_frame(
            protocol.MSG_BATCH,
            protocol.pack_tagged(batch_id, wire.batch_to_bytes(batch)),
        )
        self._loop.call_soon_threadsafe(
            self._admit, _Batch(batch_id, data, future)
        )
        return future

    def close(self) -> None:
        """Tell workers the job is over, stop the loop, join the thread."""
        if self._closed:
            return
        self._closed = True
        _dbg("close() called")
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop
            ).result(timeout=_HANDSHAKE_TIMEOUT_S)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        finally:
            self._stop_loop()

    # ------------------------------------------------------------------
    # Event-loop lifecycle
    # ------------------------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            for task in asyncio.all_tasks(self._loop):
                task.cancel()
            self._loop.run_until_complete(
                self._loop.shutdown_asyncgens()
            )
            self._loop.close()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=_HANDSHAKE_TIMEOUT_S)

    async def _start(self, listen: tuple[str, int]) -> tuple[str, int]:
        host, port = listen
        self._server = await asyncio.start_server(
            self._serve, host=host or None, port=port
        )
        self._sweeper = asyncio.ensure_future(self._sweep())
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def _shutdown(self) -> None:
        _dbg(f"shutdown begin, conns={[c.name for c in self._connections]}")
        if self._sweeper is not None:
            self._sweeper.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            try:
                conn.writer.write(
                    protocol.encode_frame(protocol.MSG_SHUTDOWN)
                )
                await conn.writer.drain()
                _dbg(f"SHUTDOWN sent to {conn.name}")
            except Exception as exc:
                _dbg(f"SHUTDOWN write to {conn.name} failed: {exc!r}")
        # Close handshake: keep reading until each worker closes its end
        # in response to the SHUTDOWN.  Closing first would race a
        # last-instant heartbeat sitting unread in our receive buffer —
        # the close then sends a TCP reset that destroys the SHUTDOWN
        # queued on the worker side, and the worker burns its whole
        # reconnect budget on a finished job.  Reading to EOF drains the
        # buffer, so no reset is ever generated.  The reader tasks
        # remove each connection from ``_connections`` when they see
        # EOF (see ``_drop``); stragglers are force-closed at the
        # deadline.
        deadline = self._loop.time() + _SHUTDOWN_LINGER_S
        while self._connections and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        _dbg(
            f"linger done, stragglers={[c.name for c in self._connections]}"
        )
        for conn in list(self._connections):
            await self._close_connection(conn)
        self._connections.clear()
        for entry in self._live.values():
            entry.future.cancel()
        self._live.clear()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Dispatch (loop thread)
    # ------------------------------------------------------------------

    def _admit(self, entry: _Batch) -> None:
        self._live[entry.batch_id] = entry
        self._pending.append(entry)
        self._pump()

    def _pump(self) -> None:
        """Assign pending batches to the least-loaded live connections."""
        while self._pending:
            candidates = [
                conn
                for conn in self._connections
                if not conn.closed and len(conn.inflight) < _PER_CONNECTION
            ]
            if not candidates:
                break
            conn = min(candidates, key=lambda c: len(c.inflight))
            entry = self._pending.popleft()
            if entry.batch_id not in self._live:
                continue  # resolved while pending (late duplicate result)
            entry.conn = conn
            entry.dispatched_at = self._loop.time()
            entry.attempts += 1
            conn.inflight[entry.batch_id] = entry
            conn.writer.write(entry.data)
        if self._pending and not self._connections:
            if self._no_worker_since is None:
                self._no_worker_since = self._loop.time()
        else:
            self._no_worker_since = None

    def _requeue(self, conn: _Connection, reason: str) -> None:
        """Move a dead connection's unresolved batches back to pending.

        Every one of these requeues is failure-driven (the owner died
        under the batch), so each counts against the batch's retry
        budget; a batch over budget is failed typed instead — the
        poison-loop breaker.
        """
        entries = sorted(
            conn.inflight.values(), key=lambda e: e.dispatched_at
        )
        conn.inflight.clear()
        requeued = 0
        for entry in reversed(entries):
            entry.conn = None
            if entry.batch_id not in self._live:
                continue
            entry.failures += 1
            if entry.failures > self._max_batch_retries:
                self._fail_batch(entry, reason)
                continue
            self._pending.appendleft(entry)
            requeued += 1
        if requeued:
            self._stats.batches_requeued += requeued
            self._stats.batch_retries += requeued

    def _fail_batch(self, entry: _Batch, reason: str) -> None:
        """Retire a batch whose retry budget is exhausted, typed."""
        _dbg(
            f"batch {entry.batch_id} exhausted its retry budget "
            f"({entry.failures - 1} retries); failing typed ({reason})"
        )
        self._live.pop(entry.batch_id, None)
        self._done.add(entry.batch_id)
        if entry in self._pending:
            self._pending.remove(entry)
        if not entry.future.done():
            entry.future.set_exception(
                BatchFailedError(
                    f"batch failed {entry.failures} times "
                    f"(last: {reason}) and exhausted its "
                    f"{self._max_batch_retries}-retry budget",
                    reason=reason,
                    exhausted=True,
                )
            )

    async def _close_connection(self, conn: _Connection) -> None:
        conn.closed = True
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except Exception:
            pass

    def _drop(self, conn: _Connection, reason: str) -> None:
        """Unregister a connection and requeue everything it owned."""
        _dbg(
            f"drop {conn.name} reason={reason!r} closed={self._closed} "
            f"inflight={len(conn.inflight)}"
        )
        if conn not in self._connections:
            return
        if self._closed:
            # Teardown races the reader tasks: a connection going away
            # because *we* are closing is not a worker loss and must
            # not requeue abandoned batches.  Removing the connection
            # here tells ``_shutdown`` the worker has acknowledged the
            # SHUTDOWN by closing its end (the close handshake).
            conn.inflight.clear()
            conn.closed = True
            self._connections.remove(conn)
            asyncio.ensure_future(self._close_connection(conn))
            return
        self._connections.remove(conn)
        self._stats.worker_losses += 1
        self._requeue(conn, reason)
        asyncio.ensure_future(self._close_connection(conn))
        self._pump()

    # ------------------------------------------------------------------
    # Results (loop thread)
    # ------------------------------------------------------------------

    def _on_result(self, conn: _Connection, payload: bytes) -> None:
        batch_id, body = protocol.unpack_tagged(payload)
        entry = self._live.get(batch_id)
        if entry is None:
            # Late duplicate: the batch was requeued off a dead/stuck
            # connection and its re-execution already resolved.  The
            # id is retired, so the duplicate is dropped — exactly-once
            # towards the coordinator.
            return
        result = wire.result_from_bytes(body)  # WireDecodeError drops conn
        del self._live[batch_id]
        self._done.add(batch_id)
        conn.inflight.pop(batch_id, None)
        if entry.conn is not None and entry.conn is not conn:
            # The batch was requeued onto another connection but the
            # original owner answered first; release the other copy's
            # slot (its eventual result will be dropped as a duplicate).
            entry.conn.inflight.pop(batch_id, None)
        if entry in self._pending:
            self._pending.remove(entry)
        if not entry.future.cancelled():
            entry.future.set_result(result)
        self._pump()

    def _on_batch_failed(self, conn: _Connection, payload: bytes) -> None:
        """A worker cooperatively aborted a batch (watchdog/poison).

        The worker is *alive and healthy* — only the batch is suspect.
        The failure counts against the batch's retry budget exactly
        like an owner death, but the connection stays in the fleet.
        """
        batch_id, reason, elapsed_s, peak_rss = (
            protocol.decode_batch_failed(payload)
        )
        entry = conn.inflight.pop(batch_id, None)
        if entry is None or batch_id not in self._live:
            return  # late duplicate of an already-settled batch
        _dbg(
            f"batch {batch_id} failed on {conn.name}: {reason} "
            f"({elapsed_s:.1f}s, peak RSS {peak_rss})"
        )
        entry.conn = None
        entry.failures += 1
        if entry.failures > self._max_batch_retries:
            self._fail_batch(entry, reason)
        else:
            self._stats.batch_retries += 1
            self._pending.appendleft(entry)
        self._pump()

    # ------------------------------------------------------------------
    # Connection serving (loop thread)
    # ------------------------------------------------------------------

    async def _serve(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        name = f"{peer[0]}:{peer[1]}" if peer else "?"
        try:
            hello = await asyncio.wait_for(
                protocol.read_frame_async(reader), _HANDSHAKE_TIMEOUT_S
            )
            tier = self._handshake(hello)
        except (wire.WireDecodeError, EngineError) as exc:
            # A bad or mismatched worker build knocking: count it and
            # log the peer once, so the problem is diagnosable from the
            # coordinator side instead of only as the worker's exit 2.
            self._stats.protocol_rejections += 1
            host = peer[0] if peer else "?"
            if host not in self._rejected_hosts:
                self._rejected_hosts.add(host)
                _log(f"rejected worker handshake from {name}: {exc}")
            try:
                writer.write(
                    protocol.encode_frame(
                        protocol.MSG_ERROR,
                        protocol.encode_json(
                            {"error": str(exc), "fatal": True}
                        ),
                    )
                )
                await writer.drain()
            except Exception:
                pass
            writer.close()
            return
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError, OSError):
            writer.close()
            return

        welcome = protocol.encode_json(
            {
                "magic": protocol.MAGIC,
                "protocol": protocol.PROTOCOL_VERSION,
                "fingerprint": self._fingerprint,
                "kernel_tier": self._payload_tier,
                "heartbeat_s": self._heartbeat_s,
            }
        )
        conn = _Connection(reader, writer, name, tier, self._loop.time())
        try:
            writer.write(protocol.encode_frame(protocol.MSG_WELCOME, welcome))
            writer.write(
                protocol.encode_frame(protocol.MSG_GRAPH, self._graph_frame)
            )
            await writer.drain()
        except (ConnectionError, OSError):
            writer.close()
            return

        self._connections.append(conn)
        _dbg(f"join {conn.name} tier={tier}")
        self._stats.worker_joins += 1
        self._no_worker_since = None
        with self._membership:
            self._membership.notify_all()
        self._pump()
        try:
            while True:
                frame = await protocol.read_frame_async(reader)
                conn.last_seen = self._loop.time()
                if frame.msg_type == protocol.MSG_RESULT:
                    self._on_result(conn, frame.payload)
                elif frame.msg_type == protocol.MSG_BATCH_FAILED:
                    self._on_batch_failed(conn, frame.payload)
                elif frame.msg_type == protocol.MSG_HEARTBEAT:
                    continue
                elif frame.msg_type == protocol.MSG_GOODBYE:
                    self._drop(conn, "goodbye")
                    return
                # Any other frame type is tolerated and ignored: newer
                # workers may emit messages this coordinator predates.
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self._drop(conn, "connection lost")
        except wire.WireDecodeError:
            self._drop(conn, "malformed frame")
        except asyncio.CancelledError:
            raise

    def _handshake(self, hello: protocol.Frame) -> str:
        if hello.msg_type != protocol.MSG_HELLO:
            raise wire.WireDecodeError(
                f"expected HELLO, got frame type {hello.msg_type}"
            )
        message = protocol.decode_json(hello.payload)
        if message.get("magic") != protocol.MAGIC:
            raise EngineError("handshake magic mismatch")
        version = message.get("protocol")
        if version != protocol.PROTOCOL_VERSION:
            raise EngineError(
                f"protocol version mismatch: coordinator speaks "
                f"{protocol.PROTOCOL_VERSION}, worker speaks {version!r}"
            )
        tier = message.get("kernel_tier")
        return tier if isinstance(tier, str) else "unknown"

    # ------------------------------------------------------------------
    # Liveness sweep (loop thread)
    # ------------------------------------------------------------------

    async def _sweep(self) -> None:
        liveness = self._heartbeat_s * self._liveness_windows
        ping = protocol.encode_frame(protocol.MSG_PING)
        while True:
            await asyncio.sleep(self._heartbeat_s)
            now = self._loop.time()
            for conn in list(self._connections):
                if now - conn.last_seen > liveness:
                    self._drop(conn, "missed heartbeats")
                    continue
                stale = [
                    entry
                    for entry in conn.inflight.values()
                    if now - entry.dispatched_at > self._batch_timeout_s
                ]
                if stale:
                    self._drop(conn, "batch timeout")
                    continue
                try:
                    conn.writer.write(ping)
                except Exception:
                    self._drop(conn, "write failed")
            if (
                self._pending_timeout_s is not None
                and self._pending
                and not self._connections
                and self._no_worker_since is not None
                and now - self._no_worker_since > self._pending_timeout_s
            ):
                error = EngineError(
                    "no workers connected for "
                    f"{self._pending_timeout_s:.0f}s with batches pending; "
                    "start workers with `repro worker --connect HOST:PORT`"
                )
                for entry in list(self._live.values()):
                    if not entry.future.done():
                        entry.future.set_exception(error)
                self._live.clear()
                self._pending.clear()
