"""Worker-side execution of sharded EnumMIS tasks.

Protocol
--------
The coordinator ships a *graph payload* once per worker and then
streams *task batches*.

The payload (:class:`GraphPayload`) carries the graph as its packed
``uint64`` adjacency word matrix (dense label list + alive mask + the
triangulator spec + the graph-core backend name ride along, so the
rebuilt graph has **identical** vertex indices and runs on the same
core class the coordinator selected).  For a worker pool the matrix
lives in a ``multiprocessing.shared_memory`` segment
(:class:`~repro.graph.bitset_np.SharedPackedBuffer`): the pickle
channel moves only the segment name and shape, every worker maps the
same physical pages read-only, and a numpy-backed worker adopts the
mapping directly as its core's packed mirror — zero copies of the
adjacency anywhere.  The runner that created the segment owns its
lifetime and unlinks it on close, interrupt and crash-unwind paths;
workers only ever map it (see ``SharedPackedBuffer`` for the
resource-tracker discipline).

Task batches for a pool travel in the packed wire format of
:mod:`repro.engine.wire` — per-batch interned mask tables with
``uint32`` references, one contiguous buffer each way.  In-process
execution, where nothing is pickled, hands
``(region_mask, [(answer_masks, direction_masks), ...])`` tuples
straight to the worker state.
Each job asks: for this answer J (a tuple of separator masks) and each
direction node v (a separator mask), compute
``Extend({v} ∪ {u ∈ J : ¬(v ♮ u)})``.  The worker returns one extended
answer per (J, v) pair plus an
:class:`~repro.sgr.enum_mis.EnumMISStatistics` delta covering exactly
that batch — including the ``extend_time_ns`` / ``crossing_time_ns``
stage timers the coordinator's adaptive batcher feeds on — which the
coordinator folds into the run aggregate.

Each worker keeps one :class:`~repro.sgr.separator_graph.MinimalSeparatorSGR`
per region for its whole lifetime, so the interned separator table and
the memoized crossing cache warm up once and are shared by every task
the worker ever runs — the worker-pool analogue of the caches the
serial pipeline builds up in a single process.  The SGR's nodes are
separator masks, so a worker sweeps and extends the masks it gets off
the wire as they are and returns masks.

Runners
-------
:class:`PoolRunner` executes batches on a ``ProcessPoolExecutor``;
:class:`InlineRunner` executes them synchronously in-process (used by
the serial backend for checkpointable runs, and handy for debugging
the coordinator without multiprocessing in the way).  Both return
:class:`concurrent.futures.Future` objects so the coordinator has a
single collection path.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Hashable

import numpy as np

from repro.chordal.triangulate import Triangulator, get_triangulator
from repro.engine import wire
from repro.engine.base import EngineError
from repro.engine.watchdog import (
    BatchAbortedError,
    BatchFailure,
    BatchLimits,
    ResourceWatchdog,
    current_rss_bytes,
)
from repro.graph import bitset_np
from repro.graph.core import IndexedGraph, NodeInterner
from repro.graph.graph import Graph
from repro.sgr.enum_mis import EnumMISStatistics
from repro.sgr.separator_graph import MinimalSeparatorSGR

__all__ = [
    "GraphPayload",
    "InlineRunner",
    "PoolRunner",
    "WorkerState",
    "default_worker_count",
    "make_payload",
    "poison_from_env",
    "triangulator_spec",
]

# (answer separator masks, direction separator masks)
TaskJob = tuple[tuple[int, ...], tuple[int, ...]]
# In-process batch: (region mask, jobs)
TaskBatch = tuple[int, list[TaskJob]]
# In-process result: (one extended answer per (answer, direction)
# pair, stats delta, worker compute time in ns)
BatchResult = tuple[list[tuple[int, ...]], EnumMISStatistics, int]


@dataclass(frozen=True)
class GraphPayload:
    """Everything a worker needs to rebuild the coordinator's graph.

    Exactly one of the adjacency carriers is set: ``shm_name`` (packed
    matrix in a shared-memory segment — the pool path) or ``packed``
    (the same matrix inline as bytes — in-process runners, tests).
    """

    labels: tuple[Hashable, ...]
    alive: int
    num_edges: int
    triangulator: "str | Triangulator"
    backend: str
    rows: int
    words: int
    shm_name: str | None = None
    packed: bytes | None = None


def default_worker_count() -> int:
    """The pool size used when a job does not pin one.

    Uses the scheduler affinity mask where available (cgroup/affinity
    limited containers report far fewer usable cores than
    ``os.cpu_count()``; oversubscribing those turns sharding into pure
    overhead).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return max(1, os.cpu_count() or 1)


def triangulator_spec(
    triangulator: str | Triangulator,
) -> str | Triangulator:
    """Reduce a heuristic to something cheap and safe to ship to workers.

    Registry-backed heuristics travel as their name (workers re-resolve
    locally, so nothing needs pickling); custom instances are shipped
    as-is and must therefore be picklable.
    """
    if isinstance(triangulator, str):
        return triangulator
    try:
        if get_triangulator(triangulator.name) == triangulator:
            return triangulator.name
    except ValueError:
        pass
    return triangulator


def make_payload(
    graph: Graph, triangulator: str | Triangulator
) -> GraphPayload:
    """Snapshot ``graph`` for worker-side reconstruction.

    The returned payload carries the packed adjacency inline;
    :class:`PoolRunner` promotes it to a shared-memory segment before
    the pickle channel ever sees it.
    """
    core = graph.core
    words = bitset_np.word_count(len(core.adj))
    packed = bitset_np.pack_masks(core.adj, words)
    return GraphPayload(
        labels=tuple(graph.interner.labels_dense),
        alive=core.alive,
        num_edges=core.num_edges,
        triangulator=triangulator_spec(triangulator),
        backend=bitset_np.core_backend_name(core),
        rows=len(core.adj),
        words=words,
        packed=packed.tobytes(),
    )


#: One degradation warning per worker process, not one per region.
_DEGRADATION_WARNED = False


def _warn_degraded(requested: str, actual: str) -> None:
    global _DEGRADATION_WARNED
    if not _DEGRADATION_WARNED:
        _DEGRADATION_WARNED = True
        warnings.warn(
            f"worker cannot run the {requested!r} graph-kernel tier "
            f"(compiled extension unavailable in this process); "
            f"degrading to {actual!r}.  Mixed-tier execution is "
            "correct but skews per-worker timings — see the "
            "kernel_tiers breakdown in the merged statistics",
            RuntimeWarning,
            stacklevel=2,
        )


def _rebuild_graph(
    payload: GraphPayload,
) -> tuple[Graph, "object | None"]:
    """Reconstruct the coordinator's graph from a payload.

    Returns ``(graph, shared_buffer)``; the buffer (when the payload
    named a shared segment) must stay referenced for the graph's
    lifetime — its mapping backs the core's packed mirror.
    """
    buffer = None
    if payload.shm_name is not None:
        buffer = bitset_np.SharedPackedBuffer.attach(
            payload.shm_name, payload.rows, payload.words
        )
        matrix = buffer.matrix
    else:
        matrix = np.frombuffer(
            payload.packed, dtype=np.dtype("<u8")
        ).reshape(payload.rows, payload.words)
    if payload.backend != "indexed":
        # Resolve the coordinator's backend name in *this* process: a
        # worker without a usable compiled extension rebuilds a native
        # payload on the numpy core (same kernel semantics, no failure).
        core_cls = bitset_np.GRAPH_BACKENDS.get(
            payload.backend, bitset_np.NumpyGraphCore
        )
        if payload.backend == "native" and not core_cls.runtime_available():
            core_cls = bitset_np.NumpyGraphCore
            _warn_degraded(payload.backend, "numpy")
        core = core_cls.from_packed(matrix, payload.alive, payload.num_edges)
    else:
        core = IndexedGraph.__new__(IndexedGraph)
        core.adj = bitset_np.unpack_rows(matrix)
        core.alive = payload.alive
        core.num_edges = payload.num_edges
    interner = NodeInterner.from_dense(list(payload.labels), payload.alive)
    return Graph._from_parts(core, interner), buffer


class WorkerState:
    """Per-worker state: the graph plus one warm SGR per region.

    This is the *single* worker code path — the multiprocessing pool,
    the in-process inline runner and the socket worker of
    :mod:`repro.engine.distributed.worker` all execute batches through
    :meth:`run_batch` on one instance, so transport never changes what
    a batch computes.  ``kernel_tier`` records which graph-kernel tier
    this worker actually runs (it may be a degraded tier when the
    payload named ``native`` but the extension is unavailable here);
    every batch's statistics delta counts itself under that tier, so a
    mixed-tier fleet is visible in the merged report.
    """

    def __init__(
        self, payload: GraphPayload, limits: BatchLimits | None = None
    ) -> None:
        self.graph, self._buffer = _rebuild_graph(payload)
        self.triangulator = get_triangulator(payload.triangulator)
        self.kernel_tier = bitset_np.core_backend_name(self.graph.core)
        self._watchdog = (
            ResourceWatchdog(limits)
            if limits is not None and limits.enabled
            else None
        )
        # Fault injection (tests, chaos soak): a separator mask whose
        # presence in any answer of a batch makes this worker fail it.
        self._poison_mask = 0
        self._poison_mode = "fail"
        # region mask → (region graph, SGR)
        self._regions: dict[int, tuple[Graph, MinimalSeparatorSGR]] = {}

    def set_poison(self, mask: int, mode: str = "fail") -> None:
        """Inject a deterministic poison batch (fault-injection only).

        Any batch containing ``mask`` in one of its answers is failed:
        ``mode="fail"`` aborts it cooperatively (the worker stays alive
        and reports a typed failure — the watchdog-breach path),
        ``mode="kill"`` terminates the whole process abruptly, like the
        OOM killer would.  Never set in production; the coordinator's
        serial quarantine fallback uses a fresh WorkerState on which
        this is never called, which is what makes salvage converge.
        """
        if mode not in ("fail", "kill"):
            raise EngineError(f"poison mode must be fail|kill, got {mode!r}")
        self._poison_mask = mask
        self._poison_mode = mode

    def _region(self, region_mask: int) -> tuple[Graph, MinimalSeparatorSGR]:
        entry = self._regions.get(region_mask)
        if entry is None:
            if region_mask == self.graph.core.alive:
                region = self.graph
            else:
                region = self.graph.subgraph(
                    self.graph.label_set(region_mask)
                )
            entry = (region, MinimalSeparatorSGR(region, self.triangulator))
            self._regions[region_mask] = entry
        return entry

    def _execute(
        self,
        region_mask: int,
        jobs: "list[TaskJob]",
        stats: EnumMISStatistics,
    ) -> list[tuple[int, ...]]:
        __, sgr = self._region(region_mask)
        sgr.attach_statistics(stats)
        has_edges_batch = sgr.has_edges_batch
        clock = time.perf_counter_ns
        watchdog = self._watchdog
        out: list[tuple[int, ...]] = []
        for answer, direction_masks in jobs:
            for v in direction_masks:
                # Cooperative abort point: the watchdog bounds a batch
                # at (answer, direction)-pair granularity — one pair
                # that never returns is the transport batch-timeout's
                # problem, a batch that is too big/leaky is caught here.
                if watchdog is not None:
                    watchdog.check()
                started = clock()
                crossed = has_edges_batch(v, answer)
                stats.crossing_time_ns += clock() - started
                stats.edge_oracle_calls += len(answer)
                kept = {u for u, edge in zip(answer, crossed) if not edge}
                kept.add(v)
                stats.extend_calls += 1
                started = clock()
                extended = sgr.extend(frozenset(kept))
                stats.extend_time_ns += clock() - started
                out.append(tuple(sorted(extended)))
        return out

    def run_batch(self, batch) -> "BatchResult | object":
        """Execute one batch, packed (pool) or as tuples (in process).

        Packed batches answer in kind (so the result pickles small);
        tuples answer with an ``(answers, stats, compute_ns)`` triple.
        Both carry the worker's measured batch compute time,
        which the coordinator subtracts from the observed round-trip
        to meter pure IPC.
        """
        stats = EnumMISStatistics()
        stats.kernel_tiers[self.kernel_tier] = 1
        started = time.perf_counter_ns()
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.arm()
        try:
            packed = isinstance(batch, wire.PackedBatch)
            if packed:
                region_mask, answers, directions = wire.decode_batch(batch)
                jobs = [(answer, directions) for answer in answers]
            else:
                region_mask, jobs = batch
                answers = [answer_masks for answer_masks, __ in jobs]
            self._check_poison(answers, started)
            out = self._execute(region_mask, jobs, stats)
            if packed:
                return wire.encode_result(
                    out,
                    batch.words,
                    time.perf_counter_ns() - started,
                    stats,
                )
            return out, stats, time.perf_counter_ns() - started
        except BatchAbortedError:
            # Free the scratch state the runaway batch grew (separator
            # interns, crossing caches, the Extend memo): the worker
            # survives the abort and must return to a small footprint
            # before its next batch, or an RSS breach would recur on
            # healthy work.
            self._regions.clear()
            raise
        finally:
            if watchdog is not None:
                watchdog.disarm()

    def _check_poison(self, answers, started_ns: int) -> None:
        mask = self._poison_mask
        if not mask or not any(mask in answer for answer in answers):
            return
        if self._poison_mode == "kill":
            # Simulate the OOM killer: no unwind, no goodbye — the
            # transport sees a dead process/connection.
            os._exit(137)
        raise BatchAbortedError(
            "poison",
            (time.perf_counter_ns() - started_ns) / 1e9,
            current_rss_bytes(),
        )


_WORKER_STATE: WorkerState | None = None


def poison_from_env() -> tuple[int, str] | None:
    """Read the fault-injection poison spec from the environment.

    ``REPRO_CHAOS_POISON`` is a separator mask (any int literal);
    ``REPRO_CHAOS_POISON_MODE`` is ``fail`` (cooperative abort, the
    default) or ``kill`` (abrupt process death).  Returns ``None`` when
    unset/unparseable — fault injection must never break a real run.
    """
    raw = os.environ.get("REPRO_CHAOS_POISON")
    if not raw:
        return None
    try:
        mask = int(raw, 0)
    except ValueError:
        return None
    mode = os.environ.get("REPRO_CHAOS_POISON_MODE", "fail")
    return mask, (mode if mode in ("fail", "kill") else "fail")


def _init_worker(
    payload: GraphPayload, limits: BatchLimits | None = None
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = WorkerState(payload, limits=limits)
    poison = poison_from_env()
    if poison is not None:
        _WORKER_STATE.set_poison(*poison)


def _run_batch(batch):
    assert _WORKER_STATE is not None, "worker initializer did not run"
    try:
        return _WORKER_STATE.run_batch(batch)
    except BatchAbortedError as exc:
        # A cooperative abort travels as a *value*: the worker process
        # stays warm in the pool and the failure path pickles the same
        # report a socket worker sends in its BATCH_FAILED frame.
        return BatchFailure(exc.reason, exc.elapsed_s, exc.peak_rss)


class InlineRunner:
    """Synchronous runner: tasks execute immediately in this process.

    Receives plain tuple batches — nothing crosses a process boundary,
    so interning and packing would be pure overhead.
    """

    workers = 1
    #: Batches never leave this process: the coordinator hands them
    #: over as tuples and meters no IPC.
    in_process = True

    def __init__(self, payload: GraphPayload) -> None:
        self._state = WorkerState(payload)

    def submit(self, batch: TaskBatch) -> "Future[BatchResult]":
        future: Future = Future()
        try:
            future.set_result(self._state.run_batch(batch))
        except BaseException as exc:  # surfaced via future.result()
            future.set_exception(exc)
        return future

    def close(self) -> None:
        pass


class PoolRunner:
    """Runner backed by a ``ProcessPoolExecutor`` of warm workers.

    Owns the shared-memory graph segment: the inline payload is
    promoted to a :class:`~repro.graph.bitset_np.SharedPackedBuffer`
    before the pool starts, and the segment is unlinked exactly once in
    :meth:`close` — which the coordinator assembly calls on normal
    exhaustion, generator close, ``KeyboardInterrupt`` and worker-crash
    unwind alike.  A worker killed outside Python leaves only its own
    mapping behind, which the kernel reclaims with the process.
    """

    def __init__(
        self,
        payload: GraphPayload,
        workers: int,
        limits: BatchLimits | None = None,
    ) -> None:
        if workers < 1:
            raise EngineError("sharded execution needs at least 1 worker")
        self.workers = workers
        self._limits = limits
        matrix = np.frombuffer(
            payload.packed, dtype=np.dtype("<u8")
        ).reshape(payload.rows, payload.words)
        self._buffer = bitset_np.SharedPackedBuffer.create(matrix)
        self._payload = replace(
            payload, packed=None, shm_name=self._buffer.name
        )
        try:
            self._executor = self._spawn()
        except Exception as exc:  # pragma: no cover - platform-specific
            self._release_buffer()
            raise EngineError(
                f"could not start worker pool ({exc}); custom "
                "triangulators must be picklable to shard"
            ) from exc

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self._payload, self._limits),
        )

    def restart(self) -> None:
        """Replace a broken executor after a hard worker death.

        ``BrokenProcessPool`` condemns the whole executor even though
        only one process died; the coordinator's quarantine policy
        calls this, then re-drives the in-flight batches through its
        retry/split/quarantine ladder.  The shared-memory graph
        segment is untouched — the fresh workers re-attach to it.

        Idempotent per break: one dead worker fails *every* in-flight
        future with ``BrokenProcessPool`` at once, and each failure
        triggers a recovery attempt — only the first may respawn, or
        one death would fork ``inflight`` fresh pools.
        """
        if not getattr(self._executor, "_broken", True):
            return  # already replaced by an earlier failure of this wave
        try:
            self._executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        self._executor = self._spawn()

    def _release_buffer(self) -> None:
        buffer, self._buffer = self._buffer, None
        if buffer is not None:
            buffer.unlink()

    def submit(self, batch) -> "Future":
        return self._executor.submit(_run_batch, batch)

    def close(self) -> None:
        try:
            self._executor.shutdown(wait=True, cancel_futures=True)
        finally:
            self._release_buffer()
