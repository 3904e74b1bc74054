"""The sharded EnumMIS coordinator (answer-queue partitioning).

This is the paper's Figure 1 control loop with the expensive inner
steps — the ``direction`` edge-oracle sweep and the ``Extend``
triangulation — farmed out to a task runner, while the cheap,
order-sensitive bookkeeping stays in one place:

* the coordinator owns Q (produced, unprocessed answers), P (processed
  answers), V (SGR nodes generated so far) and the deduplication set;
* popped answers are batched into tasks ``(J, V-snapshot)`` and
  dispatched; results are absorbed as they complete, so item A can be
  extending on one worker while item B's extensions are being deduped;
* when Q runs dry and nothing is in flight, the next SGR node v is
  pulled from the (serial, polynomial-delay) node iterator and every
  answer of P is re-examined in the direction of v — sharded across
  the pool in chunks, as a barrier.

Correctness is order-agnostic exactly as in the serial algorithm: an
answer popped and dispatched against the *snapshot* of V is re-examined
later against any nodes discovered afterwards, because it sits in P
when those nodes arrive.  At termination (Q empty, nothing in flight,
iterator exhausted) every answer of P has been processed in the
direction of every node of V = all SGR nodes — the same invariant the
serial proof closes with, so the produced set is exactly
``MaxInd(G(x))`` with no duplicates (deduplication is centralised in
the coordinator).

Checkpointing piggybacks on the same state: outside a barrier, (Q ∪
in-flight answers, P minus in-flight, V) is always a consistent resume
point; during a barrier on node v, the snapshot simply excludes v from
V (v is re-pulled and the barrier re-run on resume — duplicate work,
never wrong answers).  The coordinator does not own the checkpoint
file: it reports its control snapshot to a *sink* (one file may hold
many region sections — see :mod:`repro.engine.checkpoint`) and is
handed a pre-validated :class:`~repro.engine.checkpoint.CheckpointState`
to resume from.  A coordinator saves only on its cadence; the job that
owns the sink saves once more on exit — normal, interrupted or failed —
after every region stream has closed, so the number of saves follows
the answer count, not the region count.

Task sizing is delegated to an
:class:`~repro.engine.batching.AdaptiveBatcher` (shared across the
regions of one job): every completed batch reports its pair count,
worker compute time and round-trip, and the next batch is sized to the
job's target duration from the observed per-pair cost.  The same
measurements are folded into the run statistics (``ipc_time_ns``,
``ipc_payload_bytes``, ``batches_dispatched``), so the report and the
policy can never disagree about what was observed.  Batches leave the
process in the packed wire format of :mod:`repro.engine.wire`; an
in-process runner gets plain tuples.
"""

from __future__ import annotations

import itertools
import time
import warnings
from collections.abc import Callable, Iterator
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import NamedTuple

from repro.chordal.minimal_separators import minimal_separator_masks
from repro.chordal.triangulate import Triangulator
from repro.core.extend import extend_parallel_set
from repro.engine import wire
from repro.engine.base import BatchFailedError, EngineError
from repro.engine.batching import AdaptiveBatcher
from repro.engine.checkpoint import CheckpointError, CheckpointState
from repro.engine.pool import (
    WorkerState,
    make_payload,
)
from repro.engine.watchdog import (
    BatchAbortedError,
    BatchFailure,
    BatchLimits,
)
from repro.graph.bitset_np import word_count
from repro.graph.graph import Graph
from repro.sgr.enum_mis import EnumMISStatistics, _AnswerQueue

__all__ = ["MISCoordinator"]

Answer = frozenset[int]


class _Inflight(NamedTuple):
    """Bookkeeping for one dispatched batch."""

    kind: str  # "pop" | "barrier"
    answers: tuple[Answer, ...]
    submitted_ns: int
    sent_bytes: int
    pairs: int
    #: The direction masks the batch was dispatched against — needed
    #: to rebuild the exact same work on a retry, split or salvage.
    directions: tuple[int, ...]
    #: Coordinator-level redispatch count for this batch's lineage.
    retries: int
    #: True once the batch is a half of a split batch: it may be
    #: retried but never split again (the split happens exactly once).
    from_split: bool


class MISCoordinator:
    """Sharded EnumMIS over one connected region of the input graph.

    Yields answers as frozensets of separator *masks*; the backend
    layer materialises them into Triangulation objects.

    ``checkpoint`` is a sink object exposing ``every`` (save cadence in
    newly generated answers) and ``save()`` (persist the document this
    coordinator's section belongs to).  The coordinator calls ``save()``
    only on that cadence; the sink's owner saves on exit, once the
    stream has closed or raised (:meth:`control_snapshot` stays valid
    after either, requeueing work still in flight).

    ``restore_state`` is this region's section of a loaded checkpoint.
    Restoration — including the fast-forward of the deterministic
    separator iterator and its prefix validation — happens eagerly at
    construction, so a sink may snapshot any coordinator of a job the
    moment all of them exist.
    """

    def __init__(
        self,
        region: Graph,
        region_mask: int,
        runner: "InlineRunner | PoolRunner",
        *,
        mode: str = "UG",
        triangulator: str | Triangulator = "mcs_m",
        priority: Callable[[Answer], object] | None = None,
        stats: EnumMISStatistics | None = None,
        checkpoint=None,
        restore_state: CheckpointState | None = None,
        region_fingerprint: str = "",
        batcher: AdaptiveBatcher | None = None,
        max_batch_retries: int = 3,
        quarantine_budget_s: float = 60.0,
    ) -> None:
        if max_batch_retries < 0:
            raise EngineError("max_batch_retries must be >= 0")
        if quarantine_budget_s <= 0:
            raise EngineError("quarantine_budget_s must be positive")
        self._region = region
        self._region_mask = region_mask
        self._runner = runner
        self._mode = mode
        self._triangulator = triangulator
        self._priority = priority
        self._stats = stats if stats is not None else EnumMISStatistics()
        self._checkpoint = checkpoint
        self._max_batch_retries = max_batch_retries
        self._quarantine_budget_s = quarantine_budget_s
        # Lazily-built serial fallback for quarantined batches.  Never
        # shares state with the runner's workers (and never has fault
        # injection applied), which is what makes salvage converge.
        self._salvage_state: WorkerState | None = None
        self._region_fingerprint = region_fingerprint
        self._batcher = (
            batcher
            if batcher is not None
            else AdaptiveBatcher(getattr(runner, "workers", 1))
        )
        # An in-process runner has no IPC (its round-trip stamp also
        # covers other batches run synchronously inside submit()) and
        # takes plain tuple batches; every other runner gets packed ones.
        self._in_process = getattr(runner, "in_process", False)
        self._words = word_count(len(region.core.adj))

        self._queue = _AnswerQueue(priority)
        self._seen: set[Answer] = set()
        self._dispatched: set[Answer] = set()
        self._yielded: set[Answer] = set()
        self._known: list[int] = []
        self._exhausted = False
        # future → the batch's dispatch bookkeeping
        self._inflight: dict[Future, _Inflight] = {}
        # Popped from Q but not yet handed to the runner — still "queued"
        # as far as a checkpoint is concerned.
        self._popping: list[Answer] = []
        self._barrier_node: int | None = None
        self._since_save = 0
        self._resumed = restore_state is not None
        if restore_state is not None:
            self._node_iterator = self._restore(restore_state)
        else:
            self._node_iterator = minimal_separator_masks(region)

    # ------------------------------------------------------------------
    # Dispatch and collection (sizing policy lives in the batcher)
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        kind: str,
        answers: list[Answer],
        directions: tuple[int, ...],
        *,
        retries: int = 0,
        from_split: bool = False,
    ) -> None:
        """Encode and submit one batch; register it as in flight."""
        answer_masks = [tuple(sorted(answer)) for answer in answers]
        if self._in_process:
            batch = (
                self._region_mask,
                [(masks, directions) for masks in answer_masks],
            )
            sent = 0
        else:
            batch = wire.encode_batch(
                self._region_mask, answer_masks, directions, self._words
            )
            sent = batch.nbytes
        # Stamp *before* submitting: the inline runner executes the
        # whole batch synchronously inside submit(), and its compute
        # must land in the round-trip or the cost model sees zeros.
        submitted = self._batcher.now()
        try:
            future = self._runner.submit(batch)
        except BrokenProcessPool:
            # A worker died between our last collect and this submit;
            # recover the pool and resubmit.  The dead worker's own
            # batches fail through their futures and take the
            # retry/split/quarantine ladder as usual.
            restart = getattr(self._runner, "restart", None)
            if restart is None:  # pragma: no cover - no recovery path
                raise
            restart()
            future = self._runner.submit(batch)
        self._inflight[future] = _Inflight(
            kind=kind,
            answers=tuple(answers),
            submitted_ns=submitted,
            sent_bytes=sent,
            pairs=len(answers) * len(directions),
            directions=tuple(directions),
            retries=retries,
            from_split=from_split,
        )

    def _collect(
        self, future: Future, entry: _Inflight, collected_ns: int
    ) -> list[Answer]:
        """Decode one completed batch, meter it, absorb its answers.

        May raise (an unsalvageable failure surfaces here); the caller
        keeps ``entry`` registered in ``_inflight`` until this returns,
        so a crash-time checkpoint still sees the batch as in flight
        and requeues its answers instead of recording them — result
        lost — as processed.

        Batch *failures* — a typed :class:`BatchFailedError` from the
        distributed transport, a :class:`BatchFailure` value from a
        pool worker's cooperative abort, or a hard worker death
        breaking the pool — do not raise: they are routed through the
        retry → split → quarantine ladder, which either redispatches
        the work (returning ``[]`` now) or salvages it serially and
        returns the recovered answers.
        """
        try:
            result = future.result()
        except BatchFailedError as exc:
            return self._handle_failure(
                entry, exc.reason, exhausted=exc.exhausted
            )
        except BrokenProcessPool:
            restart = getattr(self._runner, "restart", None)
            if restart is None:  # pragma: no cover - no recovery path
                raise
            restart()
            return self._handle_failure(
                entry, "worker process died", exhausted=False
            )
        if isinstance(result, BatchFailure):
            return self._handle_failure(
                entry, result.reason, exhausted=False
            )
        if isinstance(result, wire.PackedResult):
            candidates = wire.decode_result(result)
            delta = result.stats
            compute_ns = result.compute_ns
            received = result.nbytes
        else:
            candidates, delta, compute_ns = result
            received = 0
        # ``collected_ns`` is stamped once per wait() wake-up, before
        # any answer of the round is yielded — round-trips must not
        # absorb time the generator spends suspended in the consumer.
        roundtrip = max(0, collected_ns - entry.submitted_ns)
        compute_ns = min(compute_ns, roundtrip)
        stats = self._stats
        if not self._in_process:
            stats.ipc_time_ns += roundtrip - compute_ns
        stats.ipc_payload_bytes += entry.sent_bytes + received
        stats.batches_dispatched += 1
        stats.batch_roundtrip_ns += roundtrip
        self._batcher.observe(entry.pairs, compute_ns)
        return self._absorb(candidates, delta)

    # ------------------------------------------------------------------
    # Poison-batch quarantine (retry → split → serial salvage)
    # ------------------------------------------------------------------

    def _handle_failure(
        self, entry: _Inflight, reason: str, *, exhausted: bool
    ) -> list[Answer]:
        """Route one failed batch through the quarantine ladder.

        1. *Retry* the batch as-is while its lineage has budget left —
           unless the transport already exhausted its own retry budget
           on it (``exhausted``), in which case resubmitting the same
           batch would just burn another full transport budget.
        2. *Split in half* once: a single poison answer condemns every
           batch it rides in, and halving isolates it so the healthy
           answers rejoin the normal path.
        3. *Quarantine*: re-drive the remaining (answer, direction)
           pairs serially in this process under a hard budget.

        Returns the answers recovered now (salvage) or ``[]`` when the
        work was redispatched.
        """
        stats = self._stats
        if not exhausted and entry.retries < self._max_batch_retries:
            stats.batch_retries += 1
            self._dispatch(
                entry.kind,
                list(entry.answers),
                entry.directions,
                retries=entry.retries + 1,
                from_split=entry.from_split,
            )
            return []
        if len(entry.answers) > 1 and not entry.from_split:
            stats.batch_retries += 1
            half = len(entry.answers) // 2
            for part in (entry.answers[:half], entry.answers[half:]):
                # The split is the last pre-quarantine attempt: halves
                # carry a spent retry budget, so a half that fails
                # again goes straight to salvage.
                self._dispatch(
                    entry.kind,
                    list(part),
                    entry.directions,
                    retries=self._max_batch_retries,
                    from_split=True,
                )
            return []
        return self._quarantine(entry, reason)

    def _quarantine(self, entry: _Inflight, reason: str) -> list[Answer]:
        """Serially re-drive a poison batch in the coordinator process.

        The salvage :class:`WorkerState` is built lazily from this
        region's own graph — it shares nothing with the runner's
        workers (no fault injection, no pool, no socket), so whatever
        killed the batch out there cannot recur here; what *can* recur
        is a genuinely unprocessable pair, which the hard deadline
        turns into a typed error instead of a hang.
        """
        stats = self._stats
        stats.batches_quarantined += 1
        stats.poison_answers += len(entry.answers)
        warnings.warn(
            f"quarantining a batch of {len(entry.answers)} answer(s) "
            f"after repeated failures (last: {reason}); re-driving it "
            "serially in the coordinator process",
            RuntimeWarning,
            stacklevel=2,
        )
        state = self._salvage_state
        if state is None:
            state = WorkerState(
                make_payload(self._region, self._triangulator),
                limits=BatchLimits(deadline_s=self._quarantine_budget_s),
            )
            self._salvage_state = state
        jobs = [
            (tuple(sorted(answer)), entry.directions)
            for answer in entry.answers
        ]
        try:
            out, delta, __ = state.run_batch((self._region_mask, jobs))
        except BatchAbortedError as exc:
            raise EngineError(
                "quarantined batch could not be salvaged within its "
                f"{self._quarantine_budget_s:.0f}s serial budget "
                f"({exc.reason}); an (answer, direction) pair of this "
                "input is genuinely unprocessable under the configured "
                "limits"
            ) from exc
        return self._absorb(out, delta)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    @property
    def barrier_active(self) -> bool:
        """Whether a barrier node is mid-flight (its pull is re-counted
        on resume, so document-level stats subtract one generated node
        per active barrier)."""
        return self._barrier_node is not None

    def control_snapshot(self) -> CheckpointState:
        """This region's (Q, P, V, yielded) as a checkpoint section."""
        # Answers whose (J, V-snapshot) processing has not completed go
        # back to Q: in-flight task results would be lost, and a batch
        # interrupted mid-pop was never submitted at all.
        requeue: set[Answer] = set(self._popping)
        for entry in self._inflight.values():
            if entry.kind == "pop":
                requeue.update(entry.answers)
        known = list(self._known)
        if self._barrier_node is not None:
            known.remove(self._barrier_node)
        return CheckpointState(
            region=self._region_fingerprint,
            known_nodes=known,
            exhausted=self._exhausted and self._barrier_node is None,
            queue=self._queue.items() + sorted(requeue, key=sorted),
            processed=sorted(self._dispatched - requeue, key=sorted),
            yielded=sorted(self._yielded, key=sorted),
        )

    def _maybe_checkpoint(self) -> None:
        """Save on this region's cadence; the job saves once on exit."""
        if (
            self._checkpoint is not None
            and self._since_save >= self._checkpoint.every
        ):
            self._checkpoint.save()
            self._since_save = 0

    def _restore(self, state: CheckpointState) -> Iterator[int]:
        """Load (Q, P, V) and return the node iterator, fast-forwarded.

        Statistics are *not* restored here: they are shared by every
        region of a job and restored once, at the document level.
        """
        node_iterator = minimal_separator_masks(self._region)
        prefix = list(itertools.islice(node_iterator, len(state.known_nodes)))
        if prefix != state.known_nodes:
            raise CheckpointError(
                "separator enumeration prefix does not match the "
                "checkpoint; the graph differs from the checkpointed run"
            )
        self._known = list(state.known_nodes)
        self._exhausted = state.exhausted
        self._dispatched = set(state.processed)
        self._yielded = set(state.yielded)
        self._seen = set(state.processed)
        for answer in state.queue:
            if answer not in self._seen:
                self._seen.add(answer)
                self._queue.push(answer)
        return node_iterator

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------

    def _seed(self) -> Answer:
        """Compute Extend(∅) locally — the first answer of the run."""
        self._stats.extend_calls += 1
        started = time.perf_counter_ns()
        family = extend_parallel_set(
            self._region, (), self._triangulator
        )
        self._stats.extend_time_ns += time.perf_counter_ns() - started
        return frozenset(self._region.mask_of(sep) for sep in family)

    def _absorb(self, candidates, delta) -> list[Answer]:
        """Fold a batch result into (stats, seen, Q); return new answers."""
        self._stats.add(delta)
        fresh: list[Answer] = []
        for masks in candidates:
            answer = frozenset(masks)
            if answer in self._seen:
                self._stats.duplicates_suppressed += 1
            else:
                self._seen.add(answer)
                self._stats.answers += 1
                self._since_save += 1
                self._queue.push(answer)
                fresh.append(answer)
        return fresh

    def stream(self) -> Iterator[Answer]:
        """Run the coordinated enumeration; yield each answer once."""
        queue = self._queue
        inflight = self._inflight
        mode = self._mode
        node_iterator = self._node_iterator
        if not self._resumed:
            seed = self._seed()
            self._seen.add(seed)
            self._stats.answers += 1
            queue.push(seed)
            if mode == "UG":
                self._yielded.add(seed)
                yield seed
        elif mode == "UG":
            # Under UG an answer is yielded the moment it is first
            # generated — so any restored answer the interrupted run
            # generated but never delivered must be emitted now, or
            # it would never be yielded at all.
            for answer in queue.items() + sorted(self._dispatched, key=sorted):
                if answer not in self._yielded:
                    self._yielded.add(answer)
                    yield answer
        batcher = self._batcher
        while True:
            # Dispatch popped answers against the current V snapshot.
            while len(queue) and len(inflight) < batcher.max_inflight():
                count = min(
                    batcher.pop_chunk_size(len(queue), len(self._known)),
                    len(queue),
                )
                batch = self._popping
                for __ in range(count):
                    batch.append(queue.pop())
                for answer in batch:
                    if mode == "UP" and answer not in self._yielded:
                        self._yielded.add(answer)
                        yield answer
                self._dispatch("pop", batch, tuple(self._known))
                # Only now is the batch safely in flight: answers
                # move from "still queued" to "dispatched" together,
                # so an interrupt mid-batch can never record an
                # unprocessed answer as processed.
                self._dispatched.update(batch)
                self._popping = []

            if inflight:
                done, __ = wait(inflight, return_when=FIRST_COMPLETED)
                collected_ns = batcher.now()
                for future in done:
                    entry = inflight[future]
                    # _collect may raise (broken pool); the entry
                    # leaves _inflight only after its answers are
                    # absorbed, so the job's exit checkpoint, taken
                    # after this stream unwinds, requeues the batch.
                    fresh = self._collect(future, entry, collected_ns)
                    del inflight[future]
                    for answer in fresh:
                        if mode == "UG":
                            self._yielded.add(answer)
                            yield answer
                    if entry.kind == "barrier" and not any(
                        e.kind == "barrier" for e in inflight.values()
                    ):
                        self._barrier_node = None
                self._maybe_checkpoint()
                continue

            if len(queue):
                continue

            # Q empty, nothing in flight: grow V by one node.
            if self._exhausted:
                break
            try:
                v = next(node_iterator)
            except StopIteration:
                self._exhausted = True
                break
            self._known.append(v)
            self._stats.nodes_generated += 1
            if not self._dispatched:
                continue
            self._barrier_node = v
            targets = sorted(self._dispatched, key=sorted)
            size = batcher.barrier_chunk_size(len(targets))
            for start in range(0, len(targets), size):
                self._dispatch(
                    "barrier", targets[start : start + size], (v,)
                )
