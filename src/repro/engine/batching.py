"""Cost-driven task sizing for the sharded coordinator.

The coordinator slices its work into batches of candidate families
twice: popped answers are swept against the current V-snapshot, and
every barrier re-examines all processed answers in the direction of
one new node.  How big those
batches should be is a pure throughput/latency trade:

* too small, and the run drowns in per-batch overhead — a pickle, a
  queue hop and a ``Future`` wake-up per handful of microseconds of
  compute (the recorded ``engine-pr2-sharded`` baseline lost ~38 % of
  its wall clock to exactly this);
* too big, and workers idle at the tail of every dispatch wave,
  answers sit unyielded inside running tasks, and an interrupt
  re-queues (loses the progress of) everything in flight.

The static heuristics this module replaces sized batches by queue
length alone, but the right size depends on how expensive one unit of
work *is* — which varies by graph, triangulator and stage, and drifts
as the enumeration warms its caches.  :class:`AdaptiveBatcher` instead
*measures*: every completed batch reports its compute time and its pair
count (candidate families — each is one ``Extend``), an
exponentially-weighted moving average tracks the per-pair cost, and
batches are sized so one batch takes roughly ``target_ms`` of worker
compute (default 100 ms — comfortably above per-batch overhead,
comfortably below human-visible latency).  A stealable-work cap keeps
a batch from swallowing a queue share another worker could be running,
whatever the target says.

The batcher is also the coordinator's clock (``clock`` is injectable,
so tests drive sizing decisions deterministically without wall-time
sleeps).  It holds no reporting state of its own: the latency/byte
accounting lives on the run's
:class:`~repro.sgr.enum_mis.EnumMISStatistics`, incremented by the
coordinator right where it feeds this cost model — one source of
truth, nothing to drift apart across checkpoint restores.

Any sizing policy is *correct* — the EnumMIS proof is agnostic to how Q
is drained, and every batch is re-queued wholesale on interrupt — so
this module only ever trades throughput, never answers.  CI pins that
by running the sharded backend with an aggressively tiny
``batch_target_ms`` against the serial reference.
"""

from __future__ import annotations

import time
from collections.abc import Callable

__all__ = ["AdaptiveBatcher", "DEFAULT_BATCH_TARGET_MS"]

#: Default worker-compute duration one batch is sized to hit.
DEFAULT_BATCH_TARGET_MS = 100.0

#: Hard per-batch family caps: whatever the cost model says, a pop
#: batch never exceeds this many families …
_MAX_POP_CHUNK = 1024
#: … and a barrier chunk never exceeds this many.
_MAX_BARRIER_CHUNK = 4096

#: EWMA smoothing factor: one observation moves the estimate a quarter
#: of the way — reactive enough to follow cache warm-up, damped enough
#: that one outlier batch cannot collapse or explode the next size.
_ALPHA = 0.25

#: Floor for the per-pair cost estimate.  A batch that completes below
#: timer resolution would otherwise drive the estimate to ~0 and the
#: next batch size to infinity.
_MIN_PAIR_NS = 1.0


class AdaptiveBatcher:
    """Size task batches to a target duration from observed costs.

    Parameters
    ----------
    workers:
        The pool size batches are spread across (1 for the inline
        runner).
    target_ms:
        Compute duration one batch should take.  Smaller values mean
        finer-grained stealing, cheaper interrupts and fresher
        V-snapshots at the price of more per-batch overhead.
    clock:
        Nanosecond monotonic clock; injectable for deterministic tests.
    """

    __slots__ = (
        "workers",
        "target_ns",
        "_clock",
        "_pair_cost_ns",
    )

    def __init__(
        self,
        workers: int,
        target_ms: float = DEFAULT_BATCH_TARGET_MS,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        if target_ms <= 0:
            raise ValueError(f"target_ms must be positive, got {target_ms}")
        self.workers = max(1, workers)
        self.target_ns = target_ms * 1e6
        self._clock = clock
        self._pair_cost_ns: float | None = None

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def now(self) -> int:
        """The batcher's clock (coordinators timestamp dispatches with it)."""
        return self._clock()

    def observe(self, pairs: int, compute_ns: int) -> None:
        """Fold one completed batch into the cost model.

        ``pairs`` is the batch's candidate-family count and
        ``compute_ns`` the worker-side wall time spent executing it.
        """
        if pairs > 0:
            per_pair = max(compute_ns / pairs, _MIN_PAIR_NS)
            if self._pair_cost_ns is None:
                self._pair_cost_ns = per_pair
            else:
                self._pair_cost_ns += _ALPHA * (per_pair - self._pair_cost_ns)

    @property
    def pair_cost_ns(self) -> float | None:
        """EWMA compute cost of one candidate family, or None."""
        return self._pair_cost_ns

    # ------------------------------------------------------------------
    # Sizing policy
    # ------------------------------------------------------------------

    def _target_families(self, cap: int) -> int:
        assert self._pair_cost_ns is not None
        return max(1, min(cap, int(self.target_ns / self._pair_cost_ns)))

    def _stealable_cap(self, chunk: int, available: int) -> int:
        """Never let one batch swallow a share another worker could run."""
        if self.workers > 1:
            share = -(-available // self.workers)  # ceil
            chunk = min(chunk, max(1, share))
        return max(1, min(chunk, available))

    def pop_chunk_size(self, available: int) -> int:
        """Candidate families per dispatched pop batch.

        The coordinator pops answers until their uncovered families
        reach this size; ``available`` bounds the candidates Q holds.
        Before the first observation there is nothing to extrapolate
        from, so a deliberately small bootstrap size is used — the
        resulting measurement immediately replaces it.
        """
        if self._pair_cost_ns is None:
            bootstrap = 1 if self.workers <= 1 else max(
                1, min(16, available // (2 * self.workers) or 1)
            )
            return min(bootstrap, max(1, available))
        chunk = self._target_families(_MAX_POP_CHUNK)
        return self._stealable_cap(chunk, available)

    def barrier_chunk_size(self, total: int) -> int:
        """Candidate families per barrier chunk (``total`` answers to sweep)."""
        if self._pair_cost_ns is None:
            return max(1, min(32, -(-total // (4 * self.workers))))
        chunk = self._target_families(_MAX_BARRIER_CHUNK)
        return self._stealable_cap(chunk, total)

    def max_inflight(self) -> int:
        """Batches allowed in flight at once.

        Three per worker: one running, one queued behind it (so a
        worker never idles waiting for the coordinator's next dispatch
        round), one in transit — the same pipelining depth the static
        policy used, now owned by the policy object.
        """
        return 1 if self.workers <= 1 else self.workers * 3
