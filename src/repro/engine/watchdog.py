"""Per-batch resource watchdog for enumeration workers.

A worker executing an ``Extend`` batch can be wedged by a pathological
input: one candidate family whose triangulation blows up in
time or memory.  Without supervision the OS eventually OOM-kills the
process, the coordinator sees a dead connection, requeues the batch —
and the next worker dies the same way, taking the fleet down in a loop.

:class:`ResourceWatchdog` bounds one batch cooperatively instead: it is
armed around ``WorkerState.run_batch`` with a wall-clock deadline and
an RSS ceiling (:class:`BatchLimits`), and a small daemon thread
samples ``/proc/self/statm`` (falling back to ``resource.getrusage``
where procfs is unavailable — no psutil dependency anywhere) while the
batch computes.  The compute loop polls :meth:`ResourceWatchdog.check`
between candidate families; on breach it raises
:class:`BatchAbortedError`, the worker frees its scratch state, reports
a typed failure — a :class:`BatchFailure` value through the process
pool, a ``BATCH_FAILED`` protocol frame over a socket — and *stays
alive* for the next batch.

Abort granularity is one pair: a single pair that never returns is
caught by the transport's batch timeout (the connection is dropped and
the batch requeued), not by the watchdog — the watchdog's job is the
common case where a batch is too big or too leaky, which splitting and
quarantine can actually fix.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.engine.base import EngineError

__all__ = [
    "BatchAbortedError",
    "BatchFailure",
    "BatchLimits",
    "ResourceWatchdog",
    "current_rss_bytes",
]


def current_rss_bytes() -> int:
    """This process's resident set size, in bytes (0 when unknowable).

    Reads ``/proc/self/statm`` (current RSS, Linux); degrades to
    ``resource.getrusage`` — which reports the *peak* RSS, a
    conservative over-estimate for a ceiling check — and finally to 0,
    which disables RSS enforcement rather than crashing the worker.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(usage) * 1024  # ru_maxrss is KiB on Linux
    except Exception:  # pragma: no cover - exotic platforms
        return 0


@dataclass(frozen=True)
class BatchLimits:
    """Per-batch resource ceilings enforced by the watchdog.

    ``None`` disables the corresponding check; ``BatchLimits()`` is the
    unlimited default and arms nothing.
    """

    deadline_s: float | None = None
    rss_limit_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise EngineError("batch deadline_s must be positive")
        if self.rss_limit_bytes is not None and self.rss_limit_bytes <= 0:
            raise EngineError("batch rss_limit_bytes must be positive")

    @property
    def enabled(self) -> bool:
        return self.deadline_s is not None or self.rss_limit_bytes is not None

    @classmethod
    def from_cli(
        cls, deadline_s: float | None, rss_mb: float | None
    ) -> "BatchLimits | None":
        """Build limits from CLI-flavoured values; ``None`` when both unset."""
        if deadline_s is None and rss_mb is None:
            return None
        rss_bytes = None if rss_mb is None else int(rss_mb * (1 << 20))
        return cls(deadline_s=deadline_s, rss_limit_bytes=rss_bytes)


class BatchAbortedError(EngineError):
    """A batch was aborted cooperatively by the resource watchdog.

    Carries what the failure report needs: why (``"deadline"``,
    ``"rss"``, or ``"poison"`` from fault injection), how long the
    batch had been running, and the peak RSS the monitor observed.
    """

    def __init__(self, reason: str, elapsed_s: float, peak_rss: int) -> None:
        super().__init__(
            f"batch aborted by resource watchdog ({reason}) after "
            f"{elapsed_s:.3f}s, peak RSS {peak_rss} bytes"
        )
        self.reason = reason
        self.elapsed_s = elapsed_s
        self.peak_rss = peak_rss


@dataclass(frozen=True)
class BatchFailure:
    """Picklable failure value a pool worker returns instead of a result.

    A cooperative abort must not poison the ``ProcessPoolExecutor`` —
    raising out of the task function is fine, but a *value* survives
    pickling problems and keeps the failure path identical to the
    socket worker's BATCH_FAILED frame.
    """

    reason: str
    elapsed_s: float
    peak_rss: int


class ResourceWatchdog:
    """One monitor thread bounding the batches of one worker.

    The thread is created lazily on the first :meth:`arm` and lives for
    the worker's lifetime (armed → sampling, disarmed → parked on an
    event), so per-batch cost is two Event operations, not a thread
    spawn.  ``check()`` — called by the compute loop between pairs —
    also samples time and RSS directly, so a breach is detected even if
    the monitor thread has not run since it happened.
    """

    def __init__(
        self, limits: BatchLimits, *, interval_s: float = 0.05
    ) -> None:
        self.limits = limits
        self._interval_s = interval_s
        self._lock = threading.Lock()
        self._armed = threading.Event()
        self._stopped = False
        self._thread: threading.Thread | None = None
        self._started_at = 0.0
        self._peak_rss = 0
        self._breach: str | None = None

    # -- batch lifecycle -------------------------------------------------

    def arm(self) -> None:
        """Start supervising one batch (resets peak/breach state)."""
        if not self.limits.enabled:
            return
        with self._lock:
            self._started_at = time.monotonic()
            self._peak_rss = current_rss_bytes()
            self._breach = None
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-batch-watchdog", daemon=True
            )
            self._thread.start()
        self._armed.set()

    def disarm(self) -> None:
        """Stop supervising (the batch finished, however it finished)."""
        self._armed.clear()

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._started_at

    @property
    def peak_rss(self) -> int:
        return self._peak_rss

    def check(self) -> None:
        """Raise :class:`BatchAbortedError` if any limit is breached.

        Called from the compute loop between candidate families;
        samples directly in addition to reading the monitor's verdict.
        """
        if not self.limits.enabled:
            return
        breach = self._breach or self._sample()
        if breach is not None:
            raise BatchAbortedError(breach, self.elapsed_s, self._peak_rss)

    def abort(self, reason: str) -> "BatchAbortedError":
        """Build an abort error for an injected fault (chaos poison)."""
        return BatchAbortedError(reason, self.elapsed_s, self._peak_rss)

    # -- monitor internals ----------------------------------------------

    def _sample(self) -> str | None:
        limits = self.limits
        rss = current_rss_bytes()
        with self._lock:
            if rss > self._peak_rss:
                self._peak_rss = rss
            if (
                limits.deadline_s is not None
                and time.monotonic() - self._started_at > limits.deadline_s
            ):
                self._breach = "deadline"
            elif (
                limits.rss_limit_bytes is not None
                and rss > limits.rss_limit_bytes
            ):
                self._breach = "rss"
            return self._breach

    def _run(self) -> None:  # pragma: no cover - timing-dependent thread
        while not self._stopped:
            self._armed.wait()
            if self._stopped:
                return
            self._sample()
            time.sleep(self._interval_s)

    def close(self) -> None:
        self._stopped = True
        self._armed.set()
