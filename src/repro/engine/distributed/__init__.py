"""Distributed multi-host enumeration: TCP coordinator + socket workers.

This package registers the ``"distributed"`` backend.  It is the
transport-level sibling of the ``"sharded"`` process-pool backend: both
drive :func:`repro.engine.sharded.coordinated_stream` — the
backend-agnostic (Q, P, V) assembly with checkpointing, multi-region
products and adaptive batching — and differ only in the runner behind
``submit(batch) → Future``.  Here that runner is
:class:`~repro.engine.distributed.runner.DistributedRunner`, an asyncio
TCP server that ships the packed graph once per connected host and
fans batches out over a framed, versioned protocol
(:mod:`~repro.engine.distributed.protocol`).  Hosts run
``repro worker --connect HOST:PORT``
(:mod:`~repro.engine.distributed.worker`), which executes batches with
the same :class:`~repro.engine.pool.WorkerState` compute path as an
in-process pool worker.

Membership is elastic: workers may join or leave mid-job.  Batches
owned by a lost host fail straight back to the coordinator, whose one
retry ladder redispatches them, and each result counts exactly once.
Coordinator restart rides the ordinary checkpoint document: resume the
job, point the workers at the new port, and enumeration continues
without re-yielding delivered answers.  See the README's
"Distributed" section for the two-terminal quickstart.

The submodule imports numpy (via the packed wire format); this package
keeps its import lazy so ``import repro.engine`` works on numpy-less
installs, and the backend raises a typed error only when actually used.
"""

from __future__ import annotations

from repro.engine.base import EngineError, EnumerationBackend, register_backend
from repro.engine.distributed.protocol import (
    DEFAULT_LIVENESS_WINDOWS,
    parse_address,
    validate_liveness_config,
)

__all__ = ["DistributedBackend", "parse_address"]


class DistributedBackend(EnumerationBackend):
    """TCP coordinator backend: listen for workers, stream answers.

    An unconfigured instance is registered under ``"distributed"`` so
    the backend shows up in discovery, but streaming requires a listen
    address — the CLI builds a configured instance from ``--listen``
    and passes it to the engine directly (``get_backend`` accepts
    instances).
    """

    name = "distributed"

    def __init__(
        self,
        listen: str | tuple[str, int] | None = None,
        *,
        expected_workers: int = 1,
        heartbeat_s: float = 2.0,
        batch_timeout_s: float = 300.0,
        pending_timeout_s: float | None = None,
        wait_for_workers_s: float | None = None,
        on_listening=None,
        liveness_windows: float | None = None,
    ) -> None:
        if isinstance(listen, str):
            listen = parse_address(listen)
        # Validate liveness knobs eagerly: a pending timeout shorter
        # than the heartbeat can never fire and should fail at
        # configuration time, not minutes into a run.
        if liveness_windows is None:
            liveness_windows = DEFAULT_LIVENESS_WINDOWS
        validate_liveness_config(
            heartbeat_s, pending_timeout_s, liveness_windows
        )
        self._listen = listen
        self._expected_workers = expected_workers
        self._heartbeat_s = heartbeat_s
        self._batch_timeout_s = batch_timeout_s
        self._pending_timeout_s = pending_timeout_s
        self._wait_for_workers_s = wait_for_workers_s
        self._on_listening = on_listening
        self._liveness_windows = liveness_windows

    def expected_workers(self, workers: int | None = None) -> int:
        """The worker count a run starts with: ``workers`` if given."""
        expected = workers if workers is not None else self._expected_workers
        return max(1, int(expected))

    def stream(self, job, stats, workers):
        if self._listen is None:
            raise EngineError(
                "the distributed backend needs a listen address: pass "
                "--listen HOST:PORT on the command line, or construct "
                "DistributedBackend(listen=(host, port)) and hand the "
                "instance to the engine"
            )
        from repro.engine.distributed.runner import DistributedRunner
        from repro.engine.sharded import coordinated_stream

        expected = self.expected_workers(workers)

        def factory(payload):
            return DistributedRunner(
                payload,
                self._listen,
                expected_workers=expected,
                heartbeat_s=self._heartbeat_s,
                batch_timeout_s=self._batch_timeout_s,
                pending_timeout_s=self._pending_timeout_s,
                stats=stats,
                on_listening=self._on_listening,
                wait_for_workers_s=self._wait_for_workers_s,
                liveness_windows=self._liveness_windows,
            )

        return coordinated_stream(job, stats, factory)


register_backend(DistributedBackend())
