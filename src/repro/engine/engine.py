"""The engine front-end: budgets, timing and result assembly."""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterator

from repro.core.triangulation import Triangulation
from repro.engine.base import EnumerationBackend, get_backend
from repro.engine.job import EnumerationJob
from repro.engine.result import AnswerRecord, EnumerationResult
from repro.graph import resolve_graph_backend
from repro.sgr.enum_mis import EnumMISStatistics

__all__ = ["EnumerationEngine"]


class EnumerationEngine:
    """Dispatch enumeration jobs to a pluggable backend.

    Parameters
    ----------
    backend:
        Registry name (``"serial"``, ``"sharded"``) or an
        :class:`~repro.engine.base.EnumerationBackend` instance.
    workers:
        Worker-pool size for parallel backends; overrides the job's
        ``workers`` hint when given.

    Examples
    --------
    >>> from repro.engine import EnumerationEngine, EnumerationJob
    >>> from repro.graph.generators import gnp_random_graph
    >>> graph = gnp_random_graph(12, 0.4, seed=5)
    >>> job = EnumerationJob(graph, max_results=10)
    >>> result = EnumerationEngine("serial").run(job)
    >>> result.count
    10
    """

    def __init__(
        self,
        backend: str | EnumerationBackend = "serial",
        workers: int | None = None,
    ) -> None:
        self._backend = get_backend(backend)
        self._workers = workers

    @property
    def backend_name(self) -> str:
        """The resolved backend's registry name."""
        return self._backend.name

    @property
    def workers(self) -> int | None:
        """The engine-level worker count override (``None`` = job/auto)."""
        return self._workers

    def stream(
        self,
        job: EnumerationJob,
        stats: EnumMISStatistics | None = None,
    ) -> Iterator[Triangulation]:
        """Lazily enumerate ``job``, enforcing its budgets.

        The stream stops after ``job.max_results`` answers or once
        ``job.time_budget`` seconds have elapsed (checked after each
        answer).  Closing the stream releases backend resources — a
        sharded run's worker pool — and, for checkpointed jobs, persists
        the final (Q, P, V) state (stage timers included) so an
        interrupted consumer can resume with ``job.resume=True``.
        Always close the stream (or drain it): an abandoned sharded
        stream holds its worker pool until garbage collection.
        """
        job.validate()
        if stats is None:
            stats = EnumMISStatistics()
        # Resolve the graph-core backend once, up front: every execution
        # backend then sees the selected representation (workers too —
        # the pool payload records the core class).  Conversion keeps
        # the interner, so masks are interchangeable between cores and
        # checkpoint fingerprints (label/edge level) are unaffected.
        resolved = resolve_graph_backend(job.graph, job.graph_backend)
        if resolved is not job.graph:
            job = dataclasses.replace(job, graph=resolved)

        def generate() -> Iterator[Triangulation]:
            if job.max_results == 0:
                return
            start = time.monotonic()
            produced = 0
            source = self._backend.stream(job, stats, self._workers)
            try:
                for triangulation in source:
                    yield triangulation
                    produced += 1
                    if (
                        job.max_results is not None
                        and produced >= job.max_results
                    ):
                        break
                    if (
                        job.time_budget is not None
                        and time.monotonic() - start >= job.time_budget
                    ):
                        break
            finally:
                source.close()

        return generate()

    def run(self, job: EnumerationJob) -> EnumerationResult:
        """Execute ``job`` to completion (or budget) and collect results."""
        stats = EnumMISStatistics()
        result = EnumerationResult(
            backend=self.backend_name,
            workers=self._effective_workers(job),
            stats=stats,
        )
        start = time.monotonic()
        completed = job.max_results != 0
        stream = self.stream(job, stats)
        for index, triangulation in enumerate(stream):
            elapsed = time.monotonic() - start
            result.triangulations.append(triangulation)
            result.records.append(
                AnswerRecord(
                    index=index,
                    elapsed=elapsed,
                    width=triangulation.width,
                    fill=triangulation.fill,
                )
            )
            if job.max_results is not None and index + 1 >= job.max_results:
                completed = False
                break
            if job.time_budget is not None and elapsed >= job.time_budget:
                completed = False
                break
        result.elapsed = time.monotonic() - start
        result.completed = completed
        return result

    def _effective_workers(self, job: EnumerationJob) -> int:
        if self.backend_name == "distributed":
            return self._backend.expected_workers(self._workers)
        if self.backend_name != "sharded":
            return 1
        if self._workers is not None:
            return self._workers
        if job.workers is not None:
            return job.workers
        from repro.engine.pool import default_worker_count

        return default_worker_count()
