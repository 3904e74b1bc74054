"""The ``serial`` backend: the whole job in this process.

Every job runs the one assembly of :mod:`repro.engine.sharded`
(:func:`~repro.engine.sharded.coordinated_stream`): regions,
materialisation, ranking, the fair product and the checkpoint sink.
Only the per-region loop is chosen here.  Jobs without a checkpoint run
the paper-reference EnumMIS loop
(:func:`repro.core.enumerate.separator_mask_families`), whose answer
delay tail is lower than the coordinator's on small connected graphs.
Checkpointed jobs run the coordinator on an in-process
:class:`~repro.engine.pool.InlineRunner`, which owns the (Q, P, V)
state a checkpoint records; batches execute synchronously, with no
worker pool.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.triangulation import Triangulation
from repro.engine.base import EnumerationBackend, register_backend
from repro.engine.job import EnumerationJob
from repro.engine.pool import InlineRunner
from repro.engine.sharded import coordinated_stream
from repro.sgr.enum_mis import EnumMISStatistics

__all__ = ["SerialBackend"]


class SerialBackend(EnumerationBackend):
    """Single-process execution (the reference implementation)."""

    name = "serial"

    def stream(
        self,
        job: EnumerationJob,
        stats: EnumMISStatistics,
        workers: int | None,
    ) -> Iterator[Triangulation]:
        runner = InlineRunner if job.checkpoint_path is not None else None
        return coordinated_stream(job, stats, runner)


register_backend(SerialBackend())
