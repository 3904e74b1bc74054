"""Materialised outcome of an engine run: answers, timings, merged stats."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.triangulation import Triangulation
from repro.sgr.enum_mis import EnumMISStatistics, report_clause

__all__ = ["AnswerRecord", "EnumerationResult"]


@dataclass(frozen=True)
class AnswerRecord:
    """One enumerated triangulation: arrival order, time and quality."""

    index: int
    elapsed: float
    width: int
    fill: int


@dataclass
class EnumerationResult:
    """What :meth:`repro.engine.EnumerationEngine.run` returns.

    ``stats`` is the aggregate over the coordinator and every worker —
    per-worker counters are folded in with
    :meth:`~repro.sgr.enum_mis.EnumMISStatistics.add` as task results
    arrive, so the totals are directly comparable with a serial run of
    the same job.
    """

    backend: str
    workers: int
    triangulations: list[Triangulation] = field(default_factory=list)
    records: list[AnswerRecord] = field(default_factory=list)
    stats: EnumMISStatistics = field(default_factory=EnumMISStatistics)
    elapsed: float = 0.0
    completed: bool = False

    @property
    def count(self) -> int:
        """Number of triangulations produced."""
        return len(self.records)

    @property
    def mean_batch_latency(self) -> float:
        """Mean dispatch → completion time of one task batch, seconds.

        0.0 when the run dispatched no batches (plain serial jobs
        bypass the coordinator entirely).
        """
        if not self.stats.batches_dispatched:
            return 0.0
        return (
            self.stats.batch_roundtrip_ns
            / self.stats.batches_dispatched
            / 1e9
        )

    @property
    def ipc_payload_bytes_per_batch(self) -> float:
        """Mean wire bytes (both directions) per dispatched batch."""
        if not self.stats.batches_dispatched:
            return 0.0
        return self.stats.ipc_payload_bytes / self.stats.batches_dispatched

    @property
    def min_width(self) -> int:
        """Best width observed (-1 when no answers)."""
        return min((r.width for r in self.records), default=-1)

    @property
    def min_fill(self) -> int:
        """Best fill observed (-1 when no answers)."""
        return min((r.fill for r in self.records), default=-1)

    def best(self, measure: str = "width") -> Triangulation:
        """Return the best triangulation by ``"width"`` or ``"fill"``."""
        if not self.triangulations:
            raise ValueError("no triangulations were produced")
        if measure == "width":
            return min(self.triangulations, key=lambda t: (t.width, t.fill))
        if measure == "fill":
            return min(self.triangulations, key=lambda t: (t.fill, t.width))
        raise ValueError(f"measure must be 'width' or 'fill', got {measure!r}")

    def summary(self) -> str:
        """One-line human-readable report.

        Ends with :func:`~repro.sgr.enum_mis.report_clause` (supervision
        events, and how many candidates the candidate step skipped
        because a found answer already contained them) when that is
        non-empty.
        """
        state = "complete" if self.completed else "stopped"
        line = (
            f"{self.count} triangulations via {self.backend!r}"
            f" ({self.workers} worker{'s' if self.workers != 1 else ''},"
            f" {state}) in {self.elapsed:.3f}s;"
            f" best width {self.min_width}, best fill {self.min_fill}"
        )
        clause = report_clause(self.stats)
        if clause:
            line += "; " + clause
        return line
