"""The enumeration job spec: one fully-described unit of engine work.

An :class:`EnumerationJob` captures everything a backend needs to
enumerate the minimal triangulations of a graph — the input, the
EnumMIS printing mode, the ``Extend`` heuristic, decomposition and
ranking options, answer/time budgets, and checkpointing — so that the
same spec can be handed to any backend (serial today, sharded across a
worker pool, future bulk backends) and produce the same answer set.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.chordal.triangulate import Triangulator
from repro.core.triangulation import Triangulation
from repro.engine.base import EngineError
from repro.engine.batching import DEFAULT_BATCH_TARGET_MS
from repro.graph.graph import Graph

__all__ = ["EnumerationJob"]

CostFunction = Callable[[Triangulation], object]

_MODES = {"UG", "UP"}
_DECOMPOSE = {"none", "components", "atoms"}
_GRAPH_BACKENDS = {"auto", "indexed", "numpy", "native"}


@dataclass
class EnumerationJob:
    """A self-contained description of one enumeration run.

    Parameters
    ----------
    graph:
        The input graph (connected or not).
    mode:
        EnumMIS printing discipline: ``"UG"`` (yield upon generation,
        the default) or ``"UP"`` (yield upon pop).  Ranked jobs always
        run ``"UP"`` regardless of this field, mirroring
        :mod:`repro.core.ranked`.
    triangulator:
        Heuristic plugged into ``Extend`` — a registry name or a
        :class:`~repro.chordal.triangulate.Triangulator` instance.
        The sharded backend ships the heuristic to worker processes, so
        custom instances must be picklable (registry names always are).
    decompose:
        ``"components"`` (default), ``"atoms"`` or ``"none"`` — how the
        input is split before enumeration, as in
        :func:`repro.core.enumerate.enumerate_minimal_triangulations`.
    cost:
        Optional ranking: ``"width"``, ``"fill"`` or a callable mapping
        a Triangulation to a sortable key.  When set, the answer queue
        is drained best-first.
    max_results / time_budget:
        Answer-count and wall-clock budgets, enforced by the engine.
        ``None`` means unbounded.
    checkpoint_path:
        When set, the backend periodically persists its (Q, P, V) state
        to this file so an interrupted enumeration can be resumed; see
        :mod:`repro.engine.checkpoint`.  Jobs whose graph decomposes
        into several regions (disconnected inputs, ``decompose="atoms"``)
        persist one section per region plus the cross-region product
        state, so they round-trip exactly like connected jobs.
    checkpoint_every:
        Save the checkpoint after this many newly generated answers
        (plus once on stream close).
    resume:
        When True and ``checkpoint_path`` exists, restore (Q, P, V)
        from it instead of starting fresh; answers already yielded by
        the interrupted run are not yielded again.
    workers:
        Worker-pool size hint for parallel backends; ``None`` lets the
        backend choose (``os.cpu_count()`` for ``sharded``).
    batch_target_ms:
        Worker-compute duration one sharded task batch is sized to
        take (milliseconds).  The coordinator's
        :class:`~repro.engine.batching.AdaptiveBatcher` learns the
        per-family Extend cost from completed
        batches and sizes the next batch to this target — lower values
        mean finer-grained work stealing, cheaper interrupts and
        fresher V-snapshots; higher values amortise more per-batch IPC
        overhead.  Any value enumerates the same answer set.
    max_batch_retries:
        How many times one failed extend batch may be redispatched
        (worker death, cooperative watchdog abort) before the
        coordinator splits it in half and finally quarantines it —
        extending the surviving candidate families serially
        under a hard budget.  This is the only retry budget: every
        transport, the distributed one included, hands lost and
        aborted batches straight back to the coordinator.
    batch_deadline_s / batch_rss_limit_mb:
        Per-batch resource ceilings enforced *inside* each worker by
        the cooperative resource watchdog (wall-clock seconds / RSS in
        MiB).  ``None`` disables the corresponding check; when both are
        unset no watchdog is armed.  A breached batch fails typed — the
        worker survives — and enters the retry/split/quarantine ladder.
    graph_backend:
        Graph-core representation: ``"indexed"`` (single-int bitmasks),
        ``"numpy"`` (packed uint64 word matrices for batch sweeps),
        ``"native"`` (the same word matrices dispatched to the compiled
        C kernels, degrading to numpy when the extension cannot be
        built) or ``"auto"`` (default — the packed tier at or above
        :data:`repro.graph.bitset_np.NUMPY_THRESHOLD` nodes, preferring
        native when available).  Resolved once by the engine before
        backend dispatch, so every execution backend — including
        sharded workers, via the graph payload — runs on the selected
        core transparently.
    """

    graph: Graph
    mode: str = "UG"
    triangulator: str | Triangulator = "mcs_m"
    decompose: str = "components"
    cost: str | CostFunction | None = None
    max_results: int | None = None
    time_budget: float | None = None
    checkpoint_path: str | Path | None = None
    checkpoint_every: int = 64
    resume: bool = False
    workers: int | None = field(default=None)
    batch_target_ms: float = DEFAULT_BATCH_TARGET_MS
    graph_backend: str = "auto"
    max_batch_retries: int = 3
    batch_deadline_s: float | None = None
    batch_rss_limit_mb: float | None = None

    def validate(self) -> None:
        """Raise :class:`EngineError` on an inconsistent spec."""
        if self.mode not in _MODES:
            raise EngineError(
                f"mode must be one of {sorted(_MODES)}, got {self.mode!r}"
            )
        if self.decompose not in _DECOMPOSE:
            raise EngineError(
                f"decompose must be one of {sorted(_DECOMPOSE)}, "
                f"got {self.decompose!r}"
            )
        if self.max_results is not None and self.max_results < 0:
            raise EngineError("max_results must be >= 0")
        if self.time_budget is not None and self.time_budget < 0:
            raise EngineError("time_budget must be >= 0")
        if self.checkpoint_every <= 0:
            raise EngineError("checkpoint_every must be positive")
        if self.workers is not None and self.workers < 0:
            raise EngineError("workers must be >= 0")
        if self.batch_target_ms <= 0:
            raise EngineError("batch_target_ms must be positive")
        if self.resume and self.checkpoint_path is None:
            raise EngineError("resume=True requires checkpoint_path")
        if self.max_batch_retries < 0:
            raise EngineError("max_batch_retries must be >= 0")
        if self.batch_deadline_s is not None and self.batch_deadline_s <= 0:
            raise EngineError("batch_deadline_s must be positive")
        if (
            self.batch_rss_limit_mb is not None
            and self.batch_rss_limit_mb <= 0
        ):
            raise EngineError("batch_rss_limit_mb must be positive")
        if self.graph_backend not in _GRAPH_BACKENDS:
            raise EngineError(
                f"graph_backend must be one of {sorted(_GRAPH_BACKENDS)}, "
                f"got {self.graph_backend!r}"
            )

    @property
    def effective_mode(self) -> str:
        """The EnumMIS discipline actually used (ranked jobs force UP)."""
        return "UP" if self.cost is not None else self.mode

    def triangulator_name(self) -> str:
        """A printable name for the heuristic (for reports/checkpoints)."""
        if isinstance(self.triangulator, str):
            return self.triangulator
        return self.triangulator.name
