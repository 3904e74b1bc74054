"""Top-level enumeration of minimal triangulations (system S16).

``enumerate_minimal_triangulations`` realises the paper's main result
(Corollary 4.8): all minimal triangulations of a graph, in incremental
polynomial time, as a lazy generator of
:class:`~repro.core.triangulation.Triangulation` objects.

Every call is one :class:`~repro.engine.job.EnumerationJob` streamed
through the enumeration engine, whatever the backend, so there is one
assembly of the pipeline (:func:`repro.engine.sharded.coordinated_stream`):
the graph is split into regions (connected components, or atoms), each
region runs ``EnumMIS`` over its separator-graph SGR, and each produced
maximal pairwise-parallel family φ is materialised as the triangulation
``g[φ]``.  Several regions are combined by the classical product rule:
a minimal triangulation of g is an independent choice of one per
region, interleaved through a lazy fair product so output stays
incremental (the first answer appears after one ``Extend`` per region).

:func:`separator_mask_families` is the per-region loop of serial jobs
without a checkpoint: the paper-reference
:func:`~repro.sgr.enum_mis.enumerate_maximal_independent_sets` over a
:class:`~repro.sgr.separator_graph.MinimalSeparatorSGR`, whose nodes
are already the separator masks the engine's region streams speak.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.chordal.triangulate import (
    Triangulator,
    get_triangulator,
    minimal_triangulation_via,
)
from repro.core.triangulation import Triangulation
from repro.graph.bitset_np import core_backend_name
# Unused here, but perfbench/spans.py wraps this module's name.
from repro.graph.components import connected_components  # noqa: F401
from repro.graph.graph import Graph
from repro.sgr.enum_mis import EnumMISStatistics, enumerate_maximal_independent_sets
from repro.sgr.separator_graph import MinimalSeparatorSGR

__all__ = [
    "enumerate_minimal_triangulations",
    "minimal_triangulation",
    "count_minimal_triangulations",
]


def minimal_triangulation(
    graph: Graph, triangulator: str | Triangulator = "mcs_m"
) -> Triangulation:
    """Return one minimal triangulation (what the bare heuristic gives).

    This is the paper's quality baseline: "the result we would get by
    running the minimal triangulation algorithm we used, on the
    original input graph" (Section 6.3).
    """
    filled = minimal_triangulation_via(graph, triangulator)
    return Triangulation.from_chordal_supergraph(graph, filled)


def enumerate_minimal_triangulations(
    graph: Graph,
    triangulator: str | Triangulator = "mcs_m",
    mode: str = "UG",
    stats: EnumMISStatistics | None = None,
    decompose: str = "components",
    backend: str = "serial",
    workers: int | None = None,
    graph_backend: str | None = "auto",
) -> Iterator[Triangulation]:
    """Enumerate ``MinTri(graph)`` in incremental polynomial time.

    Parameters
    ----------
    graph:
        Any finite simple graph (connected or not).
    triangulator:
        The heuristic plugged into ``Extend`` (``"mcs_m"``,
        ``"lb_triang"``, ``"min_fill"``, ``"min_degree"``,
        ``"natural"``, ``"complete"`` or a custom
        :class:`~repro.chordal.triangulate.Triangulator`).
    mode:
        ``"UG"`` (yield upon generation) or ``"UP"`` (yield upon pop);
        see :mod:`repro.sgr.enum_mis`.
    stats:
        Optional :class:`~repro.sgr.enum_mis.EnumMISStatistics` updated
        in place (shared across components for disconnected input).
    decompose:
        ``"components"`` (default) runs the SGR pipeline per connected
        component and combines results through the product rule;
        ``"atoms"`` additionally splits on clique minimal separators
        (see :mod:`repro.chordal.atoms`), which can shrink the
        separator space exponentially; ``"none"`` disables splitting.
    backend:
        Execution strategy, resolved through the enumeration-engine
        registry (:mod:`repro.engine`): ``"serial"`` (default, one
        process) or ``"sharded"`` (answer queue partitioned across a
        multiprocessing worker pool).  Every backend yields the same
        answer set.
    workers:
        Worker-pool size for parallel backends (``None`` = one per
        CPU); ignored by the serial backend.
    graph_backend:
        Graph-core representation: ``"indexed"``, ``"numpy"`` or
        ``"auto"`` (default — the packed-numpy core at or above
        :data:`repro.graph.bitset_np.NUMPY_THRESHOLD` nodes, the
        single-int bitmask core below).  ``None`` keeps the graph's
        current core untouched.

    Raises
    ------
    ValueError
        On an unknown ``mode``, ``decompose`` or ``graph_backend``
        (raised when the generator is first advanced).

    Yields
    ------
    Triangulation
        Every minimal triangulation of ``graph``, exactly once.
    """
    yield from _stream_job(
        graph,
        stats,
        backend,
        workers,
        mode=mode,
        triangulator=triangulator,
        decompose=decompose,
        graph_backend=(
            core_backend_name(graph.core)
            if graph_backend is None
            else graph_backend
        ),
    )


def _stream_job(
    graph: Graph,
    stats: EnumMISStatistics | None,
    backend: str,
    workers: int | None,
    **fields: object,
) -> Iterator[Triangulation]:
    """Stream one engine job; an invalid spec raises ``ValueError``.

    The library entry points take plain arguments, so a bad one is a
    ``ValueError`` there rather than the engine's ``EngineError``.
    """
    from repro.engine import EngineError, EnumerationEngine, EnumerationJob

    job = EnumerationJob(graph, **fields)  # type: ignore[arg-type]
    try:
        job.validate()
    except EngineError as exc:
        raise ValueError(str(exc)) from None
    yield from EnumerationEngine(backend, workers=workers).stream(job, stats)


def separator_mask_families(
    region: Graph,
    triangulator: str | Triangulator = "mcs_m",
    mode: str = "UG",
    stats: EnumMISStatistics | None = None,
    priority: Callable[[frozenset[int]], object] | None = None,
) -> Iterator[frozenset[int]]:
    """EnumMIS over the separator-graph SGR of one region (Figure 1).

    Yields every maximal pairwise-parallel family of minimal separators
    of ``region`` exactly once, as a frozenset of separator masks.
    ``priority``, when given, ranks answers in that same form and
    drains the answer queue best-first.  Not public API: this is the
    serial region stream of
    :func:`repro.engine.sharded.coordinated_stream`.
    """
    sgr = MinimalSeparatorSGR(region, get_triangulator(triangulator), stats=stats)
    yield from enumerate_maximal_independent_sets(
        sgr, mode=mode, stats=stats, priority=priority
    )


def count_minimal_triangulations(
    graph: Graph,
    triangulator: str | Triangulator = "mcs_m",
    limit: int | None = None,
) -> int:
    """Count minimal triangulations, optionally stopping at ``limit``."""
    count = 0
    for __ in enumerate_minimal_triangulations(graph, triangulator):
        count += 1
        if limit is not None and count >= limit:
            break
    return count
