"""Cost-guided (best-first) enumeration of minimal triangulations.

An extension beyond the paper: the EnumMIS proofs are agnostic to the
order in which the answer queue Q is drained, so draining it through a
priority queue keyed by any cost of the corresponding triangulation
yields a *quality-biased anytime* enumerator — low-cost triangulations
tend to surface early, while completeness, duplicate-freedom and
incremental polynomial time are untouched.

This is a pragmatic middle ground between the paper (arbitrary order)
and its follow-up on exact ranked enumeration (Ravid, Medini &
Kimelfeld, PODS 2019), which achieves provably sorted output when the
number of minimal separators is polynomial.  Here the order is
heuristic: the k-th output is *not* guaranteed to be the k-th best, but
in practice the best-width/fill results arrive far earlier than under
FIFO order (see ``tests/test_ranked.py`` for the measured bias).

Ranking is a field of the engine job, not a pipeline of its own:
:func:`enumerate_minimal_triangulations_prioritized` streams an
:class:`~repro.engine.job.EnumerationJob` with ``cost`` set through
the same assembly as every other job
(:func:`repro.engine.sharded.coordinated_stream`).  Its queue priority
materialises each generated answer and scores it; the answer is
materialised again when it is popped and yielded, so the queue holds
separator masks, not triangulations.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.chordal.triangulate import Triangulator
from repro.core.enumerate import _stream_job
from repro.core.triangulation import Triangulation
from repro.graph.bitset_np import core_backend_name
from repro.graph.graph import Graph
from repro.sgr.enum_mis import EnumMISStatistics

__all__ = [
    "enumerate_minimal_triangulations_prioritized",
    "best_triangulation",
    "anytime_treewidth",
    "anytime_min_fill",
]

CostFunction = Callable[[Triangulation], object]

_NAMED_COSTS: dict[str, CostFunction] = {
    "width": lambda t: (t.width, t.fill),
    "fill": lambda t: (t.fill, t.width),
}


def _resolve_cost(cost: str | CostFunction) -> CostFunction:
    if callable(cost):
        return cost
    try:
        return _NAMED_COSTS[cost]
    except KeyError:
        raise ValueError(
            f"unknown cost {cost!r}; use 'width', 'fill' or a callable"
        ) from None


def enumerate_minimal_triangulations_prioritized(
    graph: Graph,
    cost: str | CostFunction = "width",
    triangulator: str | Triangulator = "mcs_m",
    stats: EnumMISStatistics | None = None,
    backend: str = "serial",
    workers: int | None = None,
) -> Iterator[Triangulation]:
    """Enumerate ``MinTri(graph)`` best-first by ``cost``.

    Parameters
    ----------
    cost:
        ``"width"`` (ties broken by fill), ``"fill"`` (ties broken by
        width) or any callable mapping a
        :class:`~repro.core.triangulation.Triangulation` to a sortable
        key.  The cost is evaluated once per generated answer.
    triangulator:
        The heuristic plugged into ``Extend``.
    backend / workers:
        Execution strategy, resolved through the enumeration-engine
        registry (:mod:`repro.engine`); ``"sharded"`` drains the same
        best-first queue while extend tasks run on ``workers``
        processes.  Every backend runs the same job with ``cost`` set,
        on the graph's current graph core.

    Yields
    ------
    Triangulation
        Every minimal triangulation exactly once, in heuristically
        cost-increasing order (answers are yielded when popped from the
        best-first queue, i.e. ``EnumMISHold`` discipline).

    Notes
    -----
    Disconnected graphs are enumerated per component and combined by
    the fair product in plain order: costs are component-local, so the
    product is not ranked.
    """
    yield from _stream_job(
        graph,
        stats,
        backend,
        workers,
        triangulator=triangulator,
        cost=cost,
        graph_backend=core_backend_name(graph.core),
    )


def anytime_treewidth(
    graph: Graph,
    time_budget: float | None = None,
    max_results: int | None = None,
    triangulator: str | Triangulator = "mcs_m",
) -> tuple[int, Triangulation, bool]:
    """Anytime treewidth: best-first enumeration with a lower-bound stop.

    Runs the width-prioritized enumeration until (a) the best width
    matches :func:`repro.core.bounds.treewidth_lower_bound` — the
    result is then *provably optimal* — or (b) the enumeration is
    exhausted — also optimal — or (c) the time/result budget runs out.

    Returns ``(width, triangulation, proven_optimal)``.
    """
    import time as _time

    from repro.core.bounds import treewidth_lower_bound

    lower = treewidth_lower_bound(graph)
    start = _time.monotonic()
    best: Triangulation | None = None
    exhausted = True
    count = 0
    for candidate in enumerate_minimal_triangulations_prioritized(
        graph, cost="width", triangulator=triangulator
    ):
        count += 1
        if best is None or candidate.width < best.width:
            best = candidate
        if best.width <= lower:
            return best.width, best, True
        if max_results is not None and count >= max_results:
            exhausted = False
            break
        if time_budget is not None and _time.monotonic() - start >= time_budget:
            exhausted = False
            break
    assert best is not None
    return best.width, best, exhausted


def anytime_min_fill(
    graph: Graph,
    time_budget: float | None = None,
    max_results: int | None = None,
    triangulator: str | Triangulator = "mcs_m",
) -> tuple[int, Triangulation, bool]:
    """Anytime minimum fill-in: fill-prioritized search, lower-bound stop.

    The analogue of :func:`anytime_treewidth` for the paper's second
    quality measure.  The lower bound comes from packing
    diagonal-disjoint chordless 4-cycles
    (:func:`repro.core.bounds.min_fill_lower_bound`); matching it — or
    exhausting the enumeration — proves optimality.

    Returns ``(fill, triangulation, proven_optimal)``.
    """
    import time as _time

    from repro.core.bounds import min_fill_lower_bound

    lower = min_fill_lower_bound(graph)
    start = _time.monotonic()
    best: Triangulation | None = None
    exhausted = True
    count = 0
    for candidate in enumerate_minimal_triangulations_prioritized(
        graph, cost="fill", triangulator=triangulator
    ):
        count += 1
        if best is None or candidate.fill < best.fill:
            best = candidate
        if best.fill <= lower:
            return best.fill, best, True
        if max_results is not None and count >= max_results:
            exhausted = False
            break
        if time_budget is not None and _time.monotonic() - start >= time_budget:
            exhausted = False
            break
    assert best is not None
    return best.fill, best, exhausted


def best_triangulation(
    graph: Graph,
    cost: str | CostFunction = "width",
    max_results: int | None = 100,
    triangulator: str | Triangulator = "mcs_m",
) -> Triangulation:
    """Return the best triangulation found within a bounded search.

    Runs the prioritized enumeration for up to ``max_results`` answers
    (``None`` for exhaustive — exact optimum, exponential time) and
    returns the cost-minimal one.
    """
    cost_fn = _resolve_cost(cost)
    best: Triangulation | None = None
    best_key: object = None
    for index, candidate in enumerate(
        enumerate_minimal_triangulations_prioritized(
            graph, cost=cost_fn, triangulator=triangulator
        )
    ):
        key = cost_fn(candidate)
        if best is None or key < best_key:  # type: ignore[operator]
            best, best_key = candidate, key
        if max_results is not None and index + 1 >= max_results:
            break
    assert best is not None
    return best
