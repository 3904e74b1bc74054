"""Triangulation algorithms (system S10): the pluggable ``Triangulate`` box.

The paper's ``Extend`` procedure (Figure 3) accepts *any* polynomial
time triangulation heuristic.  This module implements the two
algorithms used in the paper's experiments plus the classic
elimination-game baselines:

* :func:`mcs_m` — **MCS-M** (Berry–Blair–Heggernes 2002): Maximum
  Cardinality Search extended with a weighted-path rule; produces a
  *minimal* triangulation together with its minimal elimination
  ordering.
* :func:`lb_triang` — **LB-Triang** (Berry–Bordat–Heggernes–Simonet–
  Villanger 2006): processes vertices in an arbitrary (possibly
  dynamically chosen) order, making each vertex *LB-simplicial* by
  saturating the neighbourhoods of the components of ``H \\ N_H[v]``;
  produces a *minimal* triangulation for every ordering.
* :func:`elimination_game_triangulation` — the textbook elimination
  game with *min-fill*, *min-degree* or *natural* orderings; **not**
  guaranteed minimal, which exercises the ``MinTriSandwich`` path of
  ``Extend``.

All functions leave the input graph untouched and return the fill as a
sorted list of canonical edges; :class:`Triangulator` packages a
heuristic with its minimality guarantee and the clique forest of a
minimal triangulation for use by :mod:`repro.core.extend`.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.chordal.cliques import (
    MaskForest,
    clique_forest_masks,
    search_clique_forest,
)
from repro.chordal.peo import elimination_fill_in
from repro.chordal.sandwich import minimal_triangulation_sandwich
from repro.graph.core import IndexedGraph, iter_bits
from repro.graph.graph import Graph, Node, edge_key, sort_edges

__all__ = [
    "mcs_m",
    "mcs_m_forest",
    "lb_triang",
    "min_fill_order",
    "min_degree_order",
    "elimination_game_triangulation",
    "Triangulator",
    "get_triangulator",
    "available_triangulators",
    "register_triangulator",
    "minimal_triangulation_via",
]


# ----------------------------------------------------------------------
# MCS-M
# ----------------------------------------------------------------------


def mcs_m(graph: Graph, first: Node | None = None) -> tuple[list[tuple[Node, Node]], list[Node]]:
    """Run MCS-M; return ``(fill_edges, minimal_elimination_ordering)``.

    MCS-M numbers vertices from n down to 1.  At each step it picks an
    unnumbered vertex ``v`` of maximum weight and finds the set S of
    unnumbered vertices ``u`` reachable from ``v`` through unnumbered
    paths whose *internal* vertices all have weight strictly smaller
    than ``w(u)``; every such ``u`` gains weight 1, and ``{u, v}``
    becomes a fill edge if not already an edge.  ``graph + fill`` is a
    minimal triangulation and the returned ordering (eliminated-first
    first) is a minimal elimination ordering of it.

    This is a label-level view of the one MCS-M loop,
    :func:`~repro.chordal.cliques.search_clique_forest`, which also
    builds the triangulation's clique forest (:func:`mcs_m_forest`).
    Every kernel tier runs the same bit-sliced selection queue
    (:class:`~repro.graph.core.MaxWeightBuckets`), so every tier gives
    the same output.

    Parameters
    ----------
    first:
        Optional vertex forced to receive the highest number (be chosen
        first); varying it diversifies the produced triangulation.
    """
    if first is not None and first not in graph:
        raise KeyError(first)
    fill_masks, order, *__ = search_clique_forest(
        graph,
        _mcs_m_update_mask,
        None if first is None else graph.index_of(first),
    )
    labels = graph.interner.labels_dense
    fill = [
        edge_key(labels[u], labels[v])
        for v, mask in enumerate(fill_masks)
        for u in iter_bits(mask)
    ]
    return sort_edges(fill), [labels[v] for v in reversed(order)]


def mcs_m_forest(graph: Graph) -> MaskForest:
    """The mask clique forest of the MCS-M triangulation h of ``graph``.

    Built during the MCS-M run itself (MCS-M+, Berry, Pogorelcnik &
    Simonet, Algorithms 3(2), 2010): h is never materialised and never
    scanned a second time.  A violated forest invariant raises
    :class:`~repro.errors.NotChordalError`.
    """
    __, __, cliques, parent, separators, __ = search_clique_forest(
        graph, _mcs_m_update_mask
    )
    return cliques, parent, separators


def _mcs_m_update_mask(core, queue, unnumbered: int, v: int) -> int:
    """Return the MCS-M update set S for vertex ``v`` as a bitmask.

    ``u ∈ S`` iff there is a path from v to u through unnumbered
    vertices whose internal vertices all have weight < w(u) — i.e.
    ``key(u) < w(u)`` where ``key(u)`` is the minimum over paths of the
    maximum internal weight (−1 when a direct edge exists).

    Because MCS-M weights are small integers, the minimax Dijkstra
    collapses into a *threshold sweep* over the queue's weight levels
    (``queue.levels``, split off the queue's bit-sliced weight planes in
    O(levels · log w) mask operations): for ascending thresholds t, grow
    the set reachable through internal vertices of weight ≤ t by
    whole-mask frontier expansion.  A vertex first reached at threshold
    t has ``key = t`` and qualifies iff ``w > t``; direct neighbours
    (key −1) always qualify.  Each sweep round costs a few wide integer
    operations, so the whole update is O(levels · rounds) big-int ops
    instead of a per-edge heap traversal.  Small frontiers are unioned
    inline; wide ones go to the core, which reduces them on the packed
    matrix when it has one.
    """
    adj = core.adj
    reached = adj[v] & unnumbered
    if not reached:
        return 0
    update_set = reached  # key = −1 < w(u) for every unnumbered vertex
    unreached = unnumbered ^ reached
    if not unreached:
        return update_set

    gather_min = core.MIN_GATHER
    pending = reached  # reached, neighbourhood not yet swept
    weight_le = 0
    for level in queue.levels(unnumbered):
        weight_le |= level
        frontier = pending & weight_le
        while frontier:
            pending ^= frontier
            if gather_min is not None and frontier.bit_count() >= gather_min:
                grown = core.neighborhood_of_set(frontier)
            else:
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    grown |= adj[low.bit_length() - 1]
                    frontier ^= low
            new = grown & unreached
            if not new:
                break
            unreached ^= new
            pending |= new
            frontier = new & weight_le
            update_set |= new ^ frontier  # key = t < w(x)
        if not unreached:
            break
    return update_set


# ----------------------------------------------------------------------
# LB-Triang
# ----------------------------------------------------------------------


#: LB-Triang's dynamic pick scores (lower is picked first).
_LB_SCORES: dict[str, Callable[[IndexedGraph, int], int]] = {
    "min_fill": lambda core, v: core.missing_pair_count(core.adj[v]),
    "min_degree": lambda core, v: core.adj[v].bit_count(),
    "natural": lambda core, v: 0,
}


def lb_triang(
    graph: Graph,
    order: Sequence[Node] | None = None,
    heuristic: str = "min_fill",
) -> list[tuple[Node, Node]]:
    """Run LB-Triang; return the fill edges of a minimal triangulation.

    Vertices are processed once each, either in the explicit ``order``
    or chosen dynamically by ``heuristic``:

    * ``"min_fill"`` — next vertex minimises the number of missing
      edges in its current neighbourhood (the heuristic used in the
      paper's experiments);
    * ``"min_degree"`` — next vertex has minimum current degree;
    * ``"natural"`` — sorted node order.

    Processing v saturates ``N_H(C)`` for every connected component C
    of ``H \\ N_H[v]`` (H is the evolving filled graph), which makes v
    LB-simplicial; by Berry et al.'s confluence theorem the final H is
    a minimal triangulation for every ordering.

    This is one int-mask loop on every kernel tier; a packed core only
    speeds up the primitives it calls (component sweeps, saturation).
    The dynamic pick is the lexicographic minimum of (score, label
    rank) over the unprocessed vertices, kept in a lazy-deletion heap:
    a step re-scores only the vertices whose score it can change — the
    endpoints of the added edges and, for min-fill, their common
    neighbours — and pushes a new entry when the score moved.
    """
    filled = graph.copy()
    core = filled.core
    adj = core.adj
    remaining = core.alive
    label_of = filled.label_of
    explicit: list[int] | None = None
    if order is not None:
        order_list = list(order)
        if len(order_list) != graph.num_nodes or set(order_list) != graph.node_set():
            raise ValueError("order must be a permutation of the node set")
        explicit = [filled.index_of(node) for node in order_list]
    if explicit is None:
        if heuristic not in _LB_SCORES:
            raise ValueError(f"unknown LB-Triang heuristic {heuristic!r}")
        ranks = filled.ranks()
        score_of = _LB_SCORES[heuristic]
        scores = {v: score_of(core, v) for v in iter_bits(remaining)}
        heap = [(score, ranks[v], v) for v, score in scores.items()]
        heapq.heapify(heap)
    fill: list[tuple[Node, Node]] = []
    step = 0
    while remaining:
        if explicit is not None:
            v = explicit[step]
            step += 1
        else:
            while True:
                score, __, v = heapq.heappop(heap)
                if remaining >> v & 1 and scores[v] == score:
                    break
        remaining &= ~(1 << v)
        closed = adj[v] | 1 << v
        added_this_step: list[tuple[int, int]] = []
        for component in core.components(closed):
            separator = core.neighborhood_of_set(component)
            added_this_step.extend(core.missing_pairs(separator))
            core.saturate(separator)
        for a, b in added_this_step:
            fill.append(edge_key(label_of(a), label_of(b)))
        if explicit is None and heuristic != "natural" and added_this_step:
            touched = 0
            for a, b in added_this_step:
                touched |= 1 << a | 1 << b
                if heuristic == "min_fill":
                    touched |= adj[a] & adj[b]
            for u in iter_bits(touched & remaining):
                score = score_of(core, u)
                if score != scores[u]:
                    scores[u] = score
                    heapq.heappush(heap, (score, ranks[u], u))
    return sort_edges(fill)


# ----------------------------------------------------------------------
# Elimination-game heuristics (not necessarily minimal)
# ----------------------------------------------------------------------


def min_fill_order(graph: Graph) -> list[Node]:
    """Return a min-fill elimination ordering (greedy, recomputed each step)."""
    return _greedy_elimination_order(graph, "min_fill")


def min_degree_order(graph: Graph) -> list[Node]:
    """Return a min-degree elimination ordering (greedy)."""
    return _greedy_elimination_order(graph, "min_degree")


def _greedy_elimination_order(graph: Graph, heuristic: str) -> list[Node]:
    """Greedy elimination on a scratch core: score, saturate, remove."""
    core = graph.core.copy()
    adj = core.adj
    sorted_order = graph.sorted_indices()
    label_of = graph.label_of
    order: list[Node] = []
    while core.alive:
        best = -1
        best_score = -1
        for i in sorted_order:
            if not core.alive >> i & 1:
                continue
            if heuristic == "min_degree":
                score = adj[i].bit_count()
            else:
                score = core.missing_pair_count(adj[i])
            if best < 0 or score < best_score:
                best, best_score = i, score
        order.append(label_of(best))
        core.saturate(adj[best])
        core.remove_vertex(best)
    return order


def elimination_game_triangulation(
    graph: Graph, ordering: str | Sequence[Node] = "min_fill"
) -> list[tuple[Node, Node]]:
    """Triangulate via the elimination game; return the fill edges.

    ``ordering`` may be ``"min_fill"``, ``"min_degree"``, ``"natural"``
    or an explicit node sequence.  The result is a triangulation but is
    **not** guaranteed minimal — callers that need minimality must pass
    it through :func:`repro.chordal.sandwich.minimal_triangulation_sandwich`.
    """
    if isinstance(ordering, str):
        if ordering == "min_fill":
            order = min_fill_order(graph)
        elif ordering == "min_degree":
            order = min_degree_order(graph)
        elif ordering == "natural":
            order = graph.nodes()
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
    else:
        order = list(ordering)
    return elimination_fill_in(graph, order)


# ----------------------------------------------------------------------
# Triangulator registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Triangulator:
    """A named triangulation heuristic with its minimality guarantee.

    ``fill`` maps a graph to the list of fill edges of a triangulation
    of it; ``guarantees_minimal`` tells ``Extend`` whether the sandwich
    step can be skipped (it is skipped for MCS-M and LB-Triang, exactly
    as in the paper's experiments).

    Every heuristic also yields the mask clique forest of a *minimal*
    triangulation of its input (:meth:`clique_forest`), which is what
    ``Extend`` consumes.  A heuristic that builds the forest during its
    own run passes it as ``forest`` (MCS-M does); every other one gets
    the default: its fill, the sandwich step when it is not minimal,
    then a clique-forest scan of the result.
    """

    name: str
    fill: Callable[[Graph], list[tuple[Node, Node]]]
    guarantees_minimal: bool
    forest: Callable[[Graph], MaskForest] | None = None

    def triangulate(self, graph: Graph) -> tuple[Graph, list[tuple[Node, Node]]]:
        """Return ``(filled graph, fill edges)`` for ``graph``."""
        fill_edges = self.fill(graph)
        filled = graph.copy()
        filled.add_edges(fill_edges)
        return filled, fill_edges

    def clique_forest(self, graph: Graph) -> MaskForest:
        """The mask clique forest of a minimal triangulation of ``graph``."""
        if self.forest is not None:
            return self.forest(graph)
        cliques, parent, separators, __ = clique_forest_masks(
            minimal_triangulation_via(graph, self)
        )
        return cliques, parent, separators


def minimal_triangulation_via(
    graph: Graph, triangulator: str | Triangulator
) -> Graph:
    """Return a minimal triangulation of ``graph`` using ``triangulator``.

    Runs the heuristic and, when it does not guarantee minimality,
    applies the sandwich step.  This is steps 1–2 of ``Extend`` for
    φ = ∅, as a label-level graph.
    """
    method = get_triangulator(triangulator)
    filled, __ = method.triangulate(graph)
    if not method.guarantees_minimal:
        filled, __ = minimal_triangulation_sandwich(graph, filled)
    return filled


_REGISTRY: dict[str, Triangulator] = {}


def register_triangulator(triangulator: Triangulator) -> None:
    """Register a custom heuristic under ``triangulator.name``."""
    _REGISTRY[triangulator.name] = triangulator


def get_triangulator(name: str | Triangulator) -> Triangulator:
    """Resolve ``name`` to a :class:`Triangulator` (identity on instances)."""
    if isinstance(name, Triangulator):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown triangulator {name!r} (known: {known})") from None


def available_triangulators() -> list[str]:
    """Return the names of all registered heuristics."""
    return sorted(_REGISTRY)


register_triangulator(
    Triangulator("mcs_m", lambda g: mcs_m(g)[0], True, forest=mcs_m_forest)
)
register_triangulator(
    Triangulator("lb_triang", lambda g: lb_triang(g), guarantees_minimal=True)
)
register_triangulator(
    Triangulator(
        "lb_triang_min_degree",
        lambda g: lb_triang(g, heuristic="min_degree"),
        guarantees_minimal=True,
    )
)
register_triangulator(
    Triangulator(
        "min_fill",
        lambda g: elimination_game_triangulation(g, "min_fill"),
        guarantees_minimal=False,
    )
)
register_triangulator(
    Triangulator(
        "min_degree",
        lambda g: elimination_game_triangulation(g, "min_degree"),
        guarantees_minimal=False,
    )
)
register_triangulator(
    Triangulator(
        "natural",
        lambda g: elimination_game_triangulation(g, "natural"),
        guarantees_minimal=False,
    )
)
register_triangulator(
    Triangulator(
        "complete",
        lambda g: g.missing_edges(),
        guarantees_minimal=False,
    )
)


def _lex_m_fill(graph: Graph) -> list[tuple[Node, Node]]:
    from repro.chordal.lexm import lex_m

    return lex_m(graph)[0]


register_triangulator(
    Triangulator("lex_m", _lex_m_fill, guarantees_minimal=True)
)
