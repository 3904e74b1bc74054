"""Chordality recognition via perfect elimination orderings (system S5).

A *perfect elimination ordering* (PEO) of a graph is an ordering
``v_1, …, v_n`` of its nodes such that for every ``v_i``, the later
neighbours ``madj(v_i) = N(v_i) ∩ {v_{i+1}, …, v_n}`` form a clique.
A graph is chordal iff it admits a PEO (Fulkerson–Gross / Rose).

This module provides:

* :func:`maximum_cardinality_search` — Tarjan–Yannakakis MCS; the
  reverse of the visit order is a PEO iff the graph is chordal;
* :func:`lex_bfs` — lexicographic BFS, an alternative linear-time
  search with the same property, used for cross-checking;
* :func:`is_perfect_elimination_ordering` — the classic linear-time
  verification (Rose–Tarjan–Lueker / Golumbic);
* :func:`is_chordal` — MCS followed by PEO verification;
* :func:`elimination_fill_in` / :func:`monotone_adjacencies` — the
  *elimination game* bookkeeping shared by the triangulation
  heuristics in :mod:`repro.chordal.triangulate`.

All algorithms run on the integer-indexed bitset core: weights and
labels live in dense lists keyed by vertex index, adjacency tests are
single-bit probes, and the clique condition of the PEO check is one
mask-subset test per vertex.  The label-sorted rank order of the façade
is used for every tie-break, so results are exactly as deterministic as
the label-based implementation they replace.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import NotChordalError
from repro.graph.core import MaxWeightBuckets, iter_bits
from repro.graph.graph import Graph, Node, edge_key

__all__ = [
    "maximum_cardinality_search",
    "lex_bfs",
    "is_perfect_elimination_ordering",
    "is_chordal",
    "peo_or_none",
    "require_chordal",
    "monotone_adjacencies",
    "elimination_fill_in",
    "width_of_peo",
]


def maximum_cardinality_search(graph: Graph, first: Node | None = None) -> list[Node]:
    """Return the MCS *visit order* (first visited node first).

    MCS repeatedly visits an unvisited node with the maximum number of
    already-visited neighbours, breaking ties by node order for
    determinism.  The **reverse** of the returned list is a perfect
    elimination ordering iff ``graph`` is chordal.

    Parameters
    ----------
    first:
        Optional start node (visited first).  Varying the start node
        yields different PEOs of the same chordal graph.
    """
    core = graph.core
    adj = core.adj
    if first is not None and first not in graph:
        raise KeyError(first)
    unvisited = core.alive
    # The bit-sliced queue of every tier breaks weight ties by label rank.
    queue = MaxWeightBuckets(unvisited, graph.ranks())
    if first is not None:
        queue.bump_mask(1 << graph.index_of(first))  # picked first
    label_of = graph.label_of
    order: list[Node] = []
    while unvisited:
        node = queue.pop_max()
        unvisited &= ~(1 << node)
        order.append(label_of(node))
        queue.bump_mask(adj[node] & unvisited)
    return order


def lex_bfs(graph: Graph) -> list[Node]:
    """Return the Lex-BFS visit order (first visited node first).

    Implemented with partition refinement over a list of buckets.  As
    with MCS, the reverse of the visit order is a PEO iff the graph is
    chordal.
    """
    core = graph.core
    if not core.alive:
        return []
    adj = core.adj
    buckets: list[list[int]] = [list(graph.sorted_indices())]
    order: list[int] = []
    while buckets:
        head = buckets[0]
        node = head.pop(0)
        if not head:
            buckets.pop(0)
        order.append(node)
        neighbours = adj[node]
        new_buckets: list[list[int]] = []
        for bucket in buckets:
            inside = [candidate for candidate in bucket if neighbours >> candidate & 1]
            outside = [
                candidate for candidate in bucket if not neighbours >> candidate & 1
            ]
            if inside:
                new_buckets.append(inside)
            if outside:
                new_buckets.append(outside)
        buckets = new_buckets
    label_of = graph.label_of
    return [label_of(i) for i in order]


def _order_indices(graph: Graph, order: Sequence[Node]) -> list[int]:
    """Translate a node ordering to indices, validating it is a permutation."""
    if len(order) != graph.num_nodes or set(order) != graph.node_set():
        raise ValueError("order must be a permutation of the node set")
    index_of = graph.index_of
    return [index_of(node) for node in order]


def is_perfect_elimination_ordering(graph: Graph, order: Sequence[Node]) -> bool:
    """Return whether ``order`` is a perfect elimination ordering.

    Uses the Rose–Tarjan–Lueker test: for each node ``v`` let ``p(v)``
    be its earliest later neighbour (its *parent*); the ordering is a
    PEO iff for every ``v``, ``madj(v) \\ {p(v)} ⊆ madj(p(v))``.  This
    avoids the quadratic all-pairs clique check.

    One int-mask loop on every kernel tier: ``madj`` rows are masks and
    the clique condition is one mask-subset test per vertex.
    """
    indices = _order_indices(graph, order)
    adj = graph.core.adj
    position = [0] * len(adj)
    for pos, index in enumerate(indices):
        position[index] = pos
    # madj as masks: later neighbours of each vertex.
    madj = [0] * len(adj)
    later = 0
    for index in reversed(indices):
        madj[index] = adj[index] & later
        later |= 1 << index
    for index in indices:
        later_mask = madj[index]
        if not later_mask:
            continue
        parent = min(iter_bits(later_mask), key=position.__getitem__)
        if (later_mask & ~(1 << parent)) & ~madj[parent]:
            return False
    return True


def is_chordal(graph: Graph) -> bool:
    """Return whether ``graph`` is chordal (no induced cycle of length > 3)."""
    return peo_or_none(graph) is not None


def peo_or_none(graph: Graph) -> list[Node] | None:
    """Return a PEO of ``graph``, or ``None`` if the graph is not chordal."""
    order = maximum_cardinality_search(graph)
    order.reverse()
    if is_perfect_elimination_ordering(graph, order):
        return order
    return None


def require_chordal(graph: Graph) -> list[Node]:
    """Return a PEO of ``graph``; raise :class:`NotChordalError` otherwise."""
    peo = peo_or_none(graph)
    if peo is None:
        raise NotChordalError(f"{graph.summary()} is not chordal")
    return peo


def monotone_adjacencies(
    graph: Graph, order: Sequence[Node]
) -> dict[Node, frozenset[Node]]:
    """Return ``madj(v)`` (later neighbours of v) for every node of ``order``."""
    indices = [graph.index_of(node) for node in order]
    adj = graph.core.adj
    label_set = graph.label_set
    result: dict[Node, frozenset[Node]] = {}
    later = 0
    madj_masks: list[int] = []
    for index in reversed(indices):
        madj_masks.append(adj[index] & later)
        later |= 1 << index
    madj_masks.reverse()
    for node, mask in zip(order, madj_masks):
        result[node] = label_set(mask)
    return result


def elimination_fill_in(
    graph: Graph, order: Sequence[Node]
) -> list[tuple[Node, Node]]:
    """Play the *elimination game* along ``order`` and return the fill.

    Nodes are eliminated in the given order; eliminating a node
    saturates its not-yet-eliminated neighbourhood.  The returned list
    holds the added (fill) edges as canonical tuples, in elimination
    order.  ``graph`` is not modified.  The filled graph
    ``graph + fill`` is always a (not necessarily minimal)
    triangulation, and ``order`` is a PEO of it.
    """
    indices = _order_indices(graph, order)
    adj = graph.core.adj
    ranks = graph.ranks()
    label_of = graph.label_of
    position = [0] * len(adj)
    for pos, index in enumerate(indices):
        position[index] = pos
    # Work adjacency restricted to later-positioned nodes, kept on the
    # earlier endpoint only and growing as fill accumulates.
    current = [0] * len(adj)
    later = 0
    for index in reversed(indices):
        current[index] = adj[index] & later
        later |= 1 << index
    fill: list[tuple[Node, Node]] = []
    for index in indices:
        higher = sorted(iter_bits(current[index]), key=ranks.__getitem__)
        for i, u in enumerate(higher):
            for v in higher[i + 1 :]:
                low, high = (u, v) if position[u] < position[v] else (v, u)
                if not current[low] >> high & 1:
                    current[low] |= 1 << high
                    fill.append(edge_key(label_of(u), label_of(v)))
    return fill


def width_of_peo(graph: Graph, peo: Sequence[Node]) -> int:
    """Return the width (max clique size − 1) of a chordal graph via a PEO.

    For a chordal graph with PEO ``peo``, every maximal clique is of the
    form ``{v} ∪ madj(v)``, so the width is ``max |madj(v)|``.
    """
    if not peo:
        return -1
    indices = _order_indices(graph, peo)
    adj = graph.core.adj
    later = 0
    width = 0
    for index in reversed(indices):
        size = (adj[index] & later).bit_count()
        if size > width:
            width = size
        later |= 1 << index
    return width
