"""Exhaustive baselines and test oracles (system S23).

Everything here is exponential and guarded by explicit size limits; the
point is *independence* from the library's clever algorithms, so that
the test-suite can compare the incremental-polynomial-time enumerators
against implementations whose correctness is obvious:

* :func:`brute_force_minimal_separators` — try every vertex subset
  against the two-full-components definition;
* :func:`brute_force_minimal_triangulations` — try subsets of
  non-edges by ascending size, keep the chordal fillings, skip
  supersets of kept ones;
* :func:`brute_force_maximal_independent_sets` /
  :func:`brute_force_maximal_cliques` — Bron–Kerbosch with pivoting;
* :func:`brute_force_maximal_parallel_families` — maximal independent
  sets of the explicitly materialised separator graph.
"""

from __future__ import annotations

import itertools

from repro.chordal.minimal_separators import are_crossing
from repro.chordal.peo import is_chordal
from repro.errors import EnumerationBudgetExceeded
from repro.graph.components import full_components
from repro.graph.graph import Graph, Node

__all__ = [
    "brute_force_minimal_separators",
    "brute_force_minimal_triangulations",
    "brute_force_maximal_cliques",
    "brute_force_maximal_independent_sets",
    "brute_force_maximal_parallel_families",
]

_MAX_NODES_SEPARATORS = 16
_MAX_NON_EDGES = 22


def brute_force_minimal_separators(
    graph: Graph, max_nodes: int = _MAX_NODES_SEPARATORS
) -> set[frozenset[Node]]:
    """Return ``MinSep(graph)`` by testing every vertex subset.

    A subset S is a minimal separator iff ``g \\ S`` has at least two
    full components.  O(2^n · (n + m)); refuses graphs above
    ``max_nodes`` nodes.
    """
    nodes = graph.nodes()
    if len(nodes) > max_nodes:
        raise EnumerationBudgetExceeded(
            f"{len(nodes)} nodes exceeds the brute-force limit of {max_nodes}"
        )
    separators: set[frozenset[Node]] = set()
    for size in range(len(nodes)):
        for subset in itertools.combinations(nodes, size):
            if len(full_components(graph, subset)) >= 2:
                separators.add(frozenset(subset))
    return separators


def brute_force_minimal_triangulations(
    graph: Graph, max_non_edges: int = _MAX_NON_EDGES
) -> set[frozenset[frozenset[Node]]]:
    """Return ``MinTri(graph)`` as a set of fill-edge sets.

    Subsets of the non-edges are tried in ascending size and the
    chordal fillings are kept.  A subset that contains an earlier kept
    filling cannot be minimal, so it is skipped untested; every
    chordal filling that is not skipped is then inclusion-minimal,
    because each of its chordal proper subsets, being smaller, was
    tried first.  Each result is a frozenset of 2-element frozensets
    (the fill edges).  O(2^non_edges); refuses graphs with more than
    ``max_non_edges`` missing edges.
    """
    non_edges = graph.missing_edges()
    if len(non_edges) > max_non_edges:
        raise EnumerationBudgetExceeded(
            f"{len(non_edges)} non-edges exceeds the brute-force limit "
            f"of {max_non_edges}"
        )
    found: list[int] = []  # kept fillings as bitmasks over non_edges
    minimal: set[frozenset[frozenset[Node]]] = set()
    for size in range(len(non_edges) + 1):
        for chosen in itertools.combinations(range(len(non_edges)), size):
            mask = sum(1 << i for i in chosen)
            if any(kept & mask == kept for kept in found):
                continue
            fill = [non_edges[i] for i in chosen]
            filled = graph.copy()
            filled.add_edges(fill)
            if is_chordal(filled):
                found.append(mask)
                minimal.add(frozenset(frozenset(edge) for edge in fill))
    return minimal


def brute_force_maximal_cliques(graph: Graph) -> set[frozenset[Node]]:
    """Return all maximal cliques via Bron–Kerbosch with pivoting.

    Works for arbitrary graphs (not only chordal); exponential in the
    worst case but fine for the test sizes.
    """
    cliques: set[frozenset[Node]] = set()
    if graph.num_nodes == 0:
        # The empty set is the unique maximal clique of the empty graph.
        return {frozenset()}

    adjacency = {node: graph.adjacency(node) for node in graph.node_set()}

    def expand(current: set[Node], candidates: set[Node], excluded: set[Node]) -> None:
        if not candidates and not excluded:
            cliques.add(frozenset(current))
            return
        pivot = max(
            candidates | excluded,
            key=lambda u: len(adjacency[u] & candidates),
        )
        for node in list(candidates - adjacency[pivot]):
            expand(
                current | {node},
                candidates & adjacency[node],
                excluded & adjacency[node],
            )
            candidates.discard(node)
            excluded.add(node)

    expand(set(), set(graph.node_set()), set())
    return cliques


def brute_force_maximal_independent_sets(graph: Graph) -> set[frozenset[Node]]:
    """Return all maximal independent sets (cliques of the complement)."""
    return brute_force_maximal_cliques(graph.complement())


def brute_force_maximal_parallel_families(
    graph: Graph, max_nodes: int = _MAX_NODES_SEPARATORS
) -> set[frozenset[frozenset[Node]]]:
    """Return all maximal pairwise-parallel families of minimal separators.

    Materialises the separator graph explicitly (nodes = brute-force
    ``MinSep``, edges = crossing pairs) and runs Bron–Kerbosch on its
    complement.  By Parra–Scheffler these families are in bijection
    with ``MinTri(graph)``, so this doubles as a second independent
    triangulation-count oracle.
    """
    separators = sorted(
        brute_force_minimal_separators(graph, max_nodes=max_nodes),
        key=lambda s: (len(s), sorted(map(repr, s))),
    )
    index = {separator: i for i, separator in enumerate(separators)}
    separator_graph = Graph(nodes=range(len(separators)))
    for s, t in itertools.combinations(separators, 2):
        if are_crossing(graph, s, t):
            separator_graph.add_edge(index[s], index[t])
    families = brute_force_maximal_independent_sets(separator_graph)
    return {
        frozenset(separators[i] for i in family) for family in families
    }
