"""Importable test helpers (graph corpora and comparison utilities).

Kept outside ``conftest.py`` on purpose: test modules import these by
name (``from helpers import …``), and importing from a ``conftest``
module is fragile — when several rootdir trees each carry a
``conftest.py`` (tests/, benchmarks/), whichever is imported first
wins the module name and shadows the other's helpers.
"""

from __future__ import annotations

import random

from repro.chordal.chordal_separators import minimal_separators_of_chordal
from repro.chordal.triangulate import mcs_m
from repro.graph.components import components_without, connected_components
from repro.graph.generators import gnp_random_graph, random_chordal_graph
from repro.graph.graph import Graph


def small_random_graphs(count: int, max_nodes: int = 8, seed: int = 99) -> list[Graph]:
    """A deterministic corpus of small random graphs for oracle tests."""
    rng = random.Random(seed)
    graphs = []
    for index in range(count):
        n = rng.randint(3, max_nodes)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        graphs.append(gnp_random_graph(n, p, seed=seed * 1000 + index))
    return graphs


def small_chordal_graphs(count: int, max_nodes: int = 12, seed: int = 7) -> list[Graph]:
    """A deterministic corpus of small chordal graphs."""
    rng = random.Random(seed)
    graphs = []
    for index in range(count):
        n = rng.randint(2, max_nodes)
        density = rng.choice([0.2, 0.4, 0.7, 1.0])
        graphs.append(random_chordal_graph(n, density, seed=seed * 131 + index))
    return graphs


def edge_set(graph: Graph) -> set[frozenset]:
    """Edges as a set of frozensets (order-free comparison helper)."""
    return set(graph.edge_set())


def reference_atoms(graph: Graph) -> list[frozenset]:
    """Atoms by recursive splitting: an oracle for ``repro.chordal.atoms``.

    Splits each connected component on its smallest clique minimal
    separator and re-triangulates every piece until none is left (the
    atom set does not depend on the splitting order).  One MCS-M pass
    per piece, so it is slow; the result is sorted like ``atoms()``.
    """

    def key(node):
        return (type(node).__name__, repr(node))

    result = []
    stack = [frozenset(component) for component in connected_components(graph)]
    while stack:
        region = stack.pop()
        subgraph = graph.subgraph(region)
        fill, __ = mcs_m(subgraph)
        triangulated = subgraph.copy()
        triangulated.add_edges(fill)
        separators = [
            separator
            for separator in minimal_separators_of_chordal(triangulated)
            if separator and subgraph.is_clique(separator)
        ]
        if not separators:
            result.append(region)
            continue
        separator = min(
            separators, key=lambda s: (len(s), sorted(map(key, s)))
        )
        for component in components_without(subgraph, separator):
            stack.append(frozenset(component | separator))
    result.sort(key=lambda atom: sorted(map(key, atom)))
    return result
