"""Importable test helpers (graph corpora and comparison utilities).

Kept outside ``conftest.py`` on purpose: test modules import these by
name (``from helpers import …``), and importing from a ``conftest``
module is fragile — when several rootdir trees each carry a
``conftest.py`` (tests/, benchmarks/), whichever is imported first
wins the module name and shadows the other's helpers.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

from repro.chordal.chordal_separators import minimal_separators_of_chordal
from repro.chordal.triangulate import get_triangulator, mcs_m
from repro.core.triangulation import Triangulation
from repro.graph.components import components_without, connected_components
from repro.graph.generators import gnp_random_graph, random_chordal_graph
from repro.graph.graph import Graph
from repro.sgr.enum_mis import enumerate_maximal_independent_sets
from repro.sgr.separator_graph import MinimalSeparatorSGR


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


def reference_fair_product(iterators: list) -> Iterator[tuple]:
    """Lazily enumerate the cartesian product of independent generators.

    An oracle for the order of ``repro.engine.sharded._product_stream``.
    Every tuple is produced once, attributed to its latest-arriving
    coordinate: one element is pulled from each generator for the first
    tuple; then, round-robin, when generator i yields a new element x,
    all tuples combining x with the cached elements of the other
    generators are emitted.  Every generator must yield at least one
    element.
    """
    caches: list[list] = [[] for __ in iterators]
    active = list(range(len(iterators)))
    for i, iterator in enumerate(iterators):
        caches[i].append(next(iterator))
    yield tuple(cache[0] for cache in caches)
    while active:
        for i in list(active):
            try:
                new_element = next(iterators[i])
            except StopIteration:
                active.remove(i)
                continue
            other_caches = [cache for j, cache in enumerate(caches) if j != i]
            for rest in itertools.product(*other_caches):
                combo = list(rest)
                combo.insert(i, new_element)
                yield tuple(combo)
            caches[i].append(new_element)


def reference_ranked(
    graph: Graph, cost="width", triangulator: str = "mcs_m"
) -> Iterator[Triangulation]:
    """Best-first enumeration with label-level saturation (connected graphs).

    An oracle for the answer order of ranked engine jobs: EnumMIS over
    the separator-graph SGR in ``"UP"`` mode, with a priority that
    builds the triangulation of each generated family (saturating the
    label set of each separator mask) and scores it, and a second build
    of each family at yield time.
    """
    named = {
        "width": lambda t: (t.width, t.fill),
        "fill": lambda t: (t.fill, t.width),
    }
    cost_fn = named[cost] if isinstance(cost, str) else cost
    sgr = MinimalSeparatorSGR(graph, get_triangulator(triangulator))

    def materialise(family) -> Triangulation:
        saturated = graph.copy()
        fill = []
        for mask in family:
            fill.extend(saturated.saturate(graph.label_set(mask)))
        return Triangulation(graph, tuple(fill))

    for family in enumerate_maximal_independent_sets(
        sgr, mode="UP", priority=lambda family: cost_fn(materialise(family))
    ):
        yield materialise(family)
