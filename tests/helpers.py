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

import pytest

from repro.chordal.chordal_separators import minimal_separators_of_chordal
from repro.chordal.triangulate import get_triangulator, mcs_m
from repro.core.triangulation import Triangulation
from repro.graph._native import native
from repro.graph.bitset_np import pack_masks, word_count
from repro.graph.components import components_without, connected_components
from repro.graph.core import IndexedGraph, iter_bits
from repro.graph.generators import gnp_random_graph, random_chordal_graph
from repro.graph.graph import Graph, edge_key, sort_edges
from repro.sgr.enum_mis import enumerate_maximal_independent_sets
from repro.sgr.separator_graph import MinimalSeparatorSGR

#: Skips a test only when the compiled kernel tier cannot be built or
#: loaded here.
requires_native = pytest.mark.skipif(
    not native.available(), reason="native extension not buildable here"
)

#: The packed graph-core tiers as pytest parameters.  ``native`` must
#: skip rather than run when the extension is missing: a graph
#: converted to it would silently get the numpy core instead.
PACKED_TIERS = ("numpy", pytest.param("native", marks=requires_native))


def small_random_graphs(count: int, max_nodes: int = 8, seed: int = 99) -> list[Graph]:
    """A deterministic corpus of small random graphs for oracle tests."""
    rng = random.Random(seed)
    graphs = []
    for index in range(count):
        n = rng.randint(3, max_nodes)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        graphs.append(gnp_random_graph(n, p, seed=seed * 1000 + index))
    return graphs


#: Mixed-type labels: ``edge_key`` compares 1 < 3.5 natively, while the
#: label ranks fall back to sorting by (type name, repr).
MIXED_LABELS = [1, 1.5, 2, 2.5, 3, 3.5, 4, "a", "b"]


def mixed_label_corpus():
    """Gnp(9, 0.35, seed s) for s = 0–299, relabelled with MIXED_LABELS."""
    corpus = []
    for seed in range(300):
        graph = gnp_random_graph(9, 0.35, seed=seed)
        corpus.append(graph.relabeled(dict(zip(graph.nodes(), MIXED_LABELS))))
    return corpus


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


def checked_saturate(core, mask: int) -> list[tuple[int, int]]:
    """Run ``core.saturate(mask)`` under its contract; return the added pairs.

    The pairs are read with ``missing_pairs`` before the call.  Checks
    that the returned count is their number, that ``num_edges`` and the
    rows equal an int core that added them one edge at a time, that the
    rows stay symmetric, and that a live packed mirror equals the rows.
    """
    pairs = core.missing_pairs(mask)
    oracle = IndexedGraph.copy(core)
    for u, v in pairs:
        assert oracle.add_edge(u, v)
    assert core.saturate(mask) == len(pairs)
    adj = core.adj
    assert adj == oracle.adj
    assert core.num_edges == oracle.num_edges
    assert all(
        adj[v] >> u & 1 for u in iter_bits(core.alive) for v in iter_bits(adj[u])
    )
    mirror = getattr(core, "_packed", None)
    if mirror is not None:
        assert mirror.tobytes() == pack_masks(adj, word_count(len(adj))).tobytes()
    return pairs


class ReferenceBuckets:
    """A bucket-list MCS selection queue: an oracle for ``MaxWeightBuckets``.

    ``buckets[w]`` is the mask of queued vertices of weight ``w``; a
    bump moves each member up one bucket, and a pop scans the highest
    non-empty bucket for its smallest label rank.  Only queued vertices
    may be bumped.
    """

    def __init__(self, initial_mask: int, ranks: list[int]) -> None:
        self.buckets = [initial_mask]
        self.weights = [0] * len(ranks)
        self._ranks = ranks

    def pop_max(self) -> int:
        w = len(self.buckets) - 1
        while not self.buckets[w]:
            w -= 1
        best = min(iter_bits(self.buckets[w]), key=self._ranks.__getitem__)
        self.buckets[w] &= ~(1 << best)
        return best

    def bump_mask(self, mask: int) -> None:
        for i in iter_bits(mask):
            w = self.weights[i]
            self.buckets[w] &= ~(1 << i)
            self.weights[i] = w + 1
            if w + 1 == len(self.buckets):
                self.buckets.append(0)
            self.buckets[w + 1] |= 1 << i

    def levels(self, avail: int) -> list[int]:
        return [level & avail for level in self.buckets if level & avail]


def reference_lb_triang(graph: Graph, heuristic: str = "min_fill") -> list:
    """LB-Triang with a scan pick: an oracle for ``lb_triang``'s heap.

    Each step scans every unprocessed vertex for the lexicographic
    minimum of (score, label rank), first strict improvement wins.
    Min-fill scores are cached and dropped for the endpoints of every
    added edge and their common neighbours.  The saturation loop is
    the one of ``lb_triang``.
    """
    filled = graph.copy()
    core = filled.core
    adj = core.adj
    remaining = core.alive
    label_of = filled.label_of
    ranks = filled.ranks()
    deficiency: dict[int, int] = {}
    fill = []
    while remaining:
        v = -1
        best_score = -1
        best_rank = -1
        for i in iter_bits(remaining):
            if heuristic == "natural":
                score = 0
            elif heuristic == "min_degree":
                score = adj[i].bit_count()
            else:
                score = deficiency.get(i)
                if score is None:
                    score = core.missing_pair_count(adj[i])
                    deficiency[i] = score
            rank = ranks[i]
            if v < 0 or score < best_score or (
                score == best_score and rank < best_rank
            ):
                v, best_score, best_rank = i, score, rank
        remaining &= ~(1 << v)
        closed = adj[v] | 1 << v
        added = []
        for component in core.components(closed):
            separator = core.neighborhood_of_set(component)
            added.extend(checked_saturate(core, separator))
        for a, b in added:
            fill.append(edge_key(label_of(a), label_of(b)))
        if heuristic == "min_fill":
            for a, b in added:
                deficiency.pop(a, None)
                deficiency.pop(b, None)
                for common in iter_bits(adj[a] & adj[b]):
                    deficiency.pop(common, None)
    return sort_edges(fill)


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


def reference_batch(
    n: int, seed: int = 99
) -> tuple[list[tuple[int, ...]], int]:
    """A representative pop batch over an n-vertex graph: ``(families,
    words)``.

    The shape mirrors what the coordinator dispatches: 16 candidate
    families of 20 separators drawn from a shared pool of 60 (the
    families of one region overlap heavily — they are pairwise-parallel
    families of the same graph).
    """
    rng = random.Random(seed)
    words = (n + 63) // 64
    pool = [rng.getrandbits(n) | 1 << rng.randrange(n) for __ in range(60)]
    families = [tuple(rng.sample(pool, 20)) for __ in range(16)]
    return families, words


def legacy_batch(
    region_mask: int, families: list[tuple[int, ...]], words: int
) -> tuple[int, list[tuple[int, ...]]]:
    """The pre-packed-wire batch structure, sized as it really pickled.

    Every family member is rebuilt as a *fresh* int object — pickle
    dedups by object identity only, and a coordinator decoding each
    answer's masks separately never shares a pickle memo entry between
    equal masks of different families.
    """
    return (
        region_mask,
        [
            tuple(
                int.from_bytes(m.to_bytes(words * 8, "little"), "little")
                for m in family
            )
            for family in families
        ],
    )
