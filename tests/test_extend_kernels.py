"""Property tests: packed Extend kernels vs their int-mask oracles.

Every vectorized kernel introduced for the Extend pipeline (PR 4) must
produce bit-identical results to the int-mask reference implementation
it replaces, on the same random corpus the rest of the suite uses.
The int-mask paths run on plain :class:`~repro.graph.core.IndexedGraph`
cores; converting a graph to a packed backend (``numpy`` or the
compiled ``native`` tier) switches every dispatch point at once, so
comparing whole-algorithm outputs across backends pins all kernels of
that tier together, and the unit tests underneath pin each numpy
kernel in isolation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from helpers import (
    PACKED_TIERS,
    ReferenceBuckets,
    checked_saturate,
    mixed_label_corpus,
    reference_lb_triang,
    requires_native,
    small_chordal_graphs,
    small_random_graphs,
)
from repro.chordal.chordal_separators import (
    chordal_separator_masks,
    minimal_separators_of_chordal,
)
from repro.chordal.cliques import clique_forest_masks, mcs_clique_forest
from repro.chordal.peo import (
    is_perfect_elimination_ordering,
    maximum_cardinality_search,
    peo_or_none,
)
from repro.chordal.triangulate import (
    available_triangulators,
    get_triangulator,
    lb_triang,
    mcs_m,
    min_degree_order,
    min_fill_order,
    minimal_triangulation_via,
)
from repro.core.extend import extend_parallel_set, extend_separator_masks
from repro.graph import resolve_graph_backend
from repro.graph.bitset_np import (
    NumpyGraphCore,
    frontier_sweep,
    mask_to_indices,
    pack_masks,
    set_edge_bits,
    union_rows,
    word_count,
)
from repro.graph.core import IndexedGraph, MaxWeightBuckets, bit_list
from repro.graph.generators import (
    cycle_graph,
    gnp_random_graph,
    random_chordal_graph,
)


def near_chordal_graph(n: int, seed: int):
    """A random chordal graph with 1% of its edges deleted.

    The shape of the graphs Extend sees inside EnumMIS: ``g[φ]`` is
    close to triangulated once a few separators are saturated.
    """
    graph = random_chordal_graph(n, 0.05, seed=seed)
    edges = graph.edges()
    rng = random.Random(seed)
    for u, v in rng.sample(edges, max(1, len(edges) // 100)):
        graph.remove_edge(u, v)
    return graph


CORPUS = small_random_graphs(10, max_nodes=12, seed=17) + [
    gnp_random_graph(40, 0.15, seed=3),
    gnp_random_graph(72, 0.07, seed=4),
    cycle_graph(50),
    gnp_random_graph(48, 0.15, seed=21),
    gnp_random_graph(96, 0.06, seed=22),
    cycle_graph(64),
    near_chordal_graph(128, seed=23),
]


def disconnected_corpus():
    """Two random graphs side by side, plus 0–2 isolated vertices."""
    corpus = []
    pairs = zip(
        small_random_graphs(12, max_nodes=9, seed=41),
        small_random_graphs(12, max_nodes=9, seed=43),
    )
    for index, (a, b) in enumerate(pairs):
        graph = a.copy()
        graph.add_nodes(("b", node) for node in b.nodes())
        for u, v in b.edges():
            graph.add_edge(("b", u), ("b", v))
        graph.add_nodes(("isolated", k) for k in range(index % 3))
        corpus.append(graph)
    return corpus


def forest_corpus(name):
    """The inputs of the clique-forest oracles for triangulator ``name``.

    The kernel corpus, a disconnected corpus (forests with several
    roots) and part of the mixed-label corpus.  The sandwich step of
    the heuristics that are not minimal is quadratic in their fill, so
    those get the graphs of at most 32 vertices.
    """
    corpus = CORPUS + disconnected_corpus() + mixed_label_corpus()[:60]
    if get_triangulator(name).guarantees_minimal:
        return corpus
    return [graph for graph in corpus if graph.num_nodes <= 32]


class PackedTier:
    """Pairs each graph's int-mask core with one packed tier.

    The classes below run on ``numpy``; their ``Native`` subclasses at
    the end of the module rerun every test on the compiled tier.
    """

    tier = "numpy"

    def both_backends(self, graph):
        return (
            resolve_graph_backend(graph, "indexed"),
            resolve_graph_backend(graph, self.tier),
        )


class TestTriangulatorEquivalence(PackedTier):
    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_mcs_m_fill_and_order_match(self, index):
        indexed, packed = self.both_backends(CORPUS[index])
        assert mcs_m(indexed) == mcs_m(packed)

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_mcs_m_with_start_vertex_matches(self, index):
        graph = CORPUS[index]
        indexed, packed = self.both_backends(graph)
        for first in graph.nodes()[:: max(1, graph.num_nodes // 3)]:
            assert mcs_m(indexed, first=first) == mcs_m(packed, first=first)

    def test_mcs_m_hands_wide_frontiers_to_the_core(self, monkeypatch):
        # The corpus graphs are too small for sweep frontiers of
        # MIN_GATHER vertices; this one has them, and a row dropped
        # from their union changes its fill.
        indexed, packed = self.both_backends(gnp_random_graph(200, 0.05, seed=1))
        core_class = type(packed.core)
        gather = core_class.neighborhood_of_set
        widths = []

        def spy(core, mask):
            widths.append(mask.bit_count())
            return gather(core, mask)

        monkeypatch.setattr(core_class, "neighborhood_of_set", spy)
        assert mcs_m(indexed) == mcs_m(packed)
        assert widths and min(widths) >= core_class.MIN_GATHER

    def test_mcs_m_with_mixed_labels_matches(self):
        # Fill edges are oriented by edge_key on every tier, not by the
        # label ranks (which disagree with it on mixed label types).
        for graph in mixed_label_corpus():
            indexed, packed = self.both_backends(graph)
            assert mcs_m(indexed) == mcs_m(packed)

    @pytest.mark.parametrize(
        "heuristic", ["min_fill", "min_degree", "natural"]
    )
    def test_lb_triang_heuristics_match(self, heuristic):
        for graph in CORPUS:
            indexed, packed = self.both_backends(graph)
            assert lb_triang(indexed, heuristic=heuristic) == lb_triang(
                packed, heuristic=heuristic
            )

    def test_lb_triang_explicit_order_matches(self):
        rng = random.Random(5)
        for graph in CORPUS:
            order = graph.nodes()
            rng.shuffle(order)
            indexed, packed = self.both_backends(graph)
            assert lb_triang(indexed, order=order) == lb_triang(
                packed, order=order
            )

    def test_elimination_orders_match(self):
        for graph in CORPUS:
            indexed, packed = self.both_backends(graph)
            assert min_fill_order(indexed) == min_fill_order(packed)
            assert min_degree_order(indexed) == min_degree_order(packed)


class TestLbTriangScanOracle:
    """LB-Triang's heap pick against the historical scan pick.

    Every tier runs the same heap, so tier equality cannot pin the
    pick; the oracle is the scan in :func:`helpers.reference_lb_triang`.
    """

    tiers = ("indexed", "numpy")

    @pytest.mark.parametrize(
        "heuristic", ["min_fill", "min_degree", "natural"]
    )
    def test_heap_pick_matches_scan_pick(self, heuristic):
        for graph in CORPUS + mixed_label_corpus()[:100]:
            for tier in self.tiers:
                tiered = resolve_graph_backend(graph, tier)
                assert lb_triang(
                    tiered, heuristic=heuristic
                ) == reference_lb_triang(tiered, heuristic)


class TestPeoAndForestEquivalence(PackedTier):
    def test_peo_check_matches_on_random_and_mcs_orders(self):
        rng = random.Random(11)
        for graph in CORPUS:
            indexed, packed = self.both_backends(graph)
            shuffled = graph.nodes()
            rng.shuffle(shuffled)
            mcs_order = list(reversed(maximum_cardinality_search(graph)))
            for order in (shuffled, mcs_order):
                assert is_perfect_elimination_ordering(
                    indexed, order
                ) == is_perfect_elimination_ordering(packed, order)

    def test_mcs_visit_order_matches(self):
        for graph in CORPUS + mixed_label_corpus()[:30]:
            indexed, packed = self.both_backends(graph)
            assert maximum_cardinality_search(
                indexed
            ) == maximum_cardinality_search(packed)
            for first in graph.nodes()[:: max(1, graph.num_nodes // 3)]:
                assert maximum_cardinality_search(
                    indexed, first=first
                ) == maximum_cardinality_search(packed, first=first)

    def test_peo_or_none_matches_on_chordal_corpus(self):
        for graph in small_chordal_graphs(10, max_nodes=16, seed=23):
            indexed, packed = self.both_backends(graph)
            assert peo_or_none(indexed) == peo_or_none(packed)

    def test_clique_forest_matches_on_chordal_corpus(self):
        corpus = small_chordal_graphs(10, max_nodes=16, seed=29) + [
            random_chordal_graph(90, 0.15, seed=24)
        ]
        for graph in corpus:
            indexed, packed = self.both_backends(graph)
            a, b = mcs_clique_forest(indexed), mcs_clique_forest(packed)
            assert a.cliques == b.cliques
            assert a.parent == b.parent
            assert a.separators == b.separators
            assert a.clique_of == b.clique_of

    def test_separator_extraction_matches(self):
        corpus = small_chordal_graphs(10, max_nodes=16, seed=31) + [
            random_chordal_graph(90, 0.15, seed=24)
        ]
        for graph in corpus:
            indexed, packed = self.both_backends(graph)
            assert minimal_separators_of_chordal(
                indexed
            ) == minimal_separators_of_chordal(packed)
            masks_a = chordal_separator_masks(indexed)
            masks_b = chordal_separator_masks(packed)
            assert masks_a == masks_b

    @pytest.mark.parametrize("name", available_triangulators())
    def test_triangulator_forest_matches_scan_of_h(self, name):
        # The forest a triangulator hands Extend (MCS-M: built in its
        # own run) has the cliques and separators of a clique-forest
        # scan of the label-built minimal triangulation h.
        method = get_triangulator(name)
        for graph in forest_corpus(name):
            for tiered in self.both_backends(graph):
                cliques, parent, separators = method.clique_forest(tiered)
                h = minimal_triangulation_via(tiered, name)
                h_cliques, h_parent, h_separators, __ = clique_forest_masks(h)
                assert sorted(cliques) == sorted(h_cliques)
                assert set(separators) == set(h_separators)
                assert parent.count(None) == h_parent.count(None)


class TestExtendEquivalence(PackedTier):
    def test_extend_of_empty_family_matches(self):
        for graph in CORPUS:
            indexed, packed = self.both_backends(graph)
            assert extend_parallel_set(indexed, ()) == extend_parallel_set(
                packed, ()
            )

    def test_extend_of_partial_family_matches(self):
        for graph in CORPUS[:6]:
            family = sorted(
                extend_parallel_set(graph, ()), key=sorted
            )[: max(1, graph.num_nodes // 4)]
            indexed, packed = self.both_backends(graph)
            assert extend_parallel_set(
                indexed, family
            ) == extend_parallel_set(packed, family)

    def test_extend_per_triangulator_matches(self):
        for graph in CORPUS[:6]:
            indexed, packed = self.both_backends(graph)
            for triangulator in ("mcs_m", "lb_triang", "min_fill"):
                assert extend_parallel_set(
                    indexed, (), triangulator
                ) == extend_parallel_set(packed, (), triangulator)

    @pytest.mark.parametrize("name", available_triangulators())
    def test_extend_matches_separators_of_h(self, name):
        # Extend is MinSep(h) for h the minimal triangulation of g[φ],
        # for φ empty and for part of a maximal family.
        for graph in forest_corpus(name):
            for tiered in self.both_backends(graph):
                h = minimal_triangulation_via(tiered, name)
                family = extend_separator_masks(tiered, (), name)
                assert family == chordal_separator_masks(h)
                part = sorted(family)[: max(1, len(family) // 3)]
                saturated = tiered.saturated(map(tiered.label_set, part))
                h = minimal_triangulation_via(saturated, name)
                assert extend_separator_masks(
                    tiered, part, name
                ) == chordal_separator_masks(h)


class TestKernelUnits:
    def test_mask_index_round_trip(self):
        rng = random.Random(3)
        for words in (1, 2, 5):
            for __ in range(50):
                mask = rng.getrandbits(words * 64 - 7)
                assert mask_to_indices(mask, words).tolist() == bit_list(mask)

    def test_union_rows_matches_int_union(self):
        rng = random.Random(9)
        n = 150
        adj = [rng.getrandbits(n) for __ in range(n)]
        matrix = pack_masks(adj, word_count(n))
        for __ in range(30):
            mask = rng.getrandbits(n)
            idx = mask_to_indices(mask, word_count(n))
            expected = 0
            for i in idx:
                expected |= adj[i]
            assert union_rows(matrix, idx) == expected
        assert union_rows(matrix, np.array([], dtype=np.int64)) == 0

    def test_frontier_sweep_matches_expand_component(self):
        for graph in CORPUS:
            core = graph.core
            matrix = pack_masks(core.adj, word_count(len(core.adj)))
            for seed_bit in range(0, len(core.adj), 5):
                if not core.alive >> seed_bit & 1:
                    continue
                expected = core.component_of(seed_bit)
                got = frontier_sweep(
                    matrix, 1 << seed_bit, core.alive, adj=core.adj
                )
                assert got == expected
                # Pure-matrix path (no scalar fallback) agrees too.
                assert (
                    frontier_sweep(matrix, 1 << seed_bit, core.alive)
                    == expected
                )

    def test_saturate_batch_matches_scalar_saturate(self):
        rng = random.Random(13)
        for graph in CORPUS[:8]:
            reference = graph.core.copy()
            packed_core = NumpyGraphCore.from_indexed(graph.core)
            packed_core._matrix()
            mask = rng.getrandbits(len(graph.core.adj)) & graph.core.alive
            expected = checked_saturate(reference, mask)
            got = checked_saturate(packed_core, mask)
            assert got == expected
            assert packed_core.adj == reference.adj
            assert packed_core.num_edges == reference.num_edges
            # The packed mirror was maintained in place, not rebuilt.
            rebuilt = pack_masks(
                packed_core.adj, word_count(len(packed_core.adj))
            )
            assert (packed_core._packed == rebuilt).all()

    def test_set_edge_bits_matches_masks(self):
        n = 70
        matrix = pack_masks([0] * n, word_count(n))
        u = np.array([0, 3, 3, 69], dtype=np.int64)
        v = np.array([1, 64, 65, 2], dtype=np.int64)
        set_edge_bits(matrix, u, v)
        core = IndexedGraph(n)
        for a, b in zip(u.tolist(), v.tolist()):
            core.add_edge(a, b)
        assert (matrix == pack_masks(core.adj, word_count(n))).all()


class TestBitSlicedQueue:
    """The bit-sliced queue against the bucket-list reference."""

    @pytest.mark.parametrize("tier", ("indexed",) + PACKED_TIERS)
    def test_every_tier_runs_the_bit_sliced_queue(self, tier, monkeypatch):
        # Every MCS-family search pops from MaxWeightBuckets, whatever
        # the core: one pop per vertex, and the indexed core's output.
        graph = gnp_random_graph(200, 0.05, seed=31)
        want = (mcs_m(graph), maximum_cardinality_search(graph))
        resolved = resolve_graph_backend(graph, tier)
        pops = []
        pop_max = MaxWeightBuckets.pop_max

        def spy(queue):
            pops.append(pop_max(queue))
            return pops[-1]

        monkeypatch.setattr(MaxWeightBuckets, "pop_max", spy)
        for search, expected in zip((mcs_m, maximum_cardinality_search), want):
            pops.clear()
            assert search(resolved) == expected
            assert sorted(pops) == bit_list(resolved.core.alive)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_queue(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 9, 40, 130])
        ranks = list(range(n))
        if seed % 2:  # even seeds keep the ranks in index order
            rng.shuffle(ranks)
        queued = rng.getrandbits(n) | 1 << rng.randrange(n)
        queue = MaxWeightBuckets(queued, ranks)
        reference = ReferenceBuckets(queued, ranks)
        popped = 0

        def bump(mask):
            queue.bump_mask(mask)
            reference.bump_mask(mask)
            agree()

        def pop():
            nonlocal queued, popped
            v = queue.pop_max()
            assert v == reference.pop_max()
            queued ^= 1 << v
            popped |= 1 << v
            agree()
            return v

        def agree():
            assert queue.weights == reference.weights
            for avail in (queued, queued | popped, popped, rng.getrandbits(n)):
                assert list(queue.levels(avail)) == reference.levels(avail)

        # ``first``: one single bump picks the first vertex.
        first = rng.choice(bit_list(queued))
        bump(1 << first)
        assert pop() == first
        # One vertex bumped alone past 1, 3, 7, 15 and 31 carries
        # across every low plane; its neighbours ride along sometimes.
        if queued:
            hot = rng.choice(bit_list(queued))
            for __ in range(33):
                riders = rng.getrandbits(n) & queued if rng.random() < 0.5 else 0
                bump(1 << hot | riders)
        while queued:
            for __ in range(rng.randrange(3)):
                bump(rng.getrandbits(n) & queued)
            pop()

    def test_empty_and_popped_levels(self):
        queue = MaxWeightBuckets(0b1111, [3, 2, 1, 0])
        assert queue.levels(0) == []
        assert queue.pop_max() == 3  # all weight 0: minimum rank wins
        assert queue.levels(0b1000) == []
        assert queue.weights == [0, 0, 0, 0]


@requires_native
class TestTriangulatorEquivalenceNative(TestTriangulatorEquivalence):
    tier = "native"


@requires_native
class TestLbTriangScanOracleNative(TestLbTriangScanOracle):
    tiers = ("native",)


@requires_native
class TestPeoAndForestEquivalenceNative(TestPeoAndForestEquivalence):
    tier = "native"


@requires_native
class TestExtendEquivalenceNative(TestExtendEquivalence):
    tier = "native"
