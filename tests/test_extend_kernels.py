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
    GRAPH_BACKENDS,
    NumpyGraphCore,
    PackedMCSQueue,
    frontier_sweep,
    indices_to_mask,
    is_peo_packed,
    mask_to_indices,
    pack_masks,
    set_edge_bits,
    union_rows,
    weight_level_rows,
    word_count,
)
from repro.graph.core import IndexedGraph, MaxWeightBuckets
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
                idx = mask_to_indices(mask, words)
                assert indices_to_mask(idx, words) == mask
                assert idx.tolist() == [
                    i for i in range(words * 64) if mask >> i & 1
                ]

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
            expected = reference.saturate(mask)
            got = packed_core.saturate(mask)
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

    def test_is_peo_packed_matches_reference(self):
        rng = random.Random(19)
        for graph in CORPUS:
            core = graph.core
            matrix = pack_masks(core.adj, word_count(len(core.adj)))
            indices = list(range(len(core.adj)))
            indices = [i for i in indices if core.alive >> i & 1]
            for __ in range(4):
                rng.shuffle(indices)
                labels = [graph.label_of(i) for i in indices]
                expected = is_perfect_elimination_ordering(
                    resolve_graph_backend(graph, "indexed"), labels
                )
                assert is_peo_packed(matrix, indices) == expected

    def test_weight_level_rows_group_by_weight(self):
        rng = random.Random(23)
        n = 200
        words = word_count(n)
        indices = np.array(sorted(rng.sample(range(n), 80)), dtype=np.int64)
        weights = np.array(
            [rng.randint(0, 9) for __ in range(80)], dtype=np.int64
        )
        rows = weight_level_rows(indices, weights, words)
        distinct = sorted(set(weights.tolist()))
        assert rows.shape[0] == len(distinct)
        for row, weight in zip(rows, distinct):
            mask = int.from_bytes(row.tobytes(), "little")
            expected = 0
            for i, w in zip(indices.tolist(), weights.tolist()):
                if w == weight:
                    expected |= 1 << i
            assert mask == expected

    def test_packed_queue_pops_in_bucket_order(self):
        check_queues_agree("numpy")

    @requires_native
    def test_native_queue_pops_in_bucket_order(self):
        check_queues_agree("native")

    @pytest.mark.parametrize("tier", ("indexed",) + PACKED_TIERS)
    def test_selection_queue_follows_the_core(self, tier):
        # Narrow graphs keep the int-tier buckets on every core.
        wide = resolve_graph_backend(gnp_random_graph(40, 0.3, seed=1), tier)
        narrow = resolve_graph_backend(cycle_graph(40), tier)
        for graph in (wide, narrow):
            queue = graph.core.selection_queue(graph.core.alive, graph.ranks())
            packed = tier != "indexed" and graph is wide
            assert isinstance(queue, PackedMCSQueue) == packed
            assert isinstance(queue, MaxWeightBuckets) == (not packed)


def check_queues_agree(tier):
    """The int-tier buckets and ``tier``'s packed queue, step by step.

    Both queues come from graph cores (a wide random graph), so the
    packed one is the kernel namespace's own class.  After every pop
    and random bump they must agree on the popped vertex, the weights
    and the ascending weight levels of the remaining vertices.
    """
    rng = random.Random(29)
    n = 120
    graph = gnp_random_graph(n, 0.1, seed=29)
    ranks = list(range(n))
    rng.shuffle(ranks)
    alive = graph.core.alive
    scalar = graph.core.selection_queue(alive, ranks)
    packed_core = GRAPH_BACKENDS[tier].from_indexed(graph.core)
    packed = packed_core.selection_queue(alive, ranks)
    assert isinstance(scalar, MaxWeightBuckets)
    assert isinstance(packed, PackedMCSQueue)
    remaining = alive
    for __ in range(n):
        a = scalar.pop_max()
        b = packed.pop_max()
        assert a == b
        remaining &= ~(1 << a)
        bump = rng.getrandbits(n) & remaining
        scalar.bump_mask(bump)
        packed.bump_mask(bump)
        assert scalar.weights == packed.weights.tolist()
        for avail in (remaining, remaining & rng.getrandbits(n)):
            assert list(scalar.levels(avail)) == list(packed.levels(avail))


@requires_native
class TestTriangulatorEquivalenceNative(TestTriangulatorEquivalence):
    tier = "native"


@requires_native
class TestPeoAndForestEquivalenceNative(TestPeoAndForestEquivalence):
    tier = "native"


@requires_native
class TestExtendEquivalenceNative(TestExtendEquivalence):
    tier = "native"
