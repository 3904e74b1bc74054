"""Property tests for the integer-indexed bitset core (graph/core.py).

The label-based :class:`Graph` façade and the :class:`IndexedGraph`
core must agree on every structural question; these tests drive both
through the shared random-graph corpus and through targeted mutation
sequences, plus round-trip tests for the :class:`NodeInterner` on
mixed int/str label sets.
"""

from __future__ import annotations

import pytest

from helpers import checked_saturate, small_chordal_graphs, small_random_graphs

from repro.errors import NodeNotFoundError
from repro.graph.components import components_without, connected_components
from repro.graph.core import IndexedGraph, NodeInterner, bit_list, iter_bits
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph


CORPUS = small_random_graphs(25) + small_chordal_graphs(10)


def mask_to_labels(graph: Graph, mask: int) -> frozenset:
    return frozenset(graph.label_of(i) for i in iter_bits(mask))


class TestBitHelpers:
    def test_iter_bits_matches_binary(self):
        for mask in [0, 1, 2, 0b1011, 1 << 40, (1 << 100) | 7]:
            expected = [i for i in range(mask.bit_length()) if mask >> i & 1]
            assert list(iter_bits(mask)) == expected
            assert bit_list(mask) == expected


class TestInternerRoundTrip:
    def test_mixed_labels_round_trip(self):
        interner = NodeInterner()
        labels = [3, "a", 0, "b", ("t", 1), 7]
        indices = [interner.intern(label) for label in labels]
        assert len(set(indices)) == len(labels)
        for label, index in zip(labels, indices):
            assert interner.label_of(index) == label
            assert interner.index(label) == index
            assert label in interner
        assert sorted(interner.items(), key=lambda kv: kv[1]) == list(
            zip(labels, indices)
        )

    def test_intern_is_idempotent(self):
        interner = NodeInterner()
        assert interner.intern("x") == interner.intern("x")
        assert len(interner) == 1

    def test_release_recycles_slots(self):
        interner = NodeInterner()
        a = interner.intern("a")
        interner.intern("b")
        freed = interner.release("a")
        assert freed == a
        assert "a" not in interner
        assert interner.intern("c") == a  # slot reuse
        assert interner.label_of(a) == "c"

    def test_relabeled_requires_injectivity(self):
        interner = NodeInterner()
        interner.intern(1)
        interner.intern(2)
        renamed = interner.relabeled({1: "one"})
        assert renamed.index("one") == interner.index(1)
        assert renamed.index(2) == interner.index(2)
        with pytest.raises(ValueError):
            interner.relabeled({1: 2})

    def test_graph_round_trip_through_interner(self):
        g = Graph(edges=[("a", 1), (1, "b"), ("b", "a"), (2, "a")])
        for node in g.nodes():
            assert g.label_of(g.index_of(node)) == node
        assert g.label_set(g.mask_of(["a", 1])) == frozenset(["a", 1])
        with pytest.raises(NodeNotFoundError):
            g.mask_of(["missing"])
        assert g.mask_of(["missing"], strict=False) == 0


class TestCoreAgreesWithGraph:
    def test_nodes_edges_degrees(self):
        for g in CORPUS:
            core = g.core
            assert core.num_vertices == g.num_nodes
            assert core.num_edges == g.num_edges
            assert mask_to_labels(g, core.alive) == g.node_set()
            for node in g.nodes():
                index = g.index_of(node)
                assert core.degree(index) == g.degree(node)
                assert mask_to_labels(g, core.adj[index]) == g.adjacency(node)

    def test_edge_pairs_match_edge_set(self):
        for g in CORPUS:
            pairs = {
                frozenset((g.label_of(u), g.label_of(v)))
                for u, v in g.core.edge_pairs()
            }
            assert pairs == set(g.edge_set())

    def test_neighborhood_of_set(self):
        for g in CORPUS:
            nodes = g.nodes()
            for k in (1, 2, max(1, len(nodes) // 2)):
                subset = nodes[:k]
                mask = g.mask_of(subset)
                assert mask_to_labels(
                    g, g.core.neighborhood_of_set(mask)
                ) == g.neighborhood_of_set(subset)

    def test_clique_and_independence(self):
        for g in CORPUS:
            nodes = g.nodes()
            subset = nodes[: max(1, len(nodes) // 2)]
            mask = g.mask_of(subset)
            assert g.core.is_clique(mask) == g.is_clique(subset)
            assert g.core.is_independent_set(mask) == g.is_independent_set(subset)
            assert g.core.missing_pair_count(mask) == len(g.missing_edges(subset))

    def test_saturation_agrees(self):
        for g in CORPUS:
            nodes = g.nodes()
            subset = nodes[: max(2, len(nodes) // 2)]
            by_labels = g.copy()
            label_fill = {frozenset(e) for e in by_labels.saturate(subset)}
            by_masks = g.copy()
            mask_fill = {
                frozenset((g.label_of(u), g.label_of(v)))
                for u, v in checked_saturate(by_masks.core, g.mask_of(subset))
            }
            assert label_fill == mask_fill
            assert by_labels == by_masks
            assert by_masks.num_edges == by_masks.core.num_edges

    def test_components_agree_with_bfs_oracle(self):
        for g in CORPUS:
            nodes = g.nodes()
            removed = nodes[: len(nodes) // 3]
            got = components_without(g, removed)
            # Oracle: label-level BFS.
            expected = []
            seen: set = set(removed)
            for start in nodes:
                if start in seen:
                    continue
                component = {start}
                stack = [start]
                while stack:
                    node = stack.pop()
                    for neigh in g.neighbors(node):
                        if neigh not in seen and neigh not in component:
                            component.add(neigh)
                            stack.append(neigh)
                seen |= component
                expected.append(frozenset(component))
            assert got == expected

    def test_subgraph_and_complement(self):
        for g in CORPUS:
            nodes = g.nodes()
            keep = nodes[: max(1, 2 * len(nodes) // 3)]
            sub = g.subgraph(keep)
            assert sub.node_set() == frozenset(keep)
            assert sub.num_edges == sub.core.num_edges
            for u, v in sub.edges():
                assert g.has_edge(u, v)
            comp = g.complement()
            n = g.num_nodes
            assert comp.num_edges == n * (n - 1) // 2 - g.num_edges
            assert comp.core.num_edges == comp.num_edges


class TestEdgeCounterIsMaintained:
    def test_counter_through_mutations(self):
        g = gnp_random_graph(12, 0.4, seed=3)

        def recount(graph: Graph) -> int:
            return sum(graph.degree(node) for node in graph.nodes()) // 2

        assert g.num_edges == recount(g)
        g.add_edge("new", 0)
        g.add_edge("new", 1)
        assert g.num_edges == recount(g)
        g.remove_edge("new", 0)
        assert g.num_edges == recount(g)
        g.remove_node(1)
        assert g.num_edges == recount(g)
        g.saturate(list(g.nodes())[:5])
        assert g.num_edges == recount(g)
        g.remove_nodes(list(g.nodes())[:3])
        assert g.num_edges == recount(g)

    def test_counter_after_node_slot_reuse(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        g.remove_node(1)
        assert g.num_edges == 0
        g.add_edge(1, 0)  # 1 gets a recycled slot
        g.add_edge(1, 2)
        assert g.num_edges == 2
        assert g.neighbors(1) == {0, 2}


class TestDeterminismSurvivesInterningOrder:
    def test_insertion_order_does_not_change_results(self):
        base = gnp_random_graph(10, 0.5, seed=11)
        edges = base.edges()
        shuffled = Graph(nodes=reversed(base.nodes()), edges=reversed(edges))
        assert shuffled == base
        assert shuffled.nodes() == base.nodes()
        assert shuffled.edges() == base.edges()
        assert connected_components(shuffled) == connected_components(base)

    def test_separator_and_enumeration_order_invariant(self):
        from repro.chordal.minimal_separators import minimal_separators
        from repro.core.enumerate import enumerate_minimal_triangulations

        base = gnp_random_graph(9, 0.45, seed=13)
        shuffled = Graph(nodes=reversed(base.nodes()), edges=reversed(base.edges()))
        assert list(minimal_separators(shuffled)) == list(minimal_separators(base))
        first_of = lambda g: [
            t.fill_edges
            for __, t in zip(range(5), enumerate_minimal_triangulations(g))
        ]
        assert first_of(shuffled) == first_of(base)


class TestSGREdgeCacheCounters:
    def test_cache_hits_and_misses_are_counted(self):
        from repro.core.enumerate import enumerate_minimal_triangulations
        from repro.sgr.enum_mis import EnumMISStatistics

        g = gnp_random_graph(9, 0.5, seed=21)
        stats = EnumMISStatistics()
        list(enumerate_minimal_triangulations(g, stats=stats))
        assert stats.edge_cache_misses > 0
        # Every oracle call is either a hit or a miss.
        assert (
            stats.edge_cache_hits + stats.edge_cache_misses
            == stats.edge_oracle_calls
        )
        snapshot = stats.snapshot()
        assert snapshot["edge_cache_hits"] == stats.edge_cache_hits
        assert snapshot["edge_cache_misses"] == stats.edge_cache_misses

    def test_memoized_oracle_agrees_with_plain_crossing(self):
        from repro.chordal.minimal_separators import (
            all_minimal_separators,
            are_crossing,
        )
        from repro.sgr.separator_graph import MinimalSeparatorSGR

        for g in small_random_graphs(8, max_nodes=7, seed=5):
            sgr = MinimalSeparatorSGR(g)
            separators = sorted(all_minimal_separators(g), key=sorted)
            mask_of = g.mask_of
            for s in separators:
                for t in separators:
                    assert sgr.has_edge(mask_of(s), mask_of(t)) == are_crossing(
                        g, s, t
                    )
            # Asking again is served from the cache and stays consistent.
            for s in separators:
                for t in separators:
                    assert sgr.has_edge(mask_of(s), mask_of(t)) == are_crossing(
                        g, s, t
                    )


class TestIndexedGraphStandalone:
    def test_direct_core_usage(self):
        core = IndexedGraph(4)
        core.add_edge(0, 1)
        core.add_edge(1, 2)
        assert core.num_edges == 2
        assert core.has_edge(2, 1)
        assert not core.has_edge(0, 2)
        assert core.components() == [0b111, 0b1000]
        core.remove_vertex(1)
        assert core.num_edges == 0
        assert list(core.vertices()) == [0, 2, 3]

    def test_expand_component_restricted(self):
        core = IndexedGraph(5)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            core.add_edge(u, v)
        # Remove the middle vertex: two components.
        assert core.components(removed=0b100) == [0b11, 0b11000]
        assert core.full_components(0b100) == [0b11, 0b11000]
