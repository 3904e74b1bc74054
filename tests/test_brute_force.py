"""Unit tests for the brute-force oracles themselves (S23).

The oracles back most cross-checks elsewhere, so here they are pinned
against hand-computed answers and against networkx where applicable.
"""

from __future__ import annotations

import itertools

import pytest

from helpers import small_random_graphs
from repro.baselines.brute_force import (
    brute_force_maximal_cliques,
    brute_force_maximal_independent_sets,
    brute_force_maximal_parallel_families,
    brute_force_minimal_separators,
    brute_force_minimal_triangulations,
)
from repro.chordal.peo import is_chordal
from repro.errors import EnumerationBudgetExceeded
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph


class TestMinimalSeparatorsOracle:
    def test_hand_computed_path(self):
        assert brute_force_minimal_separators(path_graph(4)) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_hand_computed_square(self):
        assert brute_force_minimal_separators(cycle_graph(4)) == {
            frozenset({0, 2}),
            frozenset({1, 3}),
        }

    def test_size_guard(self):
        with pytest.raises(EnumerationBudgetExceeded):
            brute_force_minimal_separators(path_graph(17))


class TestMinimalTriangulationsOracle:
    def test_square(self):
        result = brute_force_minimal_triangulations(cycle_graph(4))
        assert result == {
            frozenset({frozenset({0, 2})}),
            frozenset({frozenset({1, 3})}),
        }

    def test_chordal_graph_single_empty_fill(self):
        assert brute_force_minimal_triangulations(path_graph(4)) == {frozenset()}

    def test_c5_count(self):
        assert len(brute_force_minimal_triangulations(cycle_graph(5))) == 5

    def test_size_guard(self):
        with pytest.raises(EnumerationBudgetExceeded):
            brute_force_minimal_triangulations(Graph(nodes=range(10)))

    def test_pruning_matches_unpruned_definition(self):
        # Skipping supersets of found fillings must not change the
        # answer: compare with "every chordal filling, minus the ones
        # that strictly contain another".
        def unpruned(graph):
            non_edges = graph.missing_edges()
            chordal = []
            for size in range(len(non_edges) + 1):
                for fill in itertools.combinations(non_edges, size):
                    filled = graph.copy()
                    filled.add_edges(fill)
                    if is_chordal(filled):
                        chordal.append(frozenset(map(frozenset, fill)))
            return {f for f in chordal if not any(o < f for o in chordal)}

        corpus = [cycle_graph(n) for n in (4, 5, 6)] + [
            g
            for g in small_random_graphs(25, max_nodes=7, seed=2311)
            if len(g.missing_edges()) <= 12
        ]
        for g in corpus:
            assert brute_force_minimal_triangulations(g) == unpruned(g)


class TestCliqueOracles:
    def test_cliques_match_networkx(self):
        import networkx as nx

        for g in small_random_graphs(25, max_nodes=9, seed=901):
            nxg = nx.Graph(g.edges())
            nxg.add_nodes_from(g.nodes())
            expected = {frozenset(c) for c in nx.find_cliques(nxg)}
            assert brute_force_maximal_cliques(g) == expected

    def test_star_cliques(self):
        assert brute_force_maximal_cliques(star_graph(3)) == {
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({0, 3}),
        }

    def test_empty_graph_empty_clique(self):
        assert brute_force_maximal_cliques(Graph()) == {frozenset()}

    def test_independent_sets_are_complement_cliques(self):
        g = cycle_graph(5)
        assert brute_force_maximal_independent_sets(g) == brute_force_maximal_cliques(
            g.complement()
        )


class TestParallelFamiliesOracle:
    def test_square(self):
        families = brute_force_maximal_parallel_families(cycle_graph(4))
        assert families == {
            frozenset({frozenset({0, 2})}),
            frozenset({frozenset({1, 3})}),
        }

    def test_count_matches_triangulations(self):
        # Parra-Scheffler: |families| == |MinTri|.
        for g in small_random_graphs(15, max_nodes=7, seed=907):
            families = brute_force_maximal_parallel_families(g)
            triangulations = brute_force_minimal_triangulations(g)
            assert len(families) == len(triangulations)

    def test_complete_graph_single_empty_family(self):
        assert brute_force_maximal_parallel_families(complete_graph(4)) == {
            frozenset()
        }
