"""Unit tests for clique-minimal-separator decomposition (repro.chordal.atoms)."""

from __future__ import annotations

import importlib

import pytest

from helpers import reference_atoms, small_chordal_graphs, small_random_graphs
from repro.chordal.atoms import atoms, clique_minimal_separators
from repro.chordal.cliques import maximal_cliques
from repro.chordal.minimal_separators import all_minimal_separators
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.workloads.pgm import promedas_like
from repro.workloads.tpch import tpch_suite


class TestCliqueMinimalSeparators:
    def test_path_cut_vertices(self):
        assert clique_minimal_separators(path_graph(4)) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_cycle_has_none(self):
        # C_n separators are non-adjacent pairs — never cliques.
        for n in (4, 5, 6, 7):
            assert clique_minimal_separators(cycle_graph(n)) == set()

    def test_complete_graph_has_none(self):
        assert clique_minimal_separators(complete_graph(5)) == set()

    def test_matches_definition(self):
        # ClqMinSep(g) = {S in MinSep(g) : S is a clique of g}.
        for g in small_random_graphs(30, max_nodes=8, seed=1301):
            expected = {
                s
                for s in all_minimal_separators(g)
                if s and g.is_clique(s)
            }
            assert clique_minimal_separators(g) == expected

    def test_chordal_graph_all_separators(self):
        # Dirac: every minimal separator of a chordal graph is a clique.
        for g in small_chordal_graphs(20, seed=1303):
            expected = {s for s in all_minimal_separators(g) if s}
            assert clique_minimal_separators(g) == expected


class TestAtoms:
    def test_path_atoms_are_edges(self):
        assert [sorted(a) for a in atoms(path_graph(4))] == [
            [0, 1],
            [1, 2],
            [2, 3],
        ]

    def test_cycle_is_one_atom(self):
        assert atoms(cycle_graph(6)) == [frozenset(range(6))]

    def test_chordal_atoms_are_maximal_cliques(self):
        for g in small_chordal_graphs(20, seed=1307):
            assert set(atoms(g)) == set(maximal_cliques(g))

    def test_star_atoms(self):
        result = atoms(star_graph(3))
        assert len(result) == 3
        assert all(0 in atom and len(atom) == 2 for atom in result)

    def test_disconnected(self):
        g = Graph(edges=[(0, 1), (5, 6), (6, 7), (5, 7)])
        result = atoms(g)
        assert frozenset({0, 1}) in result
        assert frozenset({5, 6, 7}) in result

    def test_atoms_cover_all_nodes_and_edges(self):
        for g in small_random_graphs(20, max_nodes=9, seed=1309):
            result = atoms(g)
            covered_nodes = set().union(*result) if result else set()
            assert covered_nodes == g.node_set()
            for u, v in g.edges():
                assert any(u in atom and v in atom for atom in result)

    def test_atoms_have_no_clique_separator(self):
        for g in small_random_graphs(15, max_nodes=8, seed=1311):
            for atom in atoms(g):
                assert clique_minimal_separators(g.subgraph(atom)) == set()

    def test_pairwise_overlaps_are_cliques(self):
        import itertools

        for g in small_random_graphs(15, max_nodes=9, seed=1313):
            for a, b in itertools.combinations(atoms(g), 2):
                assert g.is_clique(a & b)

    def test_empty_graph(self):
        assert atoms(Graph()) == []


class TestAtomDecomposedEnumeration:
    def test_matches_plain_enumeration(self):
        for g in small_random_graphs(25, max_nodes=9, seed=1319):
            plain = {
                t.fill_edges for t in enumerate_minimal_triangulations(g)
            }
            via_atoms = {
                t.fill_edges
                for t in enumerate_minimal_triangulations(g, decompose="atoms")
            }
            assert plain == via_atoms

    def test_all_results_minimal(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 2)])
        for t in enumerate_minimal_triangulations(g, decompose="atoms"):
            assert t.is_minimal()

    def test_chained_cycles_product(self):
        # Two C5s joined by a bridge: 5 * 5 triangulations.
        g = cycle_graph(5)
        for i in range(5):
            g.add_edge(10 + i, 10 + (i + 1) % 5)
        g.add_edge(0, 10)
        count = sum(
            1 for __ in enumerate_minimal_triangulations(g, decompose="atoms")
        )
        assert count == 25

    def test_invalid_decompose_value(self):
        with pytest.raises(ValueError):
            list(enumerate_minimal_triangulations(path_graph(3), decompose="magic"))

    def test_decompose_none_on_grid(self):
        g = grid_graph(2, 3)
        plain = {t.fill_edges for t in enumerate_minimal_triangulations(g, decompose="none")}
        split = {t.fill_edges for t in enumerate_minimal_triangulations(g, decompose="atoms")}
        assert plain == split


def _disconnected_corpus() -> list[Graph]:
    """Pairs of random graphs side by side, plus isolated nodes."""
    graphs = []
    for index, (a, b) in enumerate(
        zip(
            small_random_graphs(20, max_nodes=9, seed=1321),
            small_random_graphs(20, max_nodes=9, seed=1323),
        )
    ):
        g = a.copy()
        g.add_nodes(("b", node) for node in b.nodes())
        for u, v in b.edges():
            g.add_edge(("b", u), ("b", v))
        g.add_nodes(("isolated", k) for k in range(index % 3))
        graphs.append(g)
    return graphs


class TestOnePassOracle:
    """``atoms()`` returns the recursive splitter's list, in its order."""

    @pytest.mark.parametrize(
        "corpus",
        [
            lambda: small_random_graphs(60, max_nodes=11, seed=1327),
            _disconnected_corpus,
            lambda: small_chordal_graphs(30, seed=1329),
            lambda: [promedas_like(60, 90, seed=s) for s in range(4)],
            lambda: [g for __, g in tpch_suite()],
        ],
        ids=["random", "disconnected", "chordal", "promedas", "tpch"],
    )
    def test_matches_recursive_splitter(self, corpus):
        for g in corpus():
            assert atoms(g) == reference_atoms(g)

    def test_isolated_nodes_are_atoms(self):
        g = Graph(nodes=[7, "x"], edges=[(0, 1), (1, 2), (2, 0)])
        assert atoms(g) == reference_atoms(g)
        assert frozenset({7}) in atoms(g) and frozenset({"x"}) in atoms(g)

    def test_one_mcs_m_pass(self, monkeypatch):
        # The package re-exports the function under the module's name.
        atoms_module = importlib.import_module("repro.chordal.atoms")
        calls = []
        real = atoms_module.mcs_m_forest
        monkeypatch.setattr(
            atoms_module, "mcs_m_forest", lambda g: calls.append(g) or real(g)
        )
        # The forest comes from the MCS-M run: no second scan of h.
        for module in ("repro.chordal.cliques", "repro.chordal.triangulate"):
            monkeypatch.setattr(
                importlib.import_module(module),
                "clique_forest_masks",
                lambda g: pytest.fail("clique_forest_masks called"),
            )
        result = atoms(promedas_like(120, 190, seed=310))
        assert len(result) > 100
        assert len(calls) == 1
