"""Unit tests for the separator-graph SGR and Extend (S14–S15)."""

from __future__ import annotations

import importlib

import pytest

from helpers import small_random_graphs
from repro.baselines.brute_force import brute_force_maximal_parallel_families
from repro.chordal.chordal_separators import minimal_separators_of_chordal
from repro.chordal.minimal_separators import (
    all_minimal_separators,
    are_crossing,
    is_pairwise_parallel,
    minimal_separator_masks,
)
from repro.chordal.sandwich import is_minimal_triangulation
from repro.core import extend_parallel_set, minimal_triangulation_via
from repro.core.extend import extend_separator_masks
from repro.graph.generators import (
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
)
from repro.graph.graph import Graph
from repro.sgr.enum_mis import enumerate_maximal_independent_sets
from repro.sgr.separator_graph import MinimalSeparatorSGR


class TestSGRInterface:
    def test_nodes_are_minimal_separators(self):
        g = cycle_graph(5)
        sgr = MinimalSeparatorSGR(g)
        nodes = list(sgr.iter_nodes())
        assert nodes == list(minimal_separator_masks(g))
        assert {g.label_set(mask) for mask in nodes} == all_minimal_separators(g)

    def test_edges_are_crossings(self):
        g = cycle_graph(6)
        sgr = MinimalSeparatorSGR(g)
        s, t = frozenset({0, 3}), frozenset({1, 4})
        assert sgr.has_edge(g.mask_of(s), g.mask_of(t)) == are_crossing(g, s, t)
        assert sgr.has_edge(g.mask_of(s), g.mask_of(t))

    def test_disconnected_non_chordal_input(self):
        # Two cycles: the empty separator is a node, as mask 0.
        g = Graph(edges=list(cycle_graph(4).edges()) + [
            (u + 10, v + 10) for u, v in cycle_graph(5).edges()
        ])
        sgr = MinimalSeparatorSGR(g)
        nodes = list(sgr.iter_nodes())
        assert 0 in nodes
        separators = all_minimal_separators(g)
        assert frozenset() in separators
        assert {g.label_set(mask) for mask in nodes} == separators
        for s in nodes:
            for t in nodes:
                assert sgr.has_edge(s, t) == are_crossing(
                    g, g.label_set(s), g.label_set(t)
                ), (s, t)
        for phi in ([], [0], [g.mask_of({0, 2})], [0, g.mask_of({10, 12})]):
            labels = [g.label_set(mask) for mask in phi]
            extended = sgr.extend(frozenset(phi))
            assert {g.label_set(mask) for mask in extended} == set(
                extend_parallel_set(g, labels)
            )
            assert 0 in extended
            assert extended >= set(phi)

    def test_properties(self):
        g = cycle_graph(4)
        sgr = MinimalSeparatorSGR(g, triangulator="lb_triang")
        assert sgr.graph is g
        assert sgr.triangulator.name == "lb_triang"

    def test_unknown_triangulator_rejected(self):
        with pytest.raises(ValueError):
            MinimalSeparatorSGR(cycle_graph(4), triangulator="nope")


class TestExtend:
    def test_empty_input_gives_maximal_family(self):
        for g in small_random_graphs(20, max_nodes=8, seed=601):
            family = extend_parallel_set(g, [])
            assert is_pairwise_parallel(g, family)
            families = brute_force_maximal_parallel_families(g)
            assert frozenset(family) in families

    def test_extension_contains_input(self):
        g = cycle_graph(6)
        phi = [frozenset({0, 2})]
        family = extend_parallel_set(g, phi)
        assert frozenset({0, 2}) in family
        assert is_pairwise_parallel(g, family)

    def test_extension_is_maximal(self):
        for g in small_random_graphs(15, max_nodes=7, seed=607):
            family = extend_parallel_set(g, [])
            for candidate in all_minimal_separators(g):
                if candidate in family:
                    continue
                # Adding any other separator must cross something.
                assert any(
                    are_crossing(g, candidate, member) for member in family
                )

    def test_all_triangulators_give_valid_extensions(self):
        g = grid_graph(3, 3)
        phi = []
        for name in ("mcs_m", "lb_triang", "min_fill", "min_degree", "complete"):
            family = extend_parallel_set(g, phi, triangulator=name)
            assert is_pairwise_parallel(g, family)
            assert family  # a 3x3 grid has separators

    def test_result_identifies_minimal_triangulation(self):
        # g[extend(phi)] must be a minimal triangulation whose minimal
        # separators are exactly the returned family (Thm 4.1).
        for g in small_random_graphs(12, max_nodes=7, seed=613):
            family = extend_parallel_set(g, [])
            saturated = g.saturated(family)
            assert is_minimal_triangulation(g, saturated)
            assert minimal_separators_of_chordal(saturated) == set(family)

    def test_chordal_graph_family_is_full_minsep(self):
        g = path_graph(5)
        family = extend_parallel_set(g, [])
        assert set(family) == all_minimal_separators(g)


class TestOnePassExtend:
    def test_mcs_m_extend_builds_no_graph_and_scans_once(self, monkeypatch):
        # MCS-M hands Extend h's clique forest from its own run: no
        # graph copy, no label fill and no second clique-forest scan.
        g = gnp_random_graph(20, 0.3, seed=5)
        expected = extend_separator_masks(g, ())
        part = sorted(expected)[:2]
        expected_part = extend_separator_masks(g, part)

        def fail(*args, **kwargs):
            pytest.fail("Extend left the one-pass path")

        monkeypatch.setattr(Graph, "copy", fail)
        monkeypatch.setattr(Graph, "add_edges", fail)
        for module in ("repro.chordal.cliques", "repro.chordal.triangulate"):
            monkeypatch.setattr(
                importlib.import_module(module), "clique_forest_masks", fail
            )
        assert extend_separator_masks(g, ()) == expected
        assert extend_separator_masks(g, part) == expected_part


class TestMinimalTriangulationVia:
    def test_minimal_for_all_backends(self):
        for name in ("mcs_m", "lb_triang", "min_fill", "natural", "complete"):
            for g in small_random_graphs(8, max_nodes=7, seed=617):
                filled = minimal_triangulation_via(g, name)
                assert is_minimal_triangulation(g, filled)


class TestEndToEndMIS:
    def test_families_match_brute_force(self):
        for g in small_random_graphs(15, max_nodes=7, seed=619):
            from repro.graph.components import is_connected

            if not is_connected(g):
                continue
            sgr = MinimalSeparatorSGR(g)
            produced = {
                frozenset(map(g.label_set, family))
                for family in enumerate_maximal_independent_sets(sgr)
            }
            assert produced == brute_force_maximal_parallel_families(g)
