"""Unit tests for the triangulation heuristics (repro.chordal.triangulate)."""

from __future__ import annotations

import importlib

import pytest

from helpers import small_chordal_graphs, small_random_graphs
from repro.chordal.peo import is_chordal
from repro.chordal.sandwich import is_minimal_triangulation
from repro.chordal.triangulate import (
    Triangulator,
    available_triangulators,
    elimination_game_triangulation,
    get_triangulator,
    lb_triang,
    mcs_m,
    mcs_m_forest,
    min_degree_order,
    min_fill_order,
    register_triangulator,
)
from repro.core.extend import extend_separator_masks
from repro.errors import NotChordalError
from repro.graph.generators import (
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
)
from repro.graph.graph import Graph


def filled_with(graph: Graph, fill) -> Graph:
    out = graph.copy()
    out.add_edges(fill)
    return out


class TestMcsM:
    def test_chordal_input_gets_no_fill(self):
        for g in small_chordal_graphs(20):
            fill, order = mcs_m(g)
            assert fill == []
            assert sorted(order) == g.nodes()

    def test_produces_minimal_triangulation(self):
        for g in small_random_graphs(30, max_nodes=9, seed=211):
            fill, __ = mcs_m(g)
            assert is_minimal_triangulation(g, filled_with(g, fill))

    def test_cycle_fill_size(self):
        # A minimal triangulation of C_n adds exactly n - 3 chords.
        for n in (4, 5, 6, 8):
            fill, __ = mcs_m(cycle_graph(n))
            assert len(fill) == n - 3

    def test_order_is_meo_of_filled_graph(self):
        from repro.chordal.peo import is_perfect_elimination_ordering

        for g in small_random_graphs(15, max_nodes=8, seed=217):
            fill, order = mcs_m(g)
            filled = filled_with(g, fill)
            assert is_perfect_elimination_ordering(filled, order)

    def test_first_node_varies_result(self):
        g = cycle_graph(6)
        fills = {tuple(mcs_m(g, first=v)[0]) for v in g.nodes()}
        assert len(fills) >= 2

    def test_unknown_first_raises(self):
        with pytest.raises(KeyError):
            mcs_m(path_graph(3), first="nope")

    def test_grid(self):
        g = grid_graph(4, 4)
        fill, __ = mcs_m(g)
        assert is_minimal_triangulation(g, filled_with(g, fill))


class TestBrokenFillFailsLoudly:
    """MCS-M builds h's clique forest in its own loop, under both MCS
    forest invariants.  An update set that misses one fill vertex makes
    h non-chordal, and the forest must raise instead of returning wrong
    separators.  On the cycles the clique-continuation check fires; on
    the two Gnp(12, 0.3) graphs only the parent-clique check does."""

    @pytest.fixture
    def drop_one_fill_vertex(self, monkeypatch):
        module = importlib.import_module("repro.chordal.triangulate")
        real = module._mcs_m_update_mask

        def broken(core, queue, unnumbered, v):
            update = real(core, queue, unnumbered, v)
            fill = update & ~core.adj[v]
            return update ^ (fill & -fill)

        monkeypatch.setattr(module, "_mcs_m_update_mask", broken)

    @pytest.mark.parametrize(
        "graph",
        [
            cycle_graph(4),
            cycle_graph(5),
            gnp_random_graph(12, 0.3, seed=0),
            gnp_random_graph(12, 0.3, seed=4),
        ],
        ids=["C4", "C5", "gnp12-s0", "gnp12-s4"],
    )
    def test_raises(self, drop_one_fill_vertex, graph):
        with pytest.raises(NotChordalError):
            mcs_m_forest(graph)
        with pytest.raises(NotChordalError):
            extend_separator_masks(graph, ())
        with pytest.raises(NotChordalError):
            mcs_m(graph)


class TestLbTriang:
    def test_chordal_input_gets_no_fill(self):
        for g in small_chordal_graphs(20, seed=11):
            assert lb_triang(g) == []

    def test_produces_minimal_triangulation_all_heuristics(self):
        for heuristic in ("min_fill", "min_degree", "natural"):
            for g in small_random_graphs(20, max_nodes=9, seed=223):
                fill = lb_triang(g, heuristic=heuristic)
                assert is_minimal_triangulation(g, filled_with(g, fill))

    def test_explicit_order(self):
        g = cycle_graph(6)
        fill = lb_triang(g, order=list(g.nodes()))
        assert is_minimal_triangulation(g, filled_with(g, fill))

    def test_every_order_gives_minimal_triangulation(self):
        # The headline theorem of LB-Triang: minimality for *every* order.
        import itertools

        g = cycle_graph(5)
        for order in itertools.permutations(g.nodes()):
            fill = lb_triang(g, order=list(order))
            assert is_minimal_triangulation(g, filled_with(g, fill))

    def test_bad_order_raises(self):
        with pytest.raises(ValueError):
            lb_triang(path_graph(3), order=[0, 1])

    def test_bad_heuristic_raises(self):
        with pytest.raises(ValueError):
            lb_triang(path_graph(3), heuristic="mystery")

    def test_grid(self):
        g = grid_graph(4, 4)
        fill = lb_triang(g)
        assert is_minimal_triangulation(g, filled_with(g, fill))


class TestEliminationGame:
    def test_named_orderings_triangulate(self):
        for ordering in ("min_fill", "min_degree", "natural"):
            for g in small_random_graphs(15, max_nodes=9, seed=227):
                fill = elimination_game_triangulation(g, ordering)
                assert is_chordal(filled_with(g, fill))

    def test_explicit_order(self):
        g = cycle_graph(4)
        fill = elimination_game_triangulation(g, [0, 1, 2, 3])
        assert fill == [(1, 3)]

    def test_unknown_ordering_raises(self):
        with pytest.raises(ValueError):
            elimination_game_triangulation(path_graph(3), "alphabetical")

    def test_min_fill_order_permutation(self):
        g = grid_graph(3, 3)
        order = min_fill_order(g)
        assert sorted(order) == g.nodes()

    def test_min_degree_order_permutation(self):
        g = grid_graph(3, 3)
        order = min_degree_order(g)
        assert sorted(order) == g.nodes()

    def test_min_fill_on_cycle_is_optimal(self):
        # Greedy min-fill triangulates a cycle with exactly n-3 edges.
        fill = elimination_game_triangulation(cycle_graph(7), "min_fill")
        assert len(fill) == 4


class TestRegistry:
    def test_builtins_present(self):
        names = available_triangulators()
        for expected in (
            "mcs_m",
            "lb_triang",
            "lb_triang_min_degree",
            "min_fill",
            "min_degree",
            "natural",
            "complete",
        ):
            assert expected in names

    def test_get_by_name_and_instance(self):
        t = get_triangulator("mcs_m")
        assert get_triangulator(t) is t
        assert t.guarantees_minimal

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_triangulator("does_not_exist")

    def test_minimality_flags(self):
        assert get_triangulator("lb_triang").guarantees_minimal
        assert not get_triangulator("min_fill").guarantees_minimal
        assert not get_triangulator("complete").guarantees_minimal

    def test_register_custom(self):
        custom = Triangulator(
            "test_custom", lambda g: g.missing_edges(), guarantees_minimal=False
        )
        register_triangulator(custom)
        assert get_triangulator("test_custom") is custom

    def test_triangulate_method(self):
        filled, fill = get_triangulator("mcs_m").triangulate(cycle_graph(5))
        assert is_chordal(filled)
        assert len(fill) == 2

    def test_complete_triangulator(self):
        filled, fill = get_triangulator("complete").triangulate(cycle_graph(5))
        assert filled.num_edges == 10
