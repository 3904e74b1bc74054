"""Unit tests for the Triangulation value object (repro.core.triangulation)."""

from __future__ import annotations

import itertools

import pytest

from helpers import PACKED_TIERS, mixed_label_corpus, small_random_graphs
from repro.chordal import cliques
from repro.chordal.chordal_separators import minimal_separators_of_chordal
from repro.chordal.cliques import mcs_clique_forest
from repro.chordal.triangulate import get_triangulator
from repro.core import triangulation as triangulation_module
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.core.triangulation import Triangulation
from repro.engine import EnumerationEngine, EnumerationJob
from repro.graph import resolve_graph_backend
from repro.graph.bitset_np import core_backend_name
from repro.graph.generators import cycle_graph, gnp_random_graph, path_graph
from repro.graph.graph import Graph
from repro.sgr.enum_mis import enumerate_maximal_independent_sets
from repro.sgr.separator_graph import MinimalSeparatorSGR
from repro.workloads.pgm import promedas_like

TIERS = ("indexed",) + PACKED_TIERS


def _label_oracle(t: Triangulation, graph: bool = True) -> None:
    """Every measure and view of ``t`` equals its label-level recomputation.

    ``width`` is read first, so answers built from fill edges build
    their core on that read.  ``graph=False`` skips ``t.graph``, for
    answers whose label graph a caller has mutated.
    """
    filled = t.base.copy()
    filled.add_edges(t.fill_edges)
    forest = mcs_clique_forest(filled)
    assert t.width == forest.width
    assert t.fill == len(t.fill_edges) == len(filled.edge_set() - t.base.edge_set())
    if graph:
        assert t.graph.edge_set() == filled.edge_set()
        assert t.graph.node_set() == filled.node_set()
    assert t.clique_forest == forest
    assert t.minimal_separators == frozenset(minimal_separators_of_chordal(filled))


def _disconnected_corpus() -> list[Graph]:
    """Two shifted copies of small random graphs, isolated nodes kept."""
    corpus = []
    for g in small_random_graphs(6, max_nodes=6, seed=77):
        shifted = [(u + 100, v + 100) for u, v in g.edges()]
        corpus.append(
            Graph(
                nodes=[*g.nodes(), *(u + 100 for u in g.nodes())],
                edges=[*g.edges(), *shifted],
            )
        )
    return corpus


class TestConstruction:
    def test_fill_canonicalised_and_sorted(self):
        g = cycle_graph(5)
        t = Triangulation(g, ((3, 0), (2, 0)))
        assert t.fill_edges == ((0, 2), (0, 3))

    def test_from_chordal_supergraph(self):
        g = cycle_graph(4)
        h = g.copy()
        h.add_edge(0, 2)
        t = Triangulation.from_chordal_supergraph(g, h)
        assert t.fill_edges == ((0, 2),)
        assert t.graph == h

    def test_graph_materialisation(self):
        g = cycle_graph(4)
        t = Triangulation(g, ((0, 2),))
        assert t.graph.has_edge(0, 2)
        assert t.base is g
        # The base is not mutated.
        assert not g.has_edge(0, 2)


class TestMeasures:
    def test_width_and_fill(self):
        g = cycle_graph(6)
        t = Triangulation(g, ((0, 2), (0, 3), (0, 4)))
        assert t.fill == 3
        assert t.width == 2  # fan triangulation: all triangles

    def test_width_of_chordal_base(self):
        g = path_graph(5)
        t = Triangulation(g, ())
        assert t.width == 1
        assert t.fill == 0

    def test_minimal_separators_identity(self):
        # MinSep(h) must match the direct extraction (Parra-Scheffler).
        g = cycle_graph(5)
        t = Triangulation(g, ((0, 2), (0, 3)))
        assert t.minimal_separators == frozenset(
            minimal_separators_of_chordal(t.graph)
        )

    def test_clique_forest_cached(self):
        g = cycle_graph(4)
        t = Triangulation(g, ((1, 3),))
        assert t.clique_forest is t.clique_forest

    def test_is_minimal_true_and_false(self):
        g = cycle_graph(4)
        assert Triangulation(g, ((0, 2),)).is_minimal()
        assert not Triangulation(g, ((0, 2), (1, 3))).is_minimal()


@pytest.mark.parametrize("tier", TIERS)
class TestMaskCoreOracle:
    """Answers read width and their views off h's mask core, on every tier."""

    @staticmethod
    def _check(answers, tier: str, limit: int | None = None) -> int:
        count = 0
        for t in itertools.islice(answers, limit):
            assert core_backend_name(t.base.core) == tier
            _label_oracle(t)
            # The public constructor builds the same answer lazily.
            _label_oracle(Triangulation(t.base, t.fill_edges))
            count += 1
        return count

    def test_serial_property_corpus(self, tier):
        for g in small_random_graphs(12, max_nodes=8, seed=1919):
            answers = enumerate_minimal_triangulations(g, graph_backend=tier)
            assert self._check(answers, tier) >= 1

    def test_serial_disconnected_corpus(self, tier):
        for g in _disconnected_corpus():
            answers = enumerate_minimal_triangulations(g, graph_backend=tier)
            assert self._check(answers, tier, limit=30) >= 1

    def test_serial_atoms(self, tier):
        graph = promedas_like(40, 60, seed=0)
        job = EnumerationJob(graph, decompose="atoms", graph_backend=tier, max_results=40)
        assert self._check(EnumerationEngine("serial").stream(job), tier) == 40

    def test_sharded(self, tier):
        engine = EnumerationEngine("sharded", workers=2)
        jobs = [
            EnumerationJob(gnp_random_graph(9, 0.4, seed=2), graph_backend=tier),
            EnumerationJob(_disconnected_corpus()[1], graph_backend=tier, max_results=30),
            EnumerationJob(
                promedas_like(20, 30, seed=2),
                decompose="atoms",
                graph_backend=tier,
                max_results=30,
            ),
        ]
        for job in jobs:
            assert self._check(engine.stream(job), tier) >= 1

    def test_public_constructor(self, tier):
        for g in small_random_graphs(8, max_nodes=8, seed=2323) + [path_graph(5)]:
            base = resolve_graph_backend(g, tier)
            complete = base.copy()
            complete.saturate(base.nodes())
            minimal = next(enumerate_minimal_triangulations(base)).graph
            # Any chordal supergraph works, minimal or not.
            answers = [
                Triangulation.from_chordal_supergraph(base, minimal),
                Triangulation.from_chordal_supergraph(base, complete),
            ]
            assert self._check(answers, tier) == 2
        base = resolve_graph_backend(path_graph(5), tier)
        assert self._check([Triangulation(base, ())], tier) == 1


@pytest.mark.parametrize("tier", TIERS)
class TestSeparatorMaskMaterialisation:
    """``from_separator_masks`` builds the answer the public constructor does."""

    @staticmethod
    def _check(graph: Graph, tier: str) -> set[int]:
        """Compare both constructions on every family; return the masks seen."""
        base = resolve_graph_backend(graph, tier)
        sgr = MinimalSeparatorSGR(base, get_triangulator("mcs_m"))
        seen: set[int] = set()
        for family in enumerate_maximal_independent_sets(sgr):
            masks = sorted(family)
            seen.update(masks)
            built = Triangulation.from_separator_masks(base, masks)
            saturated = base.copy()
            fill = []
            for mask in masks:
                fill.extend(saturated.saturate(base.label_set(mask)))
            public = Triangulation(base, tuple(fill))
            assert built.fill_edges == public.fill_edges
            assert built.width == public.width
            assert built.minimal_separators == public.minimal_separators
            assert built == public
            assert hash(built) == hash(public)
        return seen

    def test_connected_property_corpus(self, tier):
        graphs = [
            g
            for g in small_random_graphs(12, max_nodes=8, seed=1919)
            if g.core.is_connected()
        ]
        assert len(graphs) >= 6
        for g in graphs:
            assert self._check(g, tier)

    def test_empty_separator(self, tier):
        c5 = [(u + 10, v + 10) for u, v in cycle_graph(5).edges()]
        graph = Graph(edges=[*cycle_graph(4).edges(), *c5])
        assert 0 in self._check(graph, tier)

    def test_mixed_labels(self, tier):
        for g in mixed_label_corpus()[:40]:
            self._check(g, tier)


class TestMaskCoreIsolation:
    """An answer's core is its own: no label graph on the width path,
    and its label graph shares nothing with the base or a sibling."""

    @staticmethod
    def _engine_answers() -> list[Triangulation]:
        graph = promedas_like(40, 60, seed=0)
        answers = []
        for decompose in ("components", "atoms"):
            job = EnumerationJob(graph, decompose=decompose, max_results=15)
            answers.extend(EnumerationEngine("serial").stream(job))
        return answers

    def test_width_and_fill_build_no_label_graph(self, monkeypatch):
        answers = self._engine_answers()

        def refuse(*args, **kwargs):
            raise AssertionError("a label graph was built on the width path")

        monkeypatch.setattr(Graph, "copy", refuse)
        monkeypatch.setattr(Graph, "add_edges", refuse)
        monkeypatch.setattr(cliques, "mcs_clique_forest", refuse)
        monkeypatch.setattr(triangulation_module, "mcs_clique_forest", refuse, raising=False)
        measures = [(t.width, t.fill) for t in answers]
        monkeypatch.undo()
        assert len(measures) == 30
        for t, (width, fill) in zip(answers, measures):
            assert "graph" not in t.__dict__
            assert (width, fill) == (mcs_clique_forest(t.graph).width, len(t.fill_edges))

    @pytest.mark.parametrize("source", ["engine", "constructor"])
    def test_mutating_graph_leaves_answers_alone(self, source):
        g = gnp_random_graph(10, 0.4, seed=3)
        first, sibling = itertools.islice(enumerate_minimal_triangulations(g), 2)
        if source == "constructor":
            first = Triangulation(g, first.fill_edges)
            sibling = Triangulation(g, sibling.fill_edges)
        base_nodes, base_edges = g.node_set(), g.edge_set()
        fills = first.fill_edges, sibling.fill_edges
        h = first.graph
        u, v = next(
            (u, v)
            for u, v in itertools.combinations(sorted(g.nodes()), 2)
            if not h.has_edge(u, v)
        )
        h.add_edge(u, v)
        h.add_edge("fresh", u)
        h.remove_node(v)
        assert first.base is g and sibling.base is g
        assert g.node_set() == base_nodes and g.edge_set() == base_edges
        assert "fresh" not in g and g.mask_of(base_nodes) == g.core.alive
        assert (first.fill_edges, sibling.fill_edges) == fills
        _label_oracle(first, graph=False)
        _label_oracle(sibling)
        assert first.graph is h and "fresh" in h and v not in h


class TestEqualityAndRepr:
    def test_equality_by_fill(self):
        g = cycle_graph(4)
        assert Triangulation(g, ((0, 2),)) == Triangulation(g, ((2, 0),))
        assert Triangulation(g, ((0, 2),)) != Triangulation(g, ((1, 3),))

    def test_hashable(self):
        g = cycle_graph(4)
        bag = {Triangulation(g, ((0, 2),)), Triangulation(g, ((0, 2),))}
        assert len(bag) == 1

    def test_eq_other_type(self):
        g = cycle_graph(4)
        assert Triangulation(g, ()) != "something"

    def test_repr(self):
        g = cycle_graph(4)
        text = repr(Triangulation(g, ((0, 2),)))
        assert "width=2" in text and "fill=1" in text


class TestTreeDecompositionBridge:
    def test_tree_decomposition_is_valid_and_proper(self):
        g = cycle_graph(5)
        t = Triangulation(g, ((0, 2), (0, 3)))
        decomposition = t.tree_decomposition()
        decomposition.validate(g)
        assert decomposition.is_proper(g)
        assert decomposition.width == t.width
