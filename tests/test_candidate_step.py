"""The candidate step shared by both Figure-1 loops.

``candidate_families`` skips every candidate that a found answer
already contains.  These tests pin what that must not change — on the
property corpus every path enumerates exactly the brute-force answer
set, with no answer twice — and what it does change: on the plain
serial path every ``Extend`` call gives a new answer.  The serial
order's independence of the hash seed is pinned in
``test_extend_memo.py``.
"""

from __future__ import annotations

import pytest

from helpers import small_random_graphs
from repro.baselines.brute_force import brute_force_minimal_triangulations
from repro.chordal.atoms import atoms
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.engine import EnumerationEngine, EnumerationJob
from repro.graph.components import connected_components
from repro.graph.generators import cycle_graph, gnp_random_graph
from repro.graph.graph import Graph
from repro.sgr.base import ExplicitSGR
from repro.sgr.enum_mis import (
    EnumMISStatistics,
    FoundAnswers,
    candidate_families,
    enumerate_maximal_independent_sets,
)
from repro.workloads.pgm import promedas_like

#: The property corpus: small random graphs, two of them disconnected
#: (several regions), plus a cycle with many answers.
CORPUS = small_random_graphs(8, max_nodes=7, seed=26) + [
    gnp_random_graph(7, 0.3, seed=4),
    cycle_graph(7),
]

#: Inputs with enough answers to stop half-way: one region, and two
#: regions whose product the checkpoint also records.
RESUME_GRAPHS = [
    cycle_graph(7),
    Graph(
        edges=[(u, v) for u, v in cycle_graph(6).edges()]
        + [(u + 10, v + 10) for u, v in cycle_graph(5).edges()]
    ),
]


def fill_sets(triangulations) -> list[frozenset]:
    """Each answer's fill as a set of unordered pairs, in output order."""
    return [
        frozenset(frozenset(edge) for edge in t.fill_edges)
        for t in triangulations
    ]


def assert_exact(answers: list[frozenset], graph: Graph) -> None:
    """No answer twice, and exactly the brute-force answer set."""
    assert len(answers) == len(set(answers))
    assert set(answers) == brute_force_minimal_triangulations(graph)


class TestFoundAnswers:
    def test_covers_means_contained_in_one_answer(self):
        found = FoundAnswers()
        assert found.add(frozenset({1, 2, 3}))
        assert found.add(frozenset({3, 4}))
        assert not found.add(frozenset({3, 4}))
        assert found.covers([1, 3])
        assert found.covers([4])
        # 1 and 4 are both found, but never in one answer.
        assert not found.covers([1, 4])
        assert not found.covers([5])

    def test_step_skips_covered_candidates(self):
        # A path a - b - c: the maximal independent sets are {a, c} and
        # {b}.  Once both are found, every candidate is covered.
        sgr = ExplicitSGR(Graph(edges=[("a", "b"), ("b", "c")]))
        found = FoundAnswers()
        stats = EnumMISStatistics()
        found.add(frozenset({"a", "c"}))
        step = candidate_families(
            sgr, frozenset({"a", "c"}), ["a", "b", "c"], found, stats
        )
        assert list(step) == [frozenset({"b"})]
        # v ∈ J costs no sweep: only b was swept, against a and c.
        assert stats.candidates_covered == 2
        assert stats.edge_oracle_calls == 2
        found.add(frozenset({"b"}))
        again = candidate_families(
            sgr, frozenset({"a", "c"}), ["b"], found, stats
        )
        assert list(again) == []
        assert stats.candidates_covered == 3


class TestSerialPaths:
    @pytest.mark.parametrize("mode", ["UG", "UP"])
    def test_plain_loop_matches_brute_force(self, mode):
        for graph in CORPUS:
            answers = fill_sets(enumerate_minimal_triangulations(graph, mode=mode))
            assert_exact(answers, graph)

    @pytest.mark.parametrize("cost", ["width", "fill"])
    def test_ranked_loop_matches_brute_force(self, cost):
        engine = EnumerationEngine("serial")
        for graph in CORPUS:
            result = engine.run(EnumerationJob(graph, cost=cost))
            assert_exact(fill_sets(result.triangulations), graph)

    def test_enum_mis_on_explicit_graphs(self):
        # The generic loop covers with the scalar edge oracle.
        for graph in CORPUS:
            produced = list(enumerate_maximal_independent_sets(ExplicitSGR(graph)))
            assert len(produced) == len(set(produced))


class TestCoordinatorPaths:
    @pytest.mark.parametrize("mode", ["UG", "UP"])
    def test_inline_checkpointed_run_matches_brute_force(self, tmp_path, mode):
        engine = EnumerationEngine("serial")
        for index, graph in enumerate(CORPUS):
            path = tmp_path / f"{mode}{index}.ckpt"
            result = engine.run(
                EnumerationJob(graph, mode=mode, checkpoint_path=path)
            )
            assert_exact(fill_sets(result.triangulations), graph)

    @pytest.mark.parametrize("mode", ["UG", "UP"])
    def test_resume_from_mid_run_checkpoint(self, tmp_path, mode):
        # The first run stops mid-way, after saving on every answer; the
        # resume rebuilds the found-answer index from P ∪ Q and must
        # yield exactly the rest of the serial answer set, none of them
        # twice.
        engine = EnumerationEngine("serial")
        for index, graph in enumerate(RESUME_GRAPHS):
            expected = fill_sets(enumerate_minimal_triangulations(graph))
            path = tmp_path / f"{mode}{index}.ckpt"
            first = engine.run(
                EnumerationJob(
                    graph,
                    mode=mode,
                    checkpoint_path=path,
                    checkpoint_every=1,
                    max_results=len(expected) // 2,
                )
            )
            second = engine.run(
                EnumerationJob(graph, mode=mode, checkpoint_path=path, resume=True)
            )
            answers = fill_sets(first.triangulations) + fill_sets(
                second.triangulations
            )
            assert len(answers) == len(set(answers))
            assert set(answers) == set(expected)

    def test_sharded_run_matches_brute_force(self):
        engine = EnumerationEngine("sharded", workers=2)
        for graph in CORPUS:
            result = engine.run(EnumerationJob(graph))
            assert_exact(fill_sets(result.triangulations), graph)
            stats = result.stats
            assert stats.extend_calls == stats.answers + stats.duplicates_suppressed

    def test_distributed_run_matches_brute_force(self):
        from test_distributed import run_distributed

        for graph in CORPUS[-3:]:
            result = run_distributed(EnumerationJob(graph))
            assert_exact(fill_sets(result.triangulations), graph)


def region_answer_count(graph: Graph, decompose: str) -> int:
    """Answers summed over the regions of a decomposition."""
    split = atoms if decompose == "atoms" else connected_components
    regions = [graph.subgraph(nodes) for nodes in split(graph)]
    return sum(
        len(list(enumerate_minimal_triangulations(region, decompose="none")))
        for region in regions
    )


class TestSerialBehaviour:
    @pytest.mark.parametrize(
        "graph, decompose",
        [
            (gnp_random_graph(12, 0.35, seed=11), "components"),
            (RESUME_GRAPHS[1], "components"),
            (promedas_like(12, 18, seed=3), "atoms"),
        ],
    )
    def test_one_extend_per_region_answer(self, graph, decompose):
        stats = EnumMISStatistics()
        list(
            enumerate_minimal_triangulations(
                graph, decompose=decompose, stats=stats
            )
        )
        # Each region's Extend(∅) included; no call gives back an answer
        # the loop already has.
        assert stats.extend_calls == region_answer_count(graph, decompose)
        assert stats.extend_calls == stats.answers
        assert stats.duplicates_suppressed == 0
        assert stats.candidates_covered > 0
