"""The bounded Extend memo of the separator-graph SGR.

The memo must preserve the output: the same answers in the same serial
order as an unmemoized run (built here by setting
``EXTEND_MEMO_LIMIT`` to 0), the same answer sets on the coordinator
paths, and its held references under the bound at every step.
"""

from __future__ import annotations

import itertools

import pytest

pytest.importorskip("numpy")

import repro.sgr.separator_graph as separator_graph
from repro.chordal.minimal_separators import minimal_separator_masks
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.core.extend import extend_parallel_set
from repro.engine import EnumerationEngine, EnumerationJob
from repro.engine.pool import WorkerState, make_payload
from repro.engine.watchdog import BatchAbortedError
from repro.graph.generators import gnp_random_graph
from repro.sgr.enum_mis import (
    EnumMISStatistics,
    enumerate_maximal_independent_sets,
)
from repro.sgr.separator_graph import MinimalSeparatorSGR
from repro.workloads.pgm import promedas_like


def fills(graph, count: int, **kwargs) -> list[tuple]:
    """The fill edges of the first ``count`` answers, in output order."""
    stream = enumerate_minimal_triangulations(graph, **kwargs)
    return [t.fill_edges for t in itertools.islice(stream, count)]


def answer_set(triangulations) -> set[frozenset]:
    return {frozenset(t.fill_edges) for t in triangulations}


class TestSerialOrder:
    def test_acceptance_graph_order_is_unchanged(self, monkeypatch):
        graph = gnp_random_graph(30, 0.35, seed=12345)
        stats = EnumMISStatistics()
        memoized = fills(graph, 300, stats=stats)
        assert stats.extend_memo_hits > 0
        monkeypatch.setattr(separator_graph, "EXTEND_MEMO_LIMIT", 0)
        plain = EnumMISStatistics()
        assert fills(graph, 300, stats=plain) == memoized
        assert plain.extend_memo_hits == 0
        # The memo answers calls; it does not remove them.
        assert plain.extend_calls == stats.extend_calls

    def test_pgm_atoms_order_is_unchanged(self, monkeypatch):
        graph = promedas_like(40, 60, seed=310)
        stats = EnumMISStatistics()
        memoized = fills(graph, 120, decompose="atoms", stats=stats)
        assert stats.extend_memo_hits > 0
        monkeypatch.setattr(separator_graph, "EXTEND_MEMO_LIMIT", 0)
        assert fills(graph, 120, decompose="atoms") == memoized

    def test_hit_returns_the_first_result_object(self):
        graph = gnp_random_graph(12, 0.4, seed=3)
        sgr = MinimalSeparatorSGR(graph)
        family = frozenset(itertools.islice(sgr.iter_nodes(), 1))
        first = sgr.extend(family)
        assert sgr.extend(frozenset(family)) is first
        assert first == extend_parallel_set(graph, family)


class TestBound:
    def test_tiny_bound_evicts_within_bound_and_keeps_answers(
        self, monkeypatch
    ):
        graph = gnp_random_graph(12, 0.35, seed=11)
        monkeypatch.setattr(separator_graph, "EXTEND_MEMO_LIMIT", 0)
        expected = set(
            enumerate_maximal_independent_sets(MinimalSeparatorSGR(graph))
        )
        limit = 40
        monkeypatch.setattr(separator_graph, "EXTEND_MEMO_LIMIT", limit)
        stats = EnumMISStatistics()
        sgr = MinimalSeparatorSGR(graph, stats=stats)
        extend = sgr.extend
        largest = 0

        def checked(family):
            nonlocal largest
            result = extend(family)
            largest = max(largest, len(family) + len(result))
            assert sgr.extend_memo_size <= 2 * limit + largest
            return result

        sgr.extend = checked
        answers = set(enumerate_maximal_independent_sets(sgr, stats=stats))
        assert answers == expected
        assert stats.extend_memo_evictions > 0


class TestCoordinatorPaths:
    GRAPH = gnp_random_graph(14, 0.35, seed=5)

    def test_sharded_matches_serial_and_sums_worker_hits(self):
        expected = answer_set(enumerate_minimal_triangulations(self.GRAPH))
        result = EnumerationEngine("sharded", workers=2).run(
            EnumerationJob(self.GRAPH)
        )
        assert answer_set(result.triangulations) == expected
        # Hits happen in the workers and reach the run through deltas.
        assert result.stats.extend_memo_hits > 0
        assert f"extend memo: {result.stats.extend_memo_hits}/" in (
            result.summary()
        )

    def test_checkpointed_inline_run_matches_serial(self, tmp_path):
        expected = answer_set(enumerate_minimal_triangulations(self.GRAPH))
        result = EnumerationEngine("serial").run(
            EnumerationJob(
                self.GRAPH, checkpoint_path=str(tmp_path / "run.ckpt")
            )
        )
        assert answer_set(result.triangulations) == expected
        assert result.stats.extend_memo_hits > 0

    def test_batch_abort_drops_the_memo(self):
        graph = gnp_random_graph(12, 0.4, seed=7)
        state = WorkerState(make_payload(graph, "mcs_m"))
        answer = tuple(
            sorted(graph.mask_of(s) for s in extend_parallel_set(graph, ()))
        )
        directions = tuple(itertools.islice(minimal_separator_masks(graph), 6))
        batch = (graph.core.alive, [(answer, directions)])
        __, stats, __ = state.run_batch(batch)
        cold_hits = stats.extend_memo_hits
        assert cold_hits < len(directions)
        __, sgr, __ = state._regions[graph.core.alive]
        assert sgr.extend_memo_size > 0
        __, stats, __ = state.run_batch(batch)
        assert stats.extend_memo_hits == len(directions)
        state.set_poison(answer[0])
        with pytest.raises(BatchAbortedError):
            state.run_batch(batch)
        assert not state._regions
        state.set_poison(0)
        __, stats, __ = state.run_batch(batch)
        assert stats.extend_memo_hits == cold_hits
