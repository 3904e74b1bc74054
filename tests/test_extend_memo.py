"""Extend without a memo.

The separator-graph SGR's ``extend`` used to sit behind a bounded
memo, because most candidates of a run repeated an earlier one.  The
candidate step now skips every candidate that a found answer contains,
so no input repeats: the serial order must stay deterministic — the
same sequence run to run and under every hash seed — with one Extend
per answer, ``extend`` results must keep sharing the interned separator
objects, and the coordinator paths must keep the serial answer set.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys

import pytest

pytest.importorskip("numpy")

from repro.core.enumerate import enumerate_minimal_triangulations
from repro.engine import EnumerationEngine, EnumerationJob
from repro.graph.generators import gnp_random_graph
from repro.sgr.enum_mis import (
    EnumMISStatistics,
    enumerate_maximal_independent_sets,
)
from repro.sgr.separator_graph import MinimalSeparatorSGR


def fills(graph, count: int, **kwargs) -> list[tuple]:
    """The fill edges of the first ``count`` answers, in output order."""
    stream = enumerate_minimal_triangulations(graph, **kwargs)
    return [t.fill_edges for t in itertools.islice(stream, count)]


def answer_set(triangulations) -> set[frozenset]:
    return {frozenset(t.fill_edges) for t in triangulations}


#: Prints the fill of the first 120 atoms-path answers of a PGM graph,
#: whose str labels hash differently under every PYTHONHASHSEED.
_PGM_ORDER = """
import itertools
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.workloads.pgm import promedas_like
stream = enumerate_minimal_triangulations(
    promedas_like(40, 60, seed=310), decompose="atoms"
)
for t in itertools.islice(stream, 120):
    print(t.fill_edges)
"""


class TestSerialOrder:
    def test_acceptance_graph_order_is_unchanged(self):
        graph = gnp_random_graph(30, 0.35, seed=12345)
        stats = EnumMISStatistics()
        first = fills(graph, 300, stats=stats)
        assert fills(graph, 300) == first
        assert len(set(first)) == 300
        # Every Extend call gives a new answer.
        assert stats.extend_calls == 300
        assert stats.duplicates_suppressed == 0

    def test_pgm_atoms_order_is_unchanged(self):
        outputs = []
        for seed in ("0", "3"):
            run = subprocess.run(
                [sys.executable, "-c", _PGM_ORDER],
                check=True,
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            )
            outputs.append(run.stdout)
        assert len(outputs[0].splitlines()) == 120
        assert outputs[0] == outputs[1]


class TestSharedSeparators:
    """Equal separators in different memo entries are one int object."""

    def test_results_share_separator_objects(self):
        graph = gnp_random_graph(14, 0.35, seed=5)
        sgr = MinimalSeparatorSGR(graph)
        first_seen: dict[int, int] = {}
        occurrences = 0
        families = enumerate_maximal_independent_sets(sgr)
        for family in itertools.islice(families, 60):
            for mask in family:
                assert first_seen.setdefault(mask, mask) is mask
                occurrences += mask > 256
        # Ints above 256 are not cached by the interpreter, so only the
        # SGR's interning makes a repeat of one the identical object;
        # the run must repeat some.
        assert occurrences > sum(mask > 256 for mask in first_seen)

    def test_extend_results_hold_the_interned_objects(self):
        graph = gnp_random_graph(14, 0.35, seed=5)
        sgr = MinimalSeparatorSGR(graph)
        result = sgr.extend(frozenset())
        nodes = {mask: mask for mask in sgr.iter_nodes()}
        for mask in result:
            assert nodes[mask] is mask
        # A family decoded off the wire carries fresh int objects; its
        # extension still holds the interned ones.
        big = max(result)
        fresh = frozenset([int(str(big))])
        assert next(iter(fresh)) is not big
        extended = sgr.extend(fresh)
        assert big in extended
        for mask in extended:
            assert nodes[mask] is mask


class TestCoordinatorPaths:
    GRAPH = gnp_random_graph(14, 0.35, seed=5)

    def test_sharded_matches_serial_and_counts_covered_candidates(self):
        expected = answer_set(enumerate_minimal_triangulations(self.GRAPH))
        result = EnumerationEngine("sharded", workers=2).run(
            EnumerationJob(self.GRAPH)
        )
        assert answer_set(result.triangulations) == expected
        # The coordinator covers before it dispatches; workers only
        # extend, and every extension is an answer or a counted repeat.
        stats = result.stats
        assert stats.candidates_covered > 0
        assert stats.extend_calls == stats.answers + stats.duplicates_suppressed
        assert f"coverage: {stats.candidates_covered} of " in result.summary()

    def test_checkpointed_inline_run_matches_serial(self, tmp_path):
        expected = answer_set(enumerate_minimal_triangulations(self.GRAPH))
        result = EnumerationEngine("serial").run(
            EnumerationJob(
                self.GRAPH, checkpoint_path=str(tmp_path / "run.ckpt")
            )
        )
        assert answer_set(result.triangulations) == expected
        assert result.stats.candidates_covered > 0
