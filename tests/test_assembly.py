"""The one job assembly (``repro.engine.sharded.coordinated_stream``).

Every backend runs the same assembly; these tests pin its answer
*sequences* (not just sets) against reference pipelines: a per-region
EnumMIS loop combined by ``helpers.reference_fair_product``, and the
label-level ranked loop ``helpers.reference_ranked``.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import reference_fair_product, reference_ranked, small_random_graphs
from repro.chordal.atoms import atoms
from repro.chordal.triangulate import get_triangulator
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.core.ranked import enumerate_minimal_triangulations_prioritized
from repro.core.triangulation import Triangulation
from repro.engine import EnumerationEngine, EnumerationJob, sharded
from repro.graph.components import connected_components, is_connected
from repro.graph.generators import cycle_graph, gnp_random_graph, grid_graph
from repro.graph.graph import Graph
from repro.sgr.enum_mis import enumerate_maximal_independent_sets
from repro.sgr.separator_graph import MinimalSeparatorSGR
from repro.workloads.pgm import promedas_like

SRC = Path(__file__).resolve().parents[1] / "src"

# The first 200 serial answers of a str-labelled Gnp(18, 0.3, seed=5),
# one sorted fill-edge tuple per line.
_STR_LABEL_ORDER = """
import itertools
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph

g = gnp_random_graph(18, 0.3, seed=5)
graph = Graph(
    nodes=[f"v{u}" for u in g.nodes()],
    edges=[(f"v{u}", f"v{v}") for u, v in g.edges()],
)
for t in itertools.islice(enumerate_minimal_triangulations(graph), 200):
    print(t.fill_edges)
"""


def _fills(triangulations) -> list:
    return [t.fill_edges for t in triangulations]


def _region_triangulations(region: Graph, mode: str):
    """One region's answers as the serial pipeline built them."""
    sgr = MinimalSeparatorSGR(region, get_triangulator("mcs_m"))
    for family in enumerate_maximal_independent_sets(sgr, mode=mode):
        scratch = region.copy()
        fill = []
        for mask in family:
            fill.extend(scratch.saturate(region.label_set(mask)))
        yield Triangulation(region, tuple(fill))


def _reference_sequence(graph: Graph, regions: list, mode: str = "UG"):
    """Per-region EnumMIS combined by the reference fair product."""
    if len(regions) <= 1:
        yield from _region_triangulations(graph, mode)
        return
    streams = [
        _region_triangulations(graph.subgraph(region), mode)
        for region in regions
    ]
    for combination in reference_fair_product(streams):
        fill = []
        for part in combination:
            fill.extend(part.fill_edges)
        yield Triangulation(graph, tuple(fill))


def _take(iterator, limit):
    out = []
    for item in iterator:
        out.append(item)
        if len(out) >= limit:
            break
    return out


class TestProductOrder:
    """``_product_stream`` emits the reference fair product's order."""

    @staticmethod
    def _element(region: int, index: int) -> tuple:
        # A one-edge "fill" naming its region and position, so a
        # combination's fill set identifies the combination.
        return ((f"r{region}", f"r{region}e{index}"),)

    def _product(self, monkeypatch, lengths: list[int]) -> list:
        monkeypatch.setattr(
            sharded,
            "_materialise",
            lambda region, answer: SimpleNamespace(fill_edges=answer),
        )
        streams = [
            iter([self._element(r, i) for i in range(length)])
            for r, length in enumerate(lengths)
        ]
        return _fills(
            sharded._product_stream(
                Graph(), [None] * len(lengths), streams, None, None
            )
        )

    def _reference(self, lengths: list[int]) -> list:
        streams = [
            iter([self._element(r, i) for i in range(length)])
            for r, length in enumerate(lengths)
        ]
        return _fills(
            Triangulation(Graph(), tuple(edge for part in combo for edge in part))
            for combo in reference_fair_product(streams)
        )

    def test_random_shapes(self, monkeypatch):
        rng = random.Random(2024)
        for __ in range(300):
            lengths = [rng.randint(1, 5) for __ in range(rng.randint(2, 5))]
            assert self._product(monkeypatch, lengths) == self._reference(
                lengths
            ), lengths

    @pytest.mark.parametrize(
        "lengths", [[1, 1], [1, 4], [4, 1], [1, 1, 1], [3, 1, 2], [1, 3, 1, 1]]
    )
    def test_length_one_generators(self, monkeypatch, lengths):
        product = self._product(monkeypatch, lengths)
        assert product == self._reference(lengths)
        expected = 1
        for length in lengths:
            expected *= length
        assert len(product) == len(set(product)) == expected


class TestSerialSequence:
    """Serial jobs yield exactly the per-region EnumMIS + fair product order."""

    def test_two_component_graph(self):
        g = gnp_random_graph(9, 0.4, seed=8)
        edges = list(g.edges()) + [(u + 100, v + 100) for u, v in g.edges()]
        graph = Graph(edges=edges)
        regions = connected_components(graph)
        assert len(regions) == 2
        for mode in ("UG", "UP"):
            expected = _fills(_reference_sequence(graph, regions, mode))
            got = _fills(enumerate_minimal_triangulations(graph, mode=mode))
            assert got == expected, mode

    def test_promedas_atoms_prefix(self):
        graph = promedas_like(40, 60, seed=0)
        regions = atoms(graph)
        assert len(regions) > 1
        expected = _fills(_take(_reference_sequence(graph, regions), 300))
        got = _fills(
            EnumerationEngine("serial").stream(
                EnumerationJob(graph, decompose="atoms", max_results=300)
            )
        )
        assert len(got) == 300
        assert got == expected

    def test_order_does_not_depend_on_label_hashes(self):
        # Separators are vertex masks throughout, so str labels (whose
        # hashes vary with PYTHONHASHSEED) cannot reorder the answers.
        runs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
            runs.append(
                subprocess.run(
                    [sys.executable, "-c", _STR_LABEL_ORDER],
                    env=env, check=True, capture_output=True, text=True,
                ).stdout
            )
        assert runs[0].count("\n") == 200
        assert runs[0] == runs[1]

    def test_connected_corpus(self):
        for graph in small_random_graphs(12, max_nodes=8, seed=4242):
            if not is_connected(graph):
                continue
            expected = _fills(_reference_sequence(graph, [graph.node_set()]))
            assert _fills(enumerate_minimal_triangulations(graph)) == expected


class TestRankedSequence:
    def test_connected_property_corpus(self):
        corpus = [
            graph
            for graph in small_random_graphs(30, max_nodes=10, seed=1401)
            if is_connected(graph)
        ] + [grid_graph(3, 3), cycle_graph(7)]
        reordered = 0
        for graph in corpus:
            for cost in ("width", "fill"):
                expected = _fills(reference_ranked(graph, cost=cost))
                got = _fills(
                    enumerate_minimal_triangulations_prioritized(
                        graph, cost=cost
                    )
                )
                assert got == expected, (graph.edges(), cost)
                plain = _fills(enumerate_minimal_triangulations(graph, mode="UP"))
                reordered += got != plain
        # The corpus must tell a ranked order from the plain one.
        assert len(corpus) >= 15 and reordered >= 4


class TestRankedQueueHoldsMasks:
    """A ranked job keeps no Triangulation alive for its queued answers.

    The priority scores a Triangulation whose cached graph and clique
    forest are a copy of the whole graph; the queue must hold separator
    masks only, so memory does not grow by a graph per queued answer.
    """

    @staticmethod
    def _live_triangulations() -> int:
        gc.collect()
        return sum(isinstance(o, Triangulation) for o in gc.get_objects())

    @pytest.mark.parametrize("backend", ["serial", "sharded", "checkpointed"])
    def test_no_triangulation_outlives_its_answer(self, backend, tmp_path):
        graph = gnp_random_graph(10, 0.4, seed=3)
        assert is_connected(graph)
        fields = {}
        if backend == "checkpointed":
            backend, fields = "serial", {"checkpoint_path": tmp_path / "job.ckpt"}
        job = EnumerationJob(graph, cost="width", **fields)
        baseline = self._live_triangulations()
        held = []
        count = 0
        for triangulation in EnumerationEngine(backend, workers=2).stream(job):
            del triangulation
            count += 1
            if count % 4 == 0:
                held.append(self._live_triangulations() - baseline)
        assert count > 10
        # One: the engine's stream wrapper still names the last answer.
        assert held and max(held) <= 1, held

class TestErrorTypes:
    """Invalid arguments stay ``ValueError`` through the engine."""

    def test_bogus_decompose(self):
        with pytest.raises(ValueError, match="decompose"):
            list(enumerate_minimal_triangulations(Graph(edges=[(0, 1)]), decompose="bogus"))

    def test_bogus_mode(self):
        with pytest.raises(ValueError, match="mode"):
            list(enumerate_minimal_triangulations(Graph(edges=[(0, 1)]), mode="XX"))
