"""Tests for the packed-bitset numpy layer and the batched edge oracle.

Covers the PR 3 acceptance properties: pack/unpack round-trips, the
vectorized crossing kernel against the scalar component walk, the
numpy graph core against ``IndexedGraph`` (identical crossing matrices
and identical enumerated triangulation sets in both printing modes),
size-adaptive backend selection, and bounded-cache eviction
correctness (an evicted pair recomputes and never flips).
"""

from __future__ import annotations

import random

import pytest

from helpers import small_random_graphs
from repro.chordal.minimal_separators import (
    are_crossing_batch_masks,
    are_crossing_masks,
    minimal_separator_masks,
)
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.graph import resolve_graph_backend
from repro.graph.bitset_np import (
    NARROW_MAX_DEGREE,
    NUMPY_THRESHOLD,
    NumpyGraphCore,
    convert_graph,
    crossing_batch,
    pack_mask,
    pack_masks,
    packed_view,
    popcount,
    select_core_class,
    unpack_row,
    unpack_rows,
    word_count,
)
from repro.graph.core import IndexedGraph
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph
from repro.sgr.enum_mis import EnumMISStatistics
from repro.sgr.separator_graph import MinimalSeparatorSGR


class TestPacking:
    def test_round_trip(self):
        rng = random.Random(7)
        for __ in range(100):
            bits = rng.randint(1, 500)
            mask = rng.getrandbits(bits)
            words = word_count(bits)
            assert unpack_row(pack_mask(mask, words)) == mask

    def test_pack_masks_matrix(self):
        masks = [0, 1, (1 << 130) | 5, (1 << 64) - 1]
        words = word_count(131)
        matrix = pack_masks(masks, words)
        assert matrix.shape == (4, words)
        assert [unpack_row(row) for row in matrix] == masks

    def test_popcount_matches_bit_count(self):
        rng = random.Random(11)
        masks = [rng.getrandbits(rng.randint(1, 320)) for __ in range(40)]
        words = word_count(320)
        counts = popcount(pack_masks(masks, words))
        assert list(counts) == [mask.bit_count() for mask in masks]

    def test_word_count_floor(self):
        assert word_count(0) == 1
        assert word_count(64) == 1
        assert word_count(65) == 2


class TestCrossingKernel:
    def test_matches_scalar_on_corpus(self):
        for g in small_random_graphs(12, max_nodes=8, seed=31):
            seps = list(minimal_separator_masks(g))
            if not seps:
                continue
            core = g.core
            for s in seps:
                batch = are_crossing_batch_masks(core, s, seps)
                scalar = [are_crossing_masks(core, s, t) for t in seps]
                assert batch == scalar

    def test_kernel_direct(self):
        g = gnp_random_graph(24, 0.25, seed=5)
        seps = list(minimal_separator_masks(g))[:40]
        words = word_count(len(g.core.adj))
        for s in seps[:6]:
            components = pack_masks(g.core.components(s), words)
            remainders = pack_masks([t & ~s for t in seps], words)
            got = list(crossing_batch(components, remainders))
            expected = [are_crossing_masks(g.core, s, t) for t in seps]
            assert got == expected

    def test_empty_batch_and_many_components(self):
        # A separator with > 8 components (early-exit branch) against
        # an empty remainder matrix must return an empty vector, not
        # crash on a zero-size reduction.
        components = pack_masks([1 << i for i in range(10)], 1)
        assert list(crossing_batch(components, pack_masks([], 1))) == []
        assert list(crossing_batch(pack_masks([], 1), pack_masks([], 1))) == []
        got = crossing_batch(components, pack_masks([3, 1 | 1 << 9], 1))
        assert list(got) == [True, True]

    def test_empty_remainder_is_parallel(self):
        g = gnp_random_graph(10, 0.5, seed=3)
        seps = list(minimal_separator_masks(g))
        s = seps[0]
        # T ⊆ S gives an all-zero remainder row, which must be False.
        assert are_crossing_batch_masks(g.core, s, [s] * 6) == [False] * 6


class TestNumpyGraphCore:
    def test_query_equivalence(self):
        rng = random.Random(13)
        for n, p in ((25, 0.15), (60, 0.08), (40, 0.4)):
            g = gnp_random_graph(n, p, seed=n)
            ng = convert_graph(g, "numpy")
            assert type(ng.core) is NumpyGraphCore
            for __ in range(25):
                mask = rng.getrandbits(n) & g.core.alive
                assert g.core.neighborhood_of_set(mask) == (
                    ng.core.neighborhood_of_set(mask)
                )
                assert g.core.components(mask) == ng.core.components(mask)

    def test_mutation_invalidates_packed_cache(self):
        g = gnp_random_graph(30, 0.2, seed=9)
        ng = convert_graph(g, "numpy")
        core = ng.core
        full = core.alive
        before = core.neighborhood_of_set(full & ~3)
        u, v = 0, 1
        had = core.has_edge(u, v)
        if had:
            core.remove_edge(u, v)
        else:
            core.add_edge(u, v)
        # Recompute against the mutated adjacency through the packed path.
        mirror = IndexedGraph.__new__(IndexedGraph)
        mirror.adj = list(core.adj)
        mirror.alive = core.alive
        mirror.num_edges = core.num_edges
        assert core.neighborhood_of_set(full & ~3) == (
            mirror.neighborhood_of_set(full & ~3)
        )
        if had:
            core.add_edge(u, v)
            assert core.neighborhood_of_set(full & ~3) == before

    def test_derived_graphs_keep_backend(self):
        g = convert_graph(gnp_random_graph(20, 0.3, seed=2), "numpy")
        core = g.core
        assert type(core.copy()) is NumpyGraphCore
        assert type(core.subgraph(core.alive >> 2)) is NumpyGraphCore
        assert type(core.complement()) is NumpyGraphCore
        sub = core.subgraph(core.alive)
        assert sub.adj == core.adj and sub.alive == core.alive


class TestBackendSelection:
    def test_auto_threshold(self):
        assert select_core_class(NUMPY_THRESHOLD - 1) is IndexedGraph
        # At or above the threshold, auto picks the packed tier: the
        # native core when its compiled extension loads, else numpy.
        selected = select_core_class(NUMPY_THRESHOLD)
        assert issubclass(selected, NumpyGraphCore)
        assert select_core_class(10, "numpy") is NumpyGraphCore
        assert select_core_class(10_000, "indexed") is IndexedGraph

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            select_core_class(10, "csr")

    def test_convert_preserves_interner(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        ng = convert_graph(g, "numpy")
        assert ng is not g
        assert ng == g
        # Identical index assignment: masks are interchangeable.
        assert ng.mask_of({"a", "c"}) == g.mask_of({"a", "c"})
        back = convert_graph(ng, "indexed")
        assert type(back.core) is IndexedGraph
        assert back == g

    def test_auto_never_downgrades_explicit_numpy(self):
        g = convert_graph(gnp_random_graph(12, 0.3, seed=1), "numpy")
        assert convert_graph(g, "auto") is g

    def test_resolve_small_graph_is_identity(self):
        g = gnp_random_graph(12, 0.3, seed=1)
        assert resolve_graph_backend(g) is g
        assert resolve_graph_backend(g, None) is g


class TestBatchOracleEquivalence:
    def test_batch_matches_scalar_on_corpus(self):
        for g in small_random_graphs(12, max_nodes=8, seed=41):
            seps = list(minimal_separator_masks(g))
            if not seps:
                continue
            batch_sgr = MinimalSeparatorSGR(g)
            scalar_sgr = MinimalSeparatorSGR(g)
            for v in seps:
                batch = batch_sgr.has_edges_batch(v, seps)
                scalar = [scalar_sgr.has_edge(v, u) for u in seps]
                assert batch == scalar

    def test_batch_counters_and_memoization(self):
        g = gnp_random_graph(14, 0.35, seed=17)
        seps = list(minimal_separator_masks(g))
        stats = EnumMISStatistics()
        sgr = MinimalSeparatorSGR(g, stats=stats)
        v = seps[0]
        first = sgr.has_edges_batch(v, seps)
        assert stats.edge_cache_misses == len(seps)
        assert stats.edge_cache_hits == 0
        second = sgr.has_edges_batch(v, seps)
        assert second == first
        assert stats.edge_cache_hits == len(seps)
        # The scalar oracle shares the same cache rows.
        assert [sgr.has_edge(v, u) for u in seps] == first
        assert stats.edge_cache_misses == len(seps)

    def test_reversed_orientation_reuses_cached_pair(self):
        # Crossing is symmetric: a pair cached under one query node
        # must be found (as a hit, not a recompute) when the same pair
        # is queried through the scalar oracle the other way round.
        g = gnp_random_graph(12, 0.4, seed=37)
        seps = list(minimal_separator_masks(g))
        u, v = seps[0], seps[1]
        stats = EnumMISStatistics()
        sgr = MinimalSeparatorSGR(g, stats=stats)
        first = sgr.has_edge(u, v)
        assert (stats.edge_cache_hits, stats.edge_cache_misses) == (0, 1)
        assert sgr.has_edge(v, u) == first
        assert (stats.edge_cache_hits, stats.edge_cache_misses) == (1, 1)

    def test_identical_crossing_matrices_across_backends(self):
        for g in small_random_graphs(8, max_nodes=8, seed=47):
            ng = convert_graph(g, "numpy")
            seps = list(minimal_separator_masks(g))
            if not seps:
                continue
            sgr_indexed = MinimalSeparatorSGR(g)
            sgr_numpy = MinimalSeparatorSGR(ng)
            matrix_indexed = [
                sgr_indexed.has_edges_batch(v, seps) for v in seps
            ]
            matrix_numpy = [
                sgr_numpy.has_edges_batch(v, seps) for v in seps
            ]
            assert matrix_indexed == matrix_numpy


class TestEnumerationEquivalence:
    def test_identical_answer_sets_both_modes(self):
        for g in small_random_graphs(10, max_nodes=8, seed=53):
            for mode in ("UG", "UP"):
                indexed = {
                    t.fill_edges
                    for t in enumerate_minimal_triangulations(g, mode=mode)
                }
                numpy_backend = {
                    t.fill_edges
                    for t in enumerate_minimal_triangulations(
                        g, mode=mode, graph_backend="numpy"
                    )
                }
                assert indexed == numpy_backend

    def test_engine_backends_with_numpy_core(self):
        from repro.engine import EnumerationEngine, EnumerationJob

        g = gnp_random_graph(13, 0.35, seed=29)
        reference = {
            t.fill_edges
            for t in EnumerationEngine("serial").stream(EnumerationJob(g))
        }
        forced = {
            t.fill_edges
            for t in EnumerationEngine("serial").stream(
                EnumerationJob(g, graph_backend="numpy")
            )
        }
        sharded = {
            t.fill_edges
            for t in EnumerationEngine("sharded", workers=2).stream(
                EnumerationJob(g, graph_backend="numpy")
            )
        }
        assert reference == forced == sharded
        assert reference

    def test_job_rejects_unknown_graph_backend(self):
        from repro.engine import EngineError, EnumerationJob

        job = EnumerationJob(gnp_random_graph(6, 0.5, seed=1), graph_backend="csr")
        with pytest.raises(EngineError):
            job.validate()


class TestBoundedEdgeCache:
    def test_eviction_recomputes_and_never_flips(self):
        g = gnp_random_graph(12, 0.4, seed=11)
        seps = list(minimal_separator_masks(g))
        reference = MinimalSeparatorSGR(g, edge_cache_limit=None)
        answers = {
            (u, v): reference.has_edge(u, v)
            for u in seps
            for v in seps
        }
        stats = EnumMISStatistics()
        sgr = MinimalSeparatorSGR(g, stats=stats, edge_cache_limit=8)
        rng = random.Random(3)
        pairs = list(answers)
        for __ in range(4):
            rng.shuffle(pairs)
            for u, v in pairs:
                assert sgr.has_edge(u, v) == answers[(u, v)]
        assert stats.edge_cache_evictions > 0
        # Two generations of at most the limit each.
        assert sgr.edge_cache_size <= 2 * 8

    def test_eviction_correct_through_batch_oracle(self):
        g = gnp_random_graph(12, 0.4, seed=19)
        seps = list(minimal_separator_masks(g))
        reference = MinimalSeparatorSGR(g, edge_cache_limit=None)
        expected = {
            v: reference.has_edges_batch(v, seps) for v in seps
        }
        stats = EnumMISStatistics()
        sgr = MinimalSeparatorSGR(g, stats=stats, edge_cache_limit=5)
        for __ in range(3):
            for v in seps:
                assert sgr.has_edges_batch(v, seps) == expected[v]
        assert stats.edge_cache_evictions > 0
        assert (
            stats.edge_cache_hits + stats.edge_cache_misses
            == 3 * len(seps) * len(seps)
        )

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            MinimalSeparatorSGR(
                gnp_random_graph(5, 0.5, seed=1), edge_cache_limit=0
            )

    def test_unbounded_cache_never_evicts(self):
        g = gnp_random_graph(10, 0.4, seed=23)
        seps = list(minimal_separator_masks(g))
        stats = EnumMISStatistics()
        sgr = MinimalSeparatorSGR(g, stats=stats, edge_cache_limit=None)
        for v in seps:
            sgr.has_edges_batch(v, seps)
        assert stats.edge_cache_evictions == 0
        assert sgr.edge_cache_size == len(seps) * len(seps)


class TestWidthAdaptiveGate:
    """Deep/narrow graphs route back to the int-mask Extend path."""

    def _numpy_graph(self, graph: Graph) -> Graph:
        return convert_graph(graph, "numpy")

    def test_narrow_shapes_are_gated(self):
        from repro.graph.generators import cycle_graph, path_graph

        for g in (cycle_graph(60), path_graph(40)):
            core = self._numpy_graph(g).core
            assert core.is_narrow()
            assert packed_view(core) is None

    def test_wide_shapes_are_not_gated(self):
        g = self._numpy_graph(gnp_random_graph(40, 0.3, seed=12))
        assert not g.core.is_narrow()
        assert packed_view(g.core) is not None

    def test_one_chord_flips_the_gate(self):
        from repro.graph.generators import cycle_graph

        g = cycle_graph(30)
        assert self._numpy_graph(g).core.is_narrow()
        g.add_edge(0, 15)  # one degree-3 vertex: no longer narrow
        assert not self._numpy_graph(g).core.is_narrow()

    def test_gate_threshold_is_frontier_width_two(self):
        assert NARROW_MAX_DEGREE == 2

    def test_cached_verdict_invalidates_on_mutation(self):
        from repro.graph.generators import cycle_graph

        core = self._numpy_graph(cycle_graph(20)).core
        assert core.is_narrow() and core.is_narrow()  # cached path too
        core.add_edge(0, 10)
        assert not core.is_narrow()
        core.remove_edge(0, 10)
        assert core.is_narrow()
        # Saturation raises degrees in place (the one mutation that
        # keeps the packed mirror live) and must drop the verdict too.
        core.saturate(0b1111)
        assert not core.is_narrow()

    def test_gated_triangulation_matches_reference(self):
        # The gate only selects kernels: a numpy-backed long cycle must
        # produce exactly the int-mask results through the whole Extend
        # pipeline (MCS-M, LB-Triang, the enumeration on top).
        from repro.chordal.triangulate import lb_triang, mcs_m
        from repro.graph.generators import cycle_graph

        long_cycle = cycle_graph(48)
        packed_cycle = self._numpy_graph(long_cycle)
        assert mcs_m(packed_cycle) == mcs_m(long_cycle)
        assert lb_triang(packed_cycle) == lb_triang(long_cycle)
        # Full enumeration on a cycle short enough to finish (the
        # minimal triangulations of C_n number Catalan(n - 2)).
        indexed = cycle_graph(9)
        packed = self._numpy_graph(indexed)
        expected = {
            frozenset(t.fill_edges)
            for t in enumerate_minimal_triangulations(indexed)
        }
        got = {
            frozenset(t.fill_edges)
            for t in enumerate_minimal_triangulations(
                packed, graph_backend=None
            )
        }
        assert got == expected

    def test_unpack_rows_round_trips(self):
        rng = random.Random(31)
        masks = [rng.getrandbits(200) for __ in range(17)]
        words = word_count(200)
        assert unpack_rows(pack_masks(masks, words)) == masks
