"""Tests for the packed-bitset numpy layer and the batched edge oracle.

Covers pack/unpack round-trips, the SGR's batched crossing oracle
against the stateless component walk on every graph-core tier (with
no kernel namespace reachable from it), the numpy graph core against
``IndexedGraph`` (identical crossing matrices and identical enumerated
triangulation sets in both printing modes), size-adaptive backend
selection, and bounded-cache eviction correctness (an evicted pair
recomputes and never flips).
"""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import (
    PACKED_TIERS,
    checked_saturate,
    requires_native,
    small_random_graphs,
)
from repro.chordal.minimal_separators import (
    are_crossing_masks,
    minimal_separator_masks,
)
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.graph import resolve_graph_backend
from repro.graph.bitset_np import (
    NUMPY_THRESHOLD,
    NumpyGraphCore,
    convert_graph,
    pack_masks,
    select_core_class,
    unpack_row,
    unpack_rows,
    word_count,
)
from repro.graph.core import IndexedGraph
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph
from repro.sgr import separator_graph
from repro.sgr.enum_mis import EnumMISStatistics
from repro.sgr.separator_graph import MinimalSeparatorSGR


class TestPacking:
    def test_round_trip(self):
        rng = random.Random(7)
        for __ in range(100):
            bits = rng.randint(1, 500)
            mask = rng.getrandbits(bits)
            words = word_count(bits)
            assert unpack_row(pack_masks([mask], words)[0]) == mask

    def test_pack_masks_matrix(self):
        masks = [0, 1, (1 << 130) | 5, (1 << 64) - 1]
        words = word_count(131)
        matrix = pack_masks(masks, words)
        assert matrix.shape == (4, words)
        assert [unpack_row(row) for row in matrix] == masks

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
            sgr = MinimalSeparatorSGR(g)
            for s in seps:
                batch = sgr.has_edges_batch(s, seps)
                scalar = [are_crossing_masks(g.core, s, t) for t in seps]
                assert batch == scalar

    def test_empty_remainder_is_parallel(self):
        g = gnp_random_graph(10, 0.5, seed=3)
        seps = list(minimal_separator_masks(g))
        s = seps[0]
        # T ⊆ S leaves an empty remainder, which must be False.
        sgr = MinimalSeparatorSGR(g)
        assert sgr.has_edges_batch(s, [s] * 6) == [False] * 6


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

    @pytest.mark.parametrize("tier", PACKED_TIERS)
    def test_readonly_mirror_detaches_on_saturate(self, tier):
        # ``pack_masks`` views ``bytes``, so every mirror ``_matrix``
        # builds is read-only; ``saturate`` must fill a writable copy.
        # (numpy's ``ufunc.at`` writes through the read-only flag, so
        # the old mirror's bytes are checked, not only an exception.)
        g = gnp_random_graph(40, 0.25, seed=6)
        core = convert_graph(g, tier).core
        mirror = core._matrix()
        assert not mirror.flags.writeable
        before = mirror.tobytes()
        mask = sum(1 << v for v in range(NumpyGraphCore.MIN_GATHER + 4))
        oracle = g.core.copy()
        added = checked_saturate(oracle, mask)
        assert added
        assert sorted(checked_saturate(core, mask)) == sorted(added)
        assert mirror.tobytes() == before
        assert core.adj == oracle.adj
        assert core._matrix().tobytes() == (
            pack_masks(oracle.adj, word_count(len(oracle.adj))).tobytes()
        )


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

    @pytest.mark.parametrize("tier", ("indexed",) + PACKED_TIERS)
    @pytest.mark.parametrize("n, p", [(30, 0.35), (200, 0.05)])
    def test_batch_scalar_and_stateless_oracles_agree(self, tier, n, p):
        # The first 8 separators probe the next 48.  The scalar oracle
        # runs on a fresh SGR, so no pair is served from the batch
        # oracle's edge cache.
        graph = resolve_graph_backend(
            gnp_random_graph(n, p, seed=12345), tier
        )
        masks = list(itertools.islice(minimal_separator_masks(graph), 56))
        probes, candidates = masks[:8], masks[8:]
        assert len(candidates) == 48
        batch_sgr = MinimalSeparatorSGR(graph)
        batch = [batch_sgr.has_edges_batch(v, candidates) for v in probes]
        scalar_sgr = MinimalSeparatorSGR(graph)
        scalar = [
            [scalar_sgr.has_edge(v, u) for u in candidates] for v in probes
        ]
        stateless = [
            [are_crossing_masks(graph.core, v, u) for u in candidates]
            for v in probes
        ]
        assert batch == scalar
        assert stateless == scalar
        assert 0 < sum(map(sum, scalar)) < len(probes) * len(candidates)

    @pytest.mark.parametrize("tier", PACKED_TIERS)
    def test_oracle_needs_no_kernel_tier(self, tier, monkeypatch):
        # The crossing oracle is the int-mask component walk on every
        # tier: once the components of g \ v are cached (they come
        # from the core's own sweep primitive), answering a sweep must
        # not reach for the core's kernel namespace at all.
        plain = gnp_random_graph(200, 0.05, seed=12345)
        graph = resolve_graph_backend(plain, tier)
        masks = list(itertools.islice(minimal_separator_masks(plain), 56))
        probes, candidates = masks[:8], masks[8:]
        expected = [
            [are_crossing_masks(plain.core, v, u) for u in candidates]
            for v in probes
        ]
        sgr = MinimalSeparatorSGR(graph)
        for v in probes:
            sgr._components(v)

        def no_kernels(*_args):
            raise AssertionError("crossing oracle reached a kernel tier")

        monkeypatch.setattr(
            type(graph.core), "_kernel_namespace", no_kernels
        )
        got = [sgr.has_edges_batch(v, candidates) for v in probes]
        assert got == expected


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

    @staticmethod
    def _engine_backends_agree_on(tier: str) -> None:
        from repro.engine import EnumerationEngine, EnumerationJob

        g = gnp_random_graph(13, 0.35, seed=29)
        reference = {
            t.fill_edges
            for t in EnumerationEngine("serial").stream(EnumerationJob(g))
        }
        forced = {
            t.fill_edges
            for t in EnumerationEngine("serial").stream(
                EnumerationJob(g, graph_backend=tier)
            )
        }
        result = EnumerationEngine("sharded", workers=2).run(
            EnumerationJob(g, graph_backend=tier)
        )
        sharded = {t.fill_edges for t in result.triangulations}
        assert reference == forced == sharded
        assert reference
        # Every batch ran on the requested tier, in the workers too.
        assert set(result.stats.kernel_tiers) == {tier}

    def test_engine_backends_with_numpy_core(self):
        self._engine_backends_agree_on("numpy")

    @requires_native
    def test_engine_backends_with_native_core(self):
        self._engine_backends_agree_on("native")

    def test_job_rejects_unknown_graph_backend(self):
        from repro.engine import EngineError, EnumerationJob

        job = EnumerationJob(gnp_random_graph(6, 0.5, seed=1), graph_backend="csr")
        with pytest.raises(EngineError):
            job.validate()


class TestBoundedEdgeCache:
    def test_eviction_recomputes_and_never_flips(self, monkeypatch):
        g = gnp_random_graph(12, 0.4, seed=11)
        seps = list(minimal_separator_masks(g))
        reference = MinimalSeparatorSGR(g)
        answers = {
            (u, v): reference.has_edge(u, v)
            for u in seps
            for v in seps
        }
        monkeypatch.setattr(separator_graph, "EDGE_CACHE_LIMIT", 8)
        stats = EnumMISStatistics()
        sgr = MinimalSeparatorSGR(g, stats=stats)
        rng = random.Random(3)
        pairs = list(answers)
        for __ in range(4):
            rng.shuffle(pairs)
            for u, v in pairs:
                assert sgr.has_edge(u, v) == answers[(u, v)]
        assert stats.edge_cache_evictions > 0
        # Two generations of at most the limit each.
        assert sgr.edge_cache_size <= 2 * 8

    def test_eviction_correct_through_batch_oracle(self, monkeypatch):
        g = gnp_random_graph(12, 0.4, seed=19)
        seps = list(minimal_separator_masks(g))
        reference = MinimalSeparatorSGR(g)
        expected = {
            v: reference.has_edges_batch(v, seps) for v in seps
        }
        monkeypatch.setattr(separator_graph, "EDGE_CACHE_LIMIT", 5)
        stats = EnumMISStatistics()
        sgr = MinimalSeparatorSGR(g, stats=stats)
        for __ in range(3):
            for v in seps:
                assert sgr.has_edges_batch(v, seps) == expected[v]
        assert stats.edge_cache_evictions > 0
        assert (
            stats.edge_cache_hits + stats.edge_cache_misses
            == 3 * len(seps) * len(seps)
        )

    def test_unbounded_cache_never_evicts(self):
        g = gnp_random_graph(10, 0.4, seed=23)
        seps = list(minimal_separator_masks(g))
        stats = EnumMISStatistics()
        sgr = MinimalSeparatorSGR(g, stats=stats)
        for v in seps:
            sgr.has_edges_batch(v, seps)
        assert stats.edge_cache_evictions == 0
        assert sgr.edge_cache_size == len(seps) * len(seps)


class TestWidthAdaptiveGate:
    """Deep, narrow graphs give the int-mask results on the packed tier."""

    def test_gated_triangulation_matches_reference(self):
        # A packed long cycle (every sweep frontier at most 2 vertices
        # wide) must produce exactly the int-mask results through the
        # whole Extend pipeline (MCS-M, LB-Triang, the enumeration on
        # top) on both packed tiers.
        from repro.chordal.triangulate import lb_triang, mcs_m
        from repro.graph.generators import cycle_graph

        long_cycle = cycle_graph(48)
        # Full enumeration on a cycle short enough to finish (the
        # minimal triangulations of C_n number Catalan(n - 2)).
        indexed = cycle_graph(9)
        expected = {
            frozenset(t.fill_edges)
            for t in enumerate_minimal_triangulations(indexed)
        }
        for tier in ("numpy", "native"):
            packed_cycle = convert_graph(long_cycle, tier)
            assert mcs_m(packed_cycle) == mcs_m(long_cycle)
            for heuristic in ("min_fill", "min_degree", "natural"):
                assert lb_triang(
                    packed_cycle, heuristic=heuristic
                ) == lb_triang(long_cycle, heuristic=heuristic)
            packed = convert_graph(indexed, tier)
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
