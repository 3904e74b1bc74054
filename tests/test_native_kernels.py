"""Tests for the native C kernel tier (PR 6).

Three layers of pinning:

* every native kernel against the numpy module *and* (where one
  exists) the int-mask reference oracle, on randomized word matrices
  whose slot count is deliberately not a multiple of 64;
* ``NativeGraphCore`` against ``NumpyGraphCore`` end to end —
  identical enumerated triangulation sets in both printing modes on
  the property corpus, identical sharded-worker rebuilds from packed
  payloads;
* the degradation story — auto-selection and explicit ``"native"``
  requests fall back to the numpy core on a monkeypatched load
  failure, and corrupt or stale build artefacts trigger a clean
  rebuild instead of an error.

Kernel-parity tests skip when the extension cannot be built (no
compiler in the environment); the fallback tests run everywhere —
that path *is* what they test.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from helpers import checked_saturate, requires_native, small_random_graphs
from repro.analysis.rules.kernel_parity import NON_KERNEL_EXPORTS
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.engine.pool import InlineRunner, _rebuild_graph, make_payload
from repro.graph import bitset_np as bnp
from repro.graph._native import native
from repro.graph.bitset_np import (
    GRAPH_BACKENDS,
    NUMPY_THRESHOLD,
    NumpyGraphCore,
    convert_graph,
    select_core_class,
    word_count,
)
from repro.graph.core import IndexedGraph
from repro.graph.generators import gnp_random_graph

# Deliberately not a multiple of 64: every kernel must handle the
# ragged top word exactly like the numpy tier does.
N = 173
WORDS = word_count(N)


@pytest.fixture
def rng():
    return np.random.default_rng(20250806)


def random_packed_graph(rng, n=N, avg_degree=6):
    """A random symmetric packed adjacency plus its int-mask rows."""
    adj = [0] * n
    for __ in range(n * avg_degree // 2):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return bnp.pack_masks(adj, word_count(n)), adj


def random_mask(rng, n=N):
    return int.from_bytes(rng.bytes(word_count(n) * 8), "little") & (
        (1 << n) - 1
    )


# ----------------------------------------------------------------------
# Per-kernel parity against the numpy and int-mask oracles
# ----------------------------------------------------------------------


@requires_native
class TestKernelParity:
    def test_union_rows(self, rng):
        matrix, adj = random_packed_graph(rng)
        indices = rng.choice(N, size=30, replace=False)
        want = 0
        for i in indices:
            want |= adj[int(i)]
        assert native.union_rows(matrix, indices) == want
        assert native.union_rows(matrix, indices) == bnp.union_rows(
            matrix, indices
        )
        assert native.union_rows(matrix, []) == 0

    def test_frontier_sweep(self, rng):
        matrix, adj = random_packed_graph(rng, avg_degree=3)
        core = IndexedGraph(N)
        core.adj = list(adj)
        core.alive = (1 << N) - 1
        for __ in range(10):
            seed_vertex = int(rng.integers(0, N))
            available = random_mask(rng) | 1 << seed_vertex
            seed = 1 << seed_vertex
            want = core.expand_component(seed, available)
            assert native.frontier_sweep(matrix, seed, available) == want
            assert bnp.frontier_sweep(matrix, seed, available) == want

    def test_mask_to_indices(self, rng):
        for __ in range(5):
            mask = random_mask(rng)
            assert np.array_equal(
                native.mask_to_indices(mask, WORDS),
                bnp.mask_to_indices(mask, WORDS),
            )
        assert native.mask_to_indices(0, WORDS).shape == (0,)

    def test_saturate_batch_and_set_edge_bits(self, rng):
        matrix, adj = random_packed_graph(rng)
        for __ in range(5):
            u_arr = rng.integers(0, N, size=40).astype(np.int64)
            v_arr = rng.integers(0, N, size=40).astype(np.int64)
            filled_native = matrix.copy()
            filled_numpy = matrix.copy()
            native.set_edge_bits(filled_native, u_arr, v_arr)
            bnp.set_edge_bits(filled_numpy, u_arr, v_arr)
            want = list(adj)
            for u, v in zip(u_arr.tolist(), v_arr.tolist()):
                want[u] |= 1 << v
                want[v] |= 1 << u
            assert bnp.unpack_rows(filled_native) == want
            assert np.array_equal(filled_native, filled_numpy)

    @pytest.mark.parametrize("n", [2500, 4000])
    def test_wide_matrices(self, rng, n):
        # Widths where the native tier must pay off: a sparse adjacency
        # of average degree 24 and a 400-member vertex mask.
        adjacency, adj = random_packed_graph(rng, n, avg_degree=24)
        members = np.sort(rng.choice(n, size=400, replace=False))
        mask = sum(1 << int(i) for i in members)
        assert native.union_rows(adjacency, members) == bnp.union_rows(
            adjacency, members
        )
        core = IndexedGraph(n)
        core.adj = list(adj)
        core.alive = (1 << n) - 1
        seed = 1 << int(members[0])
        want = core.expand_component(seed, mask)
        assert native.frontier_sweep(adjacency, seed, mask) == want
        assert bnp.frontier_sweep(adjacency, seed, mask) == want


def test_kernel_names_match_the_native_exports():
    # ``repro kernels`` lists KERNEL_NAMES: every exported kernel and
    # nothing else.
    exports = set(native.__all__) - NON_KERNEL_EXPORTS
    assert set(native.KERNEL_NAMES) == exports
    assert len(native.KERNEL_NAMES) == len(set(native.KERNEL_NAMES))


# ----------------------------------------------------------------------
# NativeGraphCore end to end
# ----------------------------------------------------------------------


@requires_native
class TestNativeCoreEnumeration:
    def _fills(self, graph, mode, limit=64):
        stream = enumerate_minimal_triangulations(graph, mode=mode)
        return sorted(
            frozenset(t.fill_edges)
            for t in itertools.islice(stream, limit)
        )

    @pytest.mark.parametrize("mode", ["UG", "UP"])
    def test_enumeration_matches_numpy_core(self, mode):
        for g in small_random_graphs(6, max_nodes=9, seed=63):
            native_g = convert_graph(g, "native")
            numpy_g = convert_graph(g, "numpy")
            assert type(native_g.core).__name__ == "NativeGraphCore"
            assert self._fills(native_g, mode) == self._fills(numpy_g, mode)

    def test_core_batch_methods_match_numpy(self, rng):
        g = gnp_random_graph(80, 0.2, seed=9)
        native_core = convert_graph(g, "native").core
        numpy_core = convert_graph(g, "numpy").core
        mask = random_mask(rng, 80) & native_core.alive
        assert native_core.neighborhood_of_set(
            mask
        ) == numpy_core.neighborhood_of_set(mask)
        assert native_core.missing_pair_count(
            mask
        ) == numpy_core.missing_pair_count(mask)
        seed = 1 << (mask.bit_length() - 1) if mask else 1
        assert native_core.expand_component(
            seed, native_core.alive
        ) == numpy_core.expand_component(seed, numpy_core.alive)
        assert checked_saturate(native_core, mask) == checked_saturate(
            numpy_core, mask
        )
        assert native_core.adj == numpy_core.adj

    def test_derived_graphs_keep_native_core(self):
        core = convert_graph(gnp_random_graph(20, 0.3, seed=2), "native").core
        native_cls = GRAPH_BACKENDS["native"]
        assert type(core.copy()) is native_cls
        assert type(core.subgraph(core.alive >> 2)) is native_cls
        assert type(core.complement()) is native_cls


# ----------------------------------------------------------------------
# Selection, fallback, worker rebuild
# ----------------------------------------------------------------------


@pytest.fixture
def native_load_failure(monkeypatch):
    """Force the extension-unavailable path, restoring state afterwards."""

    def broken_load():
        raise RuntimeError("simulated load failure")

    monkeypatch.setattr(native, "_try_load", broken_load)
    native._reset()
    yield
    monkeypatch.undo()
    native._reset()


class TestSelectionAndFallback:
    def test_registry_has_native(self):
        assert "native" in GRAPH_BACKENDS
        assert issubclass(GRAPH_BACKENDS["native"], NumpyGraphCore)

    def test_unknown_backend_error_lists_native(self):
        with pytest.raises(ValueError, match="native"):
            select_core_class(10, "nativ")

    @requires_native
    def test_auto_prefers_native_above_threshold(self):
        assert select_core_class(NUMPY_THRESHOLD) is GRAPH_BACKENDS["native"]
        assert select_core_class(NUMPY_THRESHOLD - 1) is IndexedGraph

    def test_load_failure_degrades_selection(self, native_load_failure):
        assert not native.available()
        assert select_core_class(NUMPY_THRESHOLD) is NumpyGraphCore
        assert select_core_class(10, "native") is NumpyGraphCore
        g = convert_graph(gnp_random_graph(12, 0.3, seed=1), "native")
        assert type(g.core) is NumpyGraphCore

    def test_load_failure_degrades_kernel_namespace(self, native_load_failure):
        core = GRAPH_BACKENDS["native"](8)
        assert core._kernel_namespace() is bnp
        info = native.kernel_info()
        assert info["available"] is False
        assert "simulated load failure" in info["reason"]

    def test_disable_env_degrades(self, monkeypatch):
        monkeypatch.setenv(native.DISABLE_ENV, "1")
        native._reset()
        try:
            assert not native.available()
            assert select_core_class(10, "native") is NumpyGraphCore
        finally:
            monkeypatch.undo()
            native._reset()

class TestWorkerRebuild:
    @requires_native
    def test_payload_carries_native_backend_name(self):
        g = convert_graph(gnp_random_graph(25, 0.4, seed=6), "native")
        payload = make_payload(g, "mcs_m")
        assert payload.backend == "native"

    @requires_native
    def test_inline_rebuild_on_native_core(self):
        g = convert_graph(gnp_random_graph(25, 0.4, seed=6), "native")
        payload = make_payload(g, "mcs_m")
        core = InlineRunner(payload)._state.graph.core
        assert type(core) is GRAPH_BACKENDS["native"]
        assert core.adj == g.core.adj
        # The worker builds its mirror lazily, and it is the payload's.
        assert core._packed is None
        assert core._matrix().tobytes() == payload.packed

    def test_native_payload_rebuilds_on_numpy_without_extension(
        self, native_load_failure
    ):
        # A payload recorded by a native coordinator still rebuilds in
        # a worker whose extension cannot load.
        g = convert_graph(gnp_random_graph(25, 0.4, seed=6), "numpy")
        payload = make_payload(g, "mcs_m")
        payload = type(payload)(
            labels=payload.labels,
            alive=payload.alive,
            num_edges=payload.num_edges,
            triangulator=payload.triangulator,
            backend="native",
            rows=payload.rows,
            words=payload.words,
            packed=payload.packed,
        )
        rebuilt = _rebuild_graph(payload)
        assert type(rebuilt.core) is NumpyGraphCore
        assert rebuilt.core.adj == g.core.adj


# ----------------------------------------------------------------------
# Compile-cache hygiene
# ----------------------------------------------------------------------


@requires_native
class TestBuildCache:
    def test_fingerprint_covers_source_and_compiler(self):
        a = native.build_fingerprint("gcc 12")
        b = native.build_fingerprint("gcc 13")
        assert a != b
        assert a == native.build_fingerprint("gcc 12")

    @staticmethod
    def _probe(tmp_path):
        """Run ``available()`` in a fresh interpreter against ``tmp_path``.

        A subprocess is essential here: corrupting a ``.so`` that this
        process already has dlopen'd would truncate the inode backing
        the live mapping (SIGBUS), and ``dlopen`` caches by pathname —
        the corrupt-artefact recovery is defined for a *fresh* process
        finding a bad file, so that is what gets exercised.
        """
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env[native.BUILD_DIR_ENV] = str(tmp_path)
        env.pop(native.DISABLE_ENV, None)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.graph._native import native;"
                "print(native.available())",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip() == "True"

    def test_scratch_build_dir_builds_once(self, tmp_path):
        assert self._probe(tmp_path)
        artifacts = list(tmp_path.glob("kernels-*.so"))
        assert len(artifacts) == 1
        mtime = artifacts[0].stat().st_mtime_ns
        # Second load finds the cached artefact — no rebuild.
        assert self._probe(tmp_path)
        assert artifacts[0].stat().st_mtime_ns == mtime

    def test_corrupt_artifact_triggers_clean_rebuild(self, tmp_path):
        assert self._probe(tmp_path)
        (artifact,) = tmp_path.glob("kernels-*.so")
        artifact.write_bytes(b"not a shared library")
        assert self._probe(tmp_path)
        assert artifact.read_bytes() != b"not a shared library"

    def test_stale_artifacts_swept_on_rebuild(self, tmp_path):
        assert self._probe(tmp_path)
        (artifact,) = tmp_path.glob("kernels-*.so")
        stale = artifact.with_name("kernels-deadbeefdeadbeef.so")
        stale.write_bytes(b"stale")
        artifact.unlink()
        assert self._probe(tmp_path)
        assert artifact.exists()
        assert not stale.exists()

    def test_random_seed_does_not_leak(self):
        # The module must not touch the global random state.
        random.seed(3)
        before = random.random()
        random.seed(3)
        native.kernel_info()
        assert random.random() == before
