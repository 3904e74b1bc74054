"""Kernel-tier surfacing: no more silent native → numpy degradation.

A worker process (or host) that cannot run the compiled native tier
rebuilds the graph on the numpy core with identical semantics — but
PR 6 did so silently, which skews cross-host benchmark numbers without
a trace.  Now the first degraded rebuild warns once per process, and
every worker stamps the tier it actually ran into the merged
statistics (``EnumMISStatistics.kernel_tiers``).
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

pytest.importorskip("numpy")

from repro.engine import pool
from repro.engine.pool import WorkerState, make_payload
from repro.graph import bitset_np
from repro.graph.generators import gnp_random_graph
from repro.sgr.enum_mis import EnumMISStatistics


@pytest.fixture
def fresh_warning_state():
    before = pool._DEGRADATION_WARNED
    pool._DEGRADATION_WARNED = False
    yield
    pool._DEGRADATION_WARNED = before


def _native_payload():
    graph = gnp_random_graph(8, 0.5, seed=11)
    payload = make_payload(graph, "mcs_m")
    return dataclasses.replace(payload, backend="native")


@pytest.mark.skipif(
    "native" not in bitset_np.GRAPH_BACKENDS,
    reason="native backend not registered",
)
class TestDegradationWarning:
    def test_unavailable_native_warns_once(
        self, monkeypatch, fresh_warning_state
    ):
        native_cls = bitset_np.GRAPH_BACKENDS["native"]
        monkeypatch.setattr(
            native_cls, "runtime_available", classmethod(lambda cls: False)
        )
        payload = _native_payload()
        with pytest.warns(RuntimeWarning, match="numpy"):
            state = WorkerState(payload)
        assert state.kernel_tier == "numpy"
        # Second rebuild in the same process: no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            WorkerState(payload)

    def test_available_native_does_not_warn(self, fresh_warning_state):
        native_cls = bitset_np.GRAPH_BACKENDS["native"]
        if not native_cls.runtime_available():
            pytest.skip("native extension not buildable here")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = WorkerState(_native_payload())
        assert state.kernel_tier == "native"


class TestTierStamping:
    def test_run_batch_stamps_tier(self):
        from repro.engine.wire import encode_batch

        graph = gnp_random_graph(7, 0.5, seed=3)
        payload = make_payload(graph, "mcs_m")
        state = WorkerState(payload)
        batch = encode_batch(graph.core.alive, [()], max(1, payload.words))
        result = state.run_batch(batch)
        assert result.stats.kernel_tiers == {state.kernel_tier: 1}

    def test_tiers_merge_keywise(self):
        a = EnumMISStatistics()
        a.kernel_tiers["numpy"] = 2
        b = EnumMISStatistics()
        b.kernel_tiers["numpy"] = 1
        b.kernel_tiers["native"] = 4
        a.add(b)
        assert a.kernel_tiers == {"numpy": 3, "native": 4}

    def test_tiers_survive_snapshot_restore(self):
        stats = EnumMISStatistics()
        stats.kernel_tiers["indexed"] = 5
        stats.worker_joins = 2
        stats.batches_requeued = 1
        restored = EnumMISStatistics()
        restored.restore(stats.snapshot())
        assert restored.kernel_tiers == {"indexed": 5}
        assert restored.worker_joins == 2
        assert restored.batches_requeued == 1
