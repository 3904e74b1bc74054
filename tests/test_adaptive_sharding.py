"""Tests for the sharded engine's data plane and scheduler (ISSUE 5).

Covers the adaptive cost-driven batcher (deterministic injected clock,
no wall-time dependence), the packed batch wire codec, the graph
payload, the worker pool's lifecycle (graceful close, interrupt,
killed worker), the stage timers, and the correctness
smoke that runs the scheduler at an aggressively tiny batch target
against the serial reference — the batch policy may never trade
answers for throughput.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time

import pytest

from helpers import legacy_batch, reference_batch, small_random_graphs
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.engine import EngineError, EnumerationEngine, EnumerationJob, wire
from repro.engine.batching import AdaptiveBatcher
from repro.engine.pool import (
    InlineRunner,
    PoolRunner,
    make_payload,
)
from repro.graph.bitset_np import word_count
from repro.graph.generators import gnp_random_graph
from repro.sgr.enum_mis import EnumMISStatistics


def answer_set(triangulations) -> set[frozenset]:
    return {frozenset(t.fill_edges) for t in triangulations}


def serial_answers(graph, **kwargs) -> set[frozenset]:
    return answer_set(enumerate_minimal_triangulations(graph, **kwargs))


# ----------------------------------------------------------------------
# AdaptiveBatcher
# ----------------------------------------------------------------------


class FakeClock:
    """A deterministic nanosecond clock advanced by hand."""

    def __init__(self) -> None:
        self.ns = 0

    def __call__(self) -> int:
        return self.ns

    def advance_ms(self, ms: float) -> None:
        self.ns += int(ms * 1e6)


class TestAdaptiveBatcher:
    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="target_ms"):
            AdaptiveBatcher(2, target_ms=0)

    def test_uses_injected_clock(self):
        clock = FakeClock()
        batcher = AdaptiveBatcher(2, clock=clock)
        assert batcher.now() == 0
        clock.advance_ms(5)
        assert batcher.now() == 5_000_000

    def test_bootstrap_sizes_match_static_policy(self):
        # Before any observation the batcher falls back to the
        # conservative static heuristic the adaptive policy replaced.
        serial = AdaptiveBatcher(1)
        assert serial.pop_chunk_size(100) == 1
        pool = AdaptiveBatcher(4)
        assert pool.pop_chunk_size(100) == 12  # 100 // (2*4)
        assert pool.pop_chunk_size(2) == 1
        assert pool.barrier_chunk_size(1000) == 32
        assert pool.barrier_chunk_size(8) == 1

    def test_sizes_target_batch_duration(self):
        batcher = AdaptiveBatcher(2, target_ms=100)
        # 10 pairs took 10 ms of compute → 1 ms per pair.
        batcher.observe(pairs=10, compute_ns=10_000_000)
        assert batcher.pair_cost_ns == pytest.approx(1_000_000)
        # About one family per answer → 100 answers hit 100 ms, in a
        # pop batch and in a barrier chunk alike.
        assert batcher.pop_chunk_size(1_000_000) == 100
        assert batcher.barrier_chunk_size(1_000_000) == 100

    def test_ewma_follows_cost_drift(self):
        batcher = AdaptiveBatcher(2, target_ms=100)
        batcher.observe(1, 1_000_000)
        first = batcher.pair_cost_ns
        for __ in range(50):
            batcher.observe(1, 4_000_000)
        assert batcher.pair_cost_ns > first
        assert batcher.pair_cost_ns == pytest.approx(4_000_000, rel=0.05)

    def test_zero_compute_does_not_explode_sizes(self):
        batcher = AdaptiveBatcher(2, target_ms=100)
        batcher.observe(pairs=64, compute_ns=0)
        # Cost floors at 1 ns → sizes hit the hard cap, not infinity.
        assert 1 <= batcher.pop_chunk_size(10**9) <= 1024
        assert 1 <= batcher.barrier_chunk_size(10**9) <= 4096

    def test_stealable_work_cap(self):
        batcher = AdaptiveBatcher(4, target_ms=100)
        batcher.observe(pairs=1, compute_ns=1000)
        # The cost model alone would take everything; the cap leaves a
        # queue share per worker.
        assert batcher.pop_chunk_size(8) == 2
        assert batcher.barrier_chunk_size(8) == 2
        # A single-worker batcher has nobody to steal for.
        solo = AdaptiveBatcher(1, target_ms=100)
        solo.observe(pairs=1, compute_ns=1000)
        assert solo.pop_chunk_size(8) == 8

    def test_max_inflight(self):
        assert AdaptiveBatcher(1).max_inflight() == 1
        assert AdaptiveBatcher(4).max_inflight() == 12


# ----------------------------------------------------------------------
# Packed wire codec
# ----------------------------------------------------------------------


class TestWireCodec:
    def _random_answers(self, rng, pool, count):
        return [
            tuple(rng.sample(pool, rng.randint(1, min(8, len(pool)))))
            for __ in range(count)
        ]

    def test_batch_round_trip(self):
        rng = random.Random(7)
        words = word_count(2000)
        pool = [rng.getrandbits(2000) | 1 for __ in range(40)]
        families = self._random_answers(rng, pool, 16)
        batch = wire.encode_batch(123, families, words)
        region, got_families = wire.decode_batch(batch)
        assert region == 123
        assert got_families == families

    def test_result_round_trip(self):
        rng = random.Random(9)
        words = word_count(200)
        pool = [rng.getrandbits(200) | 1 for __ in range(25)]
        answers = self._random_answers(rng, pool, 10)
        stats = EnumMISStatistics(extend_calls=10, extend_time_ns=555)
        result = wire.encode_result(answers, words, 777, stats)
        assert wire.decode_result(result) == answers
        assert result.compute_ns == 777
        assert result.stats.extend_time_ns == 555

    def test_empty_batch_and_result(self):
        batch = wire.encode_batch(0, [], 4)
        assert wire.decode_batch(batch) == (0, [])
        result = wire.encode_result([], 4, 0, EnumMISStatistics())
        assert wire.decode_result(result) == []

    def test_masks_are_interned_once(self):
        words = word_count(2000)
        mask = (1 << 1999) | (1 << 3) | 1
        families = [(mask,)] * 50
        batch = wire.encode_batch(1, families, words)
        # 50 family references, but one table row.
        assert len(batch.table) == words * 8
        assert len(batch.family_refs) == 50 * 4
        assert len(batch.family_lens) == 50 * 4

    def test_payload_shrinks_vs_pickled_ints(self):
        # A coordinator-shaped batch at n = 2000 (reference_batch):
        # candidate families overlap heavily, so the interned packed
        # format must undercut per-reference pickled big ints
        # (legacy_batch) by at least 4x.
        import pickle

        families, words = reference_batch(2000)
        packed = wire.encode_batch(1, families, words)
        packed_bytes = len(pickle.dumps(packed))
        legacy_bytes = len(pickle.dumps(legacy_batch(1, families, words)))
        assert legacy_bytes >= 4 * packed_bytes


# ----------------------------------------------------------------------
# Graph payloads and worker rebuild
# ----------------------------------------------------------------------


class TestGraphPayload:
    def test_payload_is_packed_not_int_masks(self):
        g = gnp_random_graph(20, 0.4, seed=3)
        payload = make_payload(g, "mcs_m")
        assert payload.packed is not None
        assert payload.rows == len(g.core.adj)

    def test_inline_rebuild_round_trips_graph(self):
        g = gnp_random_graph(20, 0.4, seed=3)
        runner = InlineRunner(make_payload(g, "mcs_m"))
        rebuilt = runner._state.graph
        assert rebuilt.node_set() == g.node_set()
        assert set(rebuilt.edge_set()) == set(g.edge_set())
        assert rebuilt.core.adj == g.core.adj

    def test_numpy_backend_worker_adopts_packed_mirror(self):
        from repro.graph.bitset_np import NumpyGraphCore, convert_graph

        g = convert_graph(gnp_random_graph(25, 0.4, seed=6), "numpy")
        payload = make_payload(g, "mcs_m")
        core = InlineRunner(payload)._state.graph.core
        assert isinstance(core, NumpyGraphCore)
        assert core.adj == g.core.adj
        # The worker builds its mirror lazily, and it is the payload's.
        assert core._packed is None
        assert core._matrix().tobytes() == payload.packed


class TestPoolRunnerLifecycle:
    """Every exit path of a sharded run leaves no worker process alive."""

    @staticmethod
    def _children() -> set[int]:
        return {p.pid for p in multiprocessing.active_children()}

    def _assert_workers_exited(self, before: set[int]) -> None:
        left = self._children() - before
        assert not left, f"worker processes still alive: {sorted(left)}"

    @staticmethod
    def _warm(runner: PoolRunner, g) -> wire.PackedBatch:
        """Run one batch, so the workers are up; return that batch."""
        seed = tuple(sorted(g.mask_of(s) for s in serial_seed_family(g)))
        batch = wire.encode_batch(
            g.core.alive, [seed], word_count(len(g.core.adj))
        )
        runner.submit(batch).result()
        return batch

    def test_pool_runner_close_joins_workers(self):
        g = gnp_random_graph(14, 0.4, seed=8)
        before = self._children()
        runner = PoolRunner(make_payload(g, "mcs_m"), workers=2)
        self._warm(runner, g)
        workers = set(runner._executor._processes)
        assert workers and workers <= self._children() - before
        runner.close()
        self._assert_workers_exited(before)

    def test_stream_close_joins_workers(self):
        # The consumer walking away mid-stream (the generator-close
        # path KeyboardInterrupt handling funnels into) must shut the
        # pool down.
        g = gnp_random_graph(13, 0.35, seed=9)
        before = self._children()
        stream = EnumerationEngine("sharded", workers=2).stream(
            EnumerationJob(g)
        )
        for index, __ in enumerate(stream):
            if index >= 3:
                break
        assert self._children() - before
        stream.close()
        self._assert_workers_exited(before)

    def test_keyboard_interrupt_joins_workers(self):
        g = gnp_random_graph(13, 0.35, seed=9)
        before = self._children()
        stream = EnumerationEngine("sharded", workers=2).stream(
            EnumerationJob(g)
        )
        with pytest.raises(KeyboardInterrupt):
            try:
                for index, __ in enumerate(stream):
                    if index >= 2:
                        raise KeyboardInterrupt
            finally:
                stream.close()
        self._assert_workers_exited(before)

    def test_killed_worker_leaves_no_worker(self):
        from concurrent.futures.process import BrokenProcessPool

        g = gnp_random_graph(14, 0.4, seed=8)
        before = self._children()
        runner = PoolRunner(make_payload(g, "mcs_m"), workers=2)
        batch = self._warm(runner, g)
        victim = next(iter(runner._executor._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                runner.submit(batch).result()
        runner.close()
        self._assert_workers_exited(before)

    def test_cooperative_abort_leaves_no_worker(self, monkeypatch):
        # A batch aborted mid-saturate by the worker watchdog / poison
        # injection: the worker frees its scratch state and survives,
        # the run completes through quarantine salvage, and close()
        # shuts the pool down as usual.
        from repro.chordal.minimal_separators import minimal_separator_masks

        g = gnp_random_graph(12, 0.35, seed=11)
        poison = next(iter(minimal_separator_masks(g)))
        monkeypatch.setenv("REPRO_CHAOS_POISON", str(poison))
        monkeypatch.setenv("REPRO_CHAOS_POISON_MODE", "fail")
        before = self._children()
        with pytest.warns(RuntimeWarning, match="quarantin"):
            result = EnumerationEngine("sharded", workers=2).run(
                EnumerationJob(g, max_batch_retries=0)
            )
        assert result.stats.batches_quarantined >= 1
        self._assert_workers_exited(before)

    def test_worker_kill_and_restart_leave_no_worker(self, monkeypatch):
        # The hard-death flavour: the poisoned batch SIGKILLs its
        # worker (os._exit), the pool breaks, the coordinator restarts
        # it and quarantines the batch — and after close neither the
        # broken pool's workers nor the fresh ones are left.
        from repro.chordal.minimal_separators import minimal_separator_masks

        g = gnp_random_graph(12, 0.35, seed=11)
        poison = next(iter(minimal_separator_masks(g)))
        monkeypatch.setenv("REPRO_CHAOS_POISON", str(poison))
        monkeypatch.setenv("REPRO_CHAOS_POISON_MODE", "kill")
        before = self._children()
        with pytest.warns(RuntimeWarning, match="quarantin"):
            result = EnumerationEngine("sharded", workers=2).run(
                EnumerationJob(g, max_batch_retries=0)
            )
        assert result.stats.batches_quarantined >= 1
        self._assert_workers_exited(before)


def serial_seed_family(graph):
    """Extend(∅) of ``graph`` — a convenient valid answer for tests."""
    from repro.core.extend import extend_parallel_set

    return extend_parallel_set(graph, (), "mcs_m")


class TestCrashTimeCheckpoint:
    def test_failed_batch_is_requeued_not_marked_processed(self):
        # A batch whose future raises (worker crash / broken pool) must
        # still count as in flight when the crash-path checkpoint is
        # taken: its results are lost, so recording its answers as
        # processed would skip their extends forever on resume.
        from concurrent.futures import Future

        from repro.engine.coordinator import MISCoordinator

        class FailingRunner:
            """Fails the first *pop* batch dispatched against a grown
            V-snapshot (≥ 2 known nodes; a pop batch is dispatched
            while its answers still sit in the coordinator's
            ``_popping``, a barrier chunk with it empty)."""

            workers = 1
            in_process = True  # receives the inner runner's tuple batches
            coordinator = None

            def __init__(self, inner):
                self._inner = inner

            def submit(self, batch):
                coordinator = self.coordinator
                if coordinator._popping and len(coordinator._known) >= 2:
                    future: Future = Future()
                    future.set_exception(RuntimeError("worker died"))
                    return future
                return self._inner.submit(batch)

            def close(self):
                pass

        g = gnp_random_graph(12, 0.35, seed=11)
        runner = FailingRunner(InlineRunner(make_payload(g, "mcs_m")))
        coordinator = MISCoordinator(g, g.core.alive, runner)
        runner.coordinator = coordinator
        with pytest.raises(RuntimeError, match="worker died"):
            for __ in coordinator.stream():
                pass
        entries = [
            e for e in coordinator._inflight.values() if e.kind == "pop"
        ]
        assert entries, "the failing batch must still be registered"
        snapshot = coordinator.control_snapshot()
        for entry in entries:
            assert set(entry.answers) <= set(snapshot.queue)
            assert not set(entry.answers) & set(snapshot.processed)


class TestInProcessMetering:
    """The cost model must see real compute through the inline runner."""

    def test_plain_result_carries_worker_compute_time(self):
        from repro.chordal.minimal_separators import minimal_separator_masks

        g = gnp_random_graph(10, 0.4, seed=2)
        runner = InlineRunner(make_payload(g, "mcs_m"))
        direction = next(iter(minimal_separator_masks(g)))
        out, stats, compute_ns = runner.submit(
            (g.core.alive, [(direction,)])
        ).result()
        assert len(out) == 1
        assert stats.extend_calls == 1
        assert compute_ns > 0

    def test_inline_runner_feeds_real_costs_to_batcher(self):
        # Regression: submitted_ns must be stamped before submit() —
        # the inline runner executes the batch synchronously inside
        # it, and a post-submit stamp would make every round-trip
        # (and hence the learned pair cost) collapse to ~zero,
        # ballooning serial checkpointed batches to the hard cap.
        from repro.engine.coordinator import MISCoordinator

        g = gnp_random_graph(12, 0.35, seed=11)
        runner = InlineRunner(make_payload(g, "mcs_m"))
        batcher = AdaptiveBatcher(1)
        coordinator = MISCoordinator(
            g, g.core.alive, runner, batcher=batcher
        )
        answers = list(coordinator.stream())
        assert len(answers) > 10
        # One Extend on this graph costs well over a microsecond; the
        # 1 ns floor would only appear if compute were mis-metered.
        assert batcher.pair_cost_ns is not None
        assert batcher.pair_cost_ns > 1_000


# ----------------------------------------------------------------------
# Stage timers
# ----------------------------------------------------------------------


class TestStageTimers:
    def test_serial_pipeline_reports_stage_timers(self):
        g = gnp_random_graph(12, 0.35, seed=11)
        stats = EnumMISStatistics()
        list(enumerate_minimal_triangulations(g, stats=stats))
        assert stats.extend_time_ns > 0
        assert stats.crossing_time_ns > 0
        assert stats.ipc_payload_bytes == 0
        assert stats.batches_dispatched == 0

    def test_inline_coordinator_reports_no_ipc(self, tmp_path):
        # Checkpointed serial jobs run batches through the in-process
        # inline runner: batches are metered, but nothing is IPC.
        g = gnp_random_graph(12, 0.35, seed=11)
        result = EnumerationEngine("serial").run(
            EnumerationJob(g, checkpoint_path=str(tmp_path / "run.ckpt"))
        )
        assert result.stats.batches_dispatched > 0
        assert result.stats.batch_roundtrip_ns > 0
        assert result.stats.ipc_payload_bytes == 0

    def test_sharded_run_reports_same_fields(self):
        g = gnp_random_graph(12, 0.35, seed=11)
        result = EnumerationEngine("sharded", workers=2).run(
            EnumerationJob(g)
        )
        stats = result.stats
        assert stats.extend_time_ns > 0
        assert stats.crossing_time_ns > 0
        assert stats.batches_dispatched > 0
        assert stats.ipc_payload_bytes > 0
        assert stats.batch_roundtrip_ns > 0
        assert result.mean_batch_latency > 0
        assert result.ipc_payload_bytes_per_batch > 0
        # Serial and sharded snapshots expose the same vocabulary.
        serial_stats = EnumMISStatistics()
        list(enumerate_minimal_triangulations(g, stats=serial_stats))
        assert set(stats.snapshot()) == set(serial_stats.snapshot())

    def test_timers_merge_and_round_trip(self):
        a = EnumMISStatistics(
            extend_time_ns=100, crossing_time_ns=7,
            ipc_payload_bytes=512, batches_dispatched=2,
            batch_roundtrip_ns=40,
        )
        b = EnumMISStatistics(extend_time_ns=11, batches_dispatched=1)
        a.add(b)
        assert a.extend_time_ns == 111
        assert a.batches_dispatched == 3
        restored = EnumMISStatistics()
        restored.restore(a.snapshot())
        assert restored.snapshot() == a.snapshot()

    def test_restore_ignores_retired_ipc_time_counter(self):
        # Checkpoints and wire stats from before the counter was dropped
        # still carry ``ipc_time_ns``; restoring them must neither fail
        # nor resurrect the field.
        old = EnumMISStatistics(extend_time_ns=5, batches_dispatched=2)
        snapshot = dict(old.snapshot(), ipc_time_ns=123)
        restored = EnumMISStatistics()
        restored.restore(snapshot)
        assert restored.snapshot() == old.snapshot()
        assert "ipc_time_ns" not in restored.snapshot()
        assert not hasattr(restored, "ipc_time_ns")

    def test_timers_survive_checkpoint_resume(self, tmp_path):
        g = gnp_random_graph(13, 0.3, seed=21)
        path = tmp_path / "timers.ckpt.json"
        engine = EnumerationEngine("sharded", workers=2)
        first = engine.run(
            EnumerationJob(
                g, checkpoint_path=path, checkpoint_every=5, max_results=8
            )
        )
        assert first.stats.extend_time_ns > 0
        import json

        persisted = json.loads(path.read_text())["stats"]
        assert persisted["extend_time_ns"] > 0
        assert persisted["batches_dispatched"] > 0
        second = engine.run(
            EnumerationJob(g, checkpoint_path=path, resume=True)
        )
        # The resumed run's report covers the whole enumeration: it
        # restored the interrupted run's timers and kept accumulating.
        assert second.stats.extend_time_ns > persisted["extend_time_ns"]
        assert (
            second.stats.batches_dispatched
            > persisted["batches_dispatched"]
        )


# ----------------------------------------------------------------------
# The scheduler may never trade correctness for throughput
# ----------------------------------------------------------------------


class TestTinyBatchEquality:
    """The CI smoke: aggressively tiny batches == serial answer sets."""

    def test_property_corpus_tiny_batches(self):
        engine = EnumerationEngine("sharded", workers=2)
        for g in small_random_graphs(4, max_nodes=9, seed=515):
            expected = serial_answers(g)
            result = engine.run(EnumerationJob(g, batch_target_ms=0.01))
            assert answer_set(result.triangulations) == expected

    def test_modes_and_atoms_tiny_batches(self):
        g = gnp_random_graph(12, 0.3, seed=42)
        engine = EnumerationEngine("sharded", workers=2)
        for mode in ("UG", "UP"):
            expected = serial_answers(g, mode=mode)
            result = engine.run(
                EnumerationJob(g, mode=mode, batch_target_ms=0.01)
            )
            assert answer_set(result.triangulations) == expected
        expected = serial_answers(g, decompose="atoms")
        result = engine.run(
            EnumerationJob(g, decompose="atoms", batch_target_ms=0.01)
        )
        assert answer_set(result.triangulations) == expected

    def test_batch_target_validation(self):
        g = gnp_random_graph(6, 0.5, seed=1)
        with pytest.raises(EngineError, match="batch_target_ms"):
            EnumerationEngine("serial").run(
                EnumerationJob(g, batch_target_ms=0)
            )

    def test_checkpoint_resume_with_tiny_batches(self, tmp_path):
        g = gnp_random_graph(13, 0.3, seed=21)
        full = serial_answers(g)
        path = tmp_path / "tiny.ckpt.json"
        engine = EnumerationEngine("sharded", workers=2)
        first = engine.run(
            EnumerationJob(
                g, checkpoint_path=path, checkpoint_every=3,
                batch_target_ms=0.01, max_results=len(full) // 3,
            )
        )
        second = engine.run(
            EnumerationJob(
                g, checkpoint_path=path, resume=True, batch_target_ms=0.01
            )
        )
        got_first = answer_set(first.triangulations)
        got_second = answer_set(second.triangulations)
        assert not (got_first & got_second)
        assert got_first | got_second == full
