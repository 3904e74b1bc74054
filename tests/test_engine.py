"""Tests for the pluggable enumeration engine (repro.engine)."""

from __future__ import annotations

import json

import pytest

from helpers import small_random_graphs
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.core.ranked import enumerate_minimal_triangulations_prioritized
from repro.engine import (
    CheckpointError,
    EngineError,
    EnumerationEngine,
    EnumerationJob,
    available_backends,
    get_backend,
)
from repro.engine.checkpoint import (
    CheckpointError as CheckpointErrorDirect,  # noqa: F401 - re-export check
    CheckpointManager,
    _document_crc,
    job_fingerprint,
    region_fingerprint,
)
from repro.experiments.runner import run_enumeration
from repro.graph.generators import cycle_graph, gnp_random_graph
from repro.graph.graph import Graph
from repro.sgr.enum_mis import EnumMISStatistics, merge_statistics, report_clause


def answer_set(triangulations) -> set[frozenset]:
    return {frozenset(t.fill_edges) for t in triangulations}


def serial_answers(graph, **kwargs) -> set[frozenset]:
    return answer_set(enumerate_minimal_triangulations(graph, **kwargs))


def resign(data: dict) -> dict:
    """Recompute the CRC of a hand-tampered checkpoint document.

    Tests that assert *semantic* rejection (wrong shape, inconsistent
    product state) must present a document with a valid CRC — an
    unsigned tamper is indistinguishable from disk corruption and
    triggers generation fallback instead of the targeted error.
    """
    data.pop("crc32", None)
    data["crc32"] = _document_crc(data)
    return data


class TestEngineBasics:
    def test_backends_registered(self):
        assert {"serial", "sharded"} <= set(available_backends())

    def test_unknown_backend_raises(self):
        with pytest.raises(EngineError, match="unknown enumeration backend"):
            get_backend("quantum")

    def test_job_validation(self):
        g = cycle_graph(4)
        with pytest.raises(EngineError, match="mode"):
            EnumerationEngine().run(EnumerationJob(g, mode="XX"))
        with pytest.raises(EngineError, match="resume"):
            EnumerationEngine().run(EnumerationJob(g, resume=True))
        with pytest.raises(EngineError, match="max_results"):
            EnumerationEngine().run(EnumerationJob(g, max_results=-1))

    def test_serial_engine_matches_direct_pipeline(self):
        g = gnp_random_graph(12, 0.35, seed=11)
        result = EnumerationEngine("serial").run(EnumerationJob(g))
        assert result.completed
        assert answer_set(result.triangulations) == serial_answers(g)
        assert result.stats.answers == result.count

    def test_budgets_enforced(self):
        g = gnp_random_graph(12, 0.35, seed=11)
        result = EnumerationEngine("serial").run(EnumerationJob(g, max_results=5))
        assert result.count == 5 and not result.completed
        result = EnumerationEngine("serial").run(
            EnumerationJob(g, time_budget=0.0)
        )
        assert result.count == 1 and not result.completed

    def test_zero_answer_budget_yields_nothing(self):
        g = gnp_random_graph(12, 0.35, seed=11)
        result = EnumerationEngine("serial").run(EnumerationJob(g, max_results=0))
        assert result.count == 0 and not result.completed

    def test_empty_graph(self):
        for backend in ("serial", "sharded"):
            result = EnumerationEngine(backend, workers=1).run(
                EnumerationJob(Graph())
            )
            assert result.count == 1
            assert result.triangulations[0].fill_edges == ()


class TestSerialShardedEquivalence:
    """Both backends must enumerate identical answer *sets*."""

    def test_random_gnp_corpus(self):
        engine = EnumerationEngine("sharded", workers=2)
        for g in small_random_graphs(6, max_nodes=9, seed=2024):
            expected = serial_answers(g)
            result = engine.run(EnumerationJob(g))
            assert answer_set(result.triangulations) == expected

    def test_seeded_medium_graph_both_modes(self):
        g = gnp_random_graph(13, 0.3, seed=77)
        engine = EnumerationEngine("sharded", workers=2)
        for mode in ("UG", "UP"):
            expected = serial_answers(g, mode=mode)
            result = engine.run(EnumerationJob(g, mode=mode))
            assert answer_set(result.triangulations) == expected

    def test_core_counters_match_serial(self):
        g = gnp_random_graph(12, 0.35, seed=9)
        serial_stats = EnumMISStatistics()
        list(enumerate_minimal_triangulations(g, stats=serial_stats))
        result = EnumerationEngine("sharded", workers=2).run(EnumerationJob(g))
        for key in ("answers", "nodes_generated"):
            assert getattr(result.stats, key) == getattr(serial_stats, key)
        # Serially every Extend gives a new answer.  The coordinator
        # covers only against absorbed answers, so candidates of batches
        # in flight together may extend to one answer: those extra
        # calls are exactly the duplicates it suppresses.
        assert serial_stats.extend_calls == serial_stats.answers
        assert serial_stats.duplicates_suppressed == 0
        stats = result.stats
        assert stats.extend_calls == stats.answers + stats.duplicates_suppressed

    def test_disconnected_graph(self):
        g = Graph(
            edges=[(1, 2), (2, 3), (3, 4), (4, 1), (10, 11), (11, 12),
                   (12, 13), (13, 10)]
        )
        expected = serial_answers(g)
        result = EnumerationEngine("sharded", workers=2).run(EnumerationJob(g))
        assert answer_set(result.triangulations) == expected

    def test_backend_parameter_on_core_entry_points(self):
        g = gnp_random_graph(11, 0.4, seed=31)
        expected = serial_answers(g)
        via_param = answer_set(
            enumerate_minimal_triangulations(g, backend="sharded", workers=2)
        )
        assert via_param == expected
        ranked_serial = [
            t.width
            for t in enumerate_minimal_triangulations_prioritized(g, "width")
        ]
        ranked_sharded = [
            t.width
            for t in enumerate_minimal_triangulations_prioritized(
                g, "width", backend="sharded", workers=2
            )
        ]
        assert sorted(ranked_serial) == sorted(ranked_sharded)
        assert ranked_sharded[0] == min(ranked_serial)

    def test_runner_trace_via_sharded_backend(self):
        g = gnp_random_graph(11, 0.4, seed=31)
        trace = run_enumeration(g, backend="sharded", workers=2, name="shard")
        assert trace.backend == "sharded"
        assert trace.completed
        assert trace.count == len(serial_answers(g))
        assert trace.stats.answers == trace.count


class TestRankedEngine:
    def test_sharded_best_first_order(self):
        g = gnp_random_graph(12, 0.4, seed=3)
        widths = [
            t.width
            for t in enumerate_minimal_triangulations_prioritized(g, "width")
        ]
        result = EnumerationEngine("sharded", workers=2).run(
            EnumerationJob(g, cost="width")
        )
        assert sorted(t.width for t in result.triangulations) == sorted(widths)
        assert result.triangulations[0].width == min(widths)


class TestStatisticsMerge:
    def test_merge_sums_counters(self):
        a = EnumMISStatistics(
            extend_calls=3, edge_oracle_calls=10, answers=2,
            edge_cache_hits=4, edge_cache_misses=1,
            kernel_tiers={"x": 1},
        )
        b = EnumMISStatistics(
            extend_calls=5, duplicates_suppressed=7, nodes_generated=2,
            edge_cache_hits=1, kernel_tiers={"x": 2, "y": 3},
        )
        total = merge_statistics([a, b])
        assert total.extend_calls == 8
        assert total.edge_oracle_calls == 10
        assert total.answers == 2
        assert total.duplicates_suppressed == 7
        assert total.nodes_generated == 2
        assert total.edge_cache_hits == 5
        assert total.edge_cache_misses == 1
        assert total.kernel_tiers == {"x": 3, "y": 3}

    def test_merge_of_nothing_is_zero(self):
        assert merge_statistics([]).snapshot() == EnumMISStatistics().snapshot()

    def test_snapshot_restore_round_trip(self):
        a = EnumMISStatistics(extend_calls=3, answers=9, edge_cache_hits=2)
        b = EnumMISStatistics()
        b.restore(a.snapshot())
        assert b.snapshot() == a.snapshot()

    def test_snapshot_restore_keeps_kernel_tiers(self):
        a = EnumMISStatistics(
            extend_calls=4,
            edge_cache_evictions=11,
            candidates_covered=6,
            kernel_tiers={"indexed": 2, "native": 5},
        )
        b = EnumMISStatistics()
        b.restore(a.snapshot())
        assert b.kernel_tiers == {"indexed": 2, "native": 5}
        assert b.edge_cache_evictions == 11
        assert b.candidates_covered == 6
        assert b.snapshot() == a.snapshot()
        # The snapshot holds a copy, not the live map.
        a.kernel_tiers["indexed"] = 99
        assert b.kernel_tiers["indexed"] == 2

    def test_restore_tolerates_old_checkpoints(self):
        # Checkpoints written before a counter existed lack its key;
        # restore must leave the current value alone, not crash.
        stats = EnumMISStatistics(kernel_tiers={"keep": 1})
        stats.restore({"extend_calls": 6, "unknown_future_counter": 3})
        assert stats.extend_calls == 6
        assert stats.kernel_tiers == {"keep": 1}

    def test_report_clause(self):
        assert report_clause(EnumMISStatistics()) == ""
        stats = EnumMISStatistics(
            batch_retries=2, extend_calls=8, candidates_covered=24
        )
        assert report_clause(stats) == (
            "supervision: 2 batch retries; coverage: 24 of 32 candidates skipped"
        )

    def test_restore_ignores_retired_redundant_extensions(self):
        # Snapshots from before the never-written map counter was
        # retired still carry it; it must restore cleanly and vanish.
        stats = EnumMISStatistics()
        stats.restore(
            {
                "extend_calls": 2,
                "redundant_extensions": {"mcs_m": 3},
                "kernel_tiers": {"indexed": 1},
            }
        )
        assert stats.extend_calls == 2
        assert stats.kernel_tiers == {"indexed": 1}
        assert "redundant_extensions" not in stats.snapshot()
        assert not hasattr(stats, "redundant_extensions")

    def test_stats_survive_checkpoint_file_round_trip(self, tmp_path):
        from repro.engine.checkpoint import CheckpointManager, CheckpointState

        stats = EnumMISStatistics(
            answers=7,
            edge_cache_evictions=2,
            kernel_tiers={"native": 3},
        )
        manager = CheckpointManager(tmp_path / "stats.ckpt.json", "fp")
        manager.save(CheckpointState(stats=stats.snapshot()))
        restored = EnumMISStatistics()
        restored.restore(manager.load().stats)
        assert restored.snapshot() == stats.snapshot()
        assert restored.kernel_tiers == {"native": 3}


class TestCheckpointResume:
    def _round_trip(self, backend, workers, tmp_path, mode="UG"):
        g = gnp_random_graph(13, 0.3, seed=21)
        full = serial_answers(g, mode=mode)
        path = tmp_path / f"{backend}-{mode}.ckpt.json"
        engine = EnumerationEngine(backend, workers=workers)
        first = engine.run(
            EnumerationJob(
                g, mode=mode, checkpoint_path=path, checkpoint_every=5,
                max_results=len(full) // 3,
            )
        )
        second = engine.run(
            EnumerationJob(g, mode=mode, checkpoint_path=path, resume=True)
        )
        got_first = answer_set(first.triangulations)
        got_second = answer_set(second.triangulations)
        assert not (got_first & got_second), "resume re-yielded answers"
        assert got_first | got_second == full
        assert second.completed

    def test_serial_round_trip_ug(self, tmp_path):
        self._round_trip("serial", None, tmp_path, mode="UG")

    def test_serial_round_trip_up(self, tmp_path):
        self._round_trip("serial", None, tmp_path, mode="UP")

    def test_sharded_round_trip(self, tmp_path):
        self._round_trip("sharded", 2, tmp_path)

    def test_resume_after_completion_yields_nothing(self, tmp_path):
        g = gnp_random_graph(10, 0.4, seed=5)
        path = tmp_path / "done.ckpt.json"
        engine = EnumerationEngine("serial")
        done = engine.run(EnumerationJob(g, checkpoint_path=path))
        assert done.completed
        again = engine.run(EnumerationJob(g, checkpoint_path=path, resume=True))
        assert again.count == 0

    def test_checkpoint_state_is_json_with_fingerprint(self, tmp_path):
        g = gnp_random_graph(10, 0.4, seed=5)
        path = tmp_path / "state.ckpt.json"
        EnumerationEngine("serial").run(
            EnumerationJob(g, checkpoint_path=path, max_results=4)
        )
        data = json.loads(path.read_text())
        assert data["fingerprint"] == job_fingerprint(g, "UG", "mcs_m", "components")
        (section,) = data["regions"]
        assert section["region"] == region_fingerprint(g)
        assert section["queue"] or section["processed"]
        assert all(isinstance(m, int) for m in section["known_nodes"])
        assert data["arrivals"] == [] and data["delivered"] == 0

    def test_version1_checkpoint_still_loads(self, tmp_path):
        # Files written by the pre-multi-region format (one top-level
        # section, version 1) must keep resuming.
        g = gnp_random_graph(10, 0.4, seed=5)
        path = tmp_path / "v1.ckpt.json"
        full = serial_answers(g)
        engine = EnumerationEngine("serial")
        first = engine.run(
            EnumerationJob(g, checkpoint_path=path, max_results=3)
        )
        data = json.loads(path.read_text())
        (section,) = data.pop("regions")
        section.pop("region")
        data.pop("arrivals"), data.pop("delivered")
        path.write_text(json.dumps({**data, **section, "version": 1}))
        second = engine.run(
            EnumerationJob(g, checkpoint_path=path, resume=True)
        )
        got_first = answer_set(first.triangulations)
        got_second = answer_set(second.triangulations)
        assert not (got_first & got_second)
        assert got_first | got_second == full

    def test_resume_without_checkpoint_file_is_an_error(self, tmp_path):
        g = gnp_random_graph(10, 0.4, seed=5)
        with pytest.raises(CheckpointError, match="does not exist"):
            list(
                EnumerationEngine("serial").stream(
                    EnumerationJob(
                        g,
                        checkpoint_path=tmp_path / "missing.ckpt",
                        resume=True,
                    )
                )
            )

    def test_fingerprint_mismatch_is_rejected(self, tmp_path):
        g = gnp_random_graph(10, 0.4, seed=5)
        path = tmp_path / "other.ckpt.json"
        EnumerationEngine("serial").run(
            EnumerationJob(g, checkpoint_path=path, max_results=4)
        )
        other = gnp_random_graph(10, 0.4, seed=6)
        with pytest.raises(CheckpointError, match="different job"):
            EnumerationEngine("serial").run(
                EnumerationJob(other, checkpoint_path=path, resume=True)
            )

    def test_manager_round_trip_preserves_answers(self, tmp_path):
        from repro.engine.checkpoint import CheckpointState

        manager = CheckpointManager(tmp_path / "m.json", "fp", every=3)
        state = CheckpointState(
            known_nodes=[3, 12],
            exhausted=False,
            queue=[frozenset({5, 9})],
            processed=[frozenset({5}), frozenset()],
            yielded=[frozenset({5})],
            stats={"answers": 3},
        )
        manager.save(state)
        loaded = manager.load()
        assert loaded.known_nodes == [3, 12]
        assert loaded.queue == [frozenset({5, 9})]
        assert set(loaded.processed) == {frozenset({5}), frozenset()}
        assert loaded.stats["answers"] == 3

    def test_region_count_mismatch_is_rejected(self, tmp_path):
        # Same job fingerprint, fewer sections than regions: a
        # truncated document must be rejected, not silently resumed.
        g = _disconnected_graph()
        path = tmp_path / "truncated.ckpt.json"
        EnumerationEngine("serial").run(
            EnumerationJob(g, checkpoint_path=path, max_results=3)
        )
        data = json.loads(path.read_text())
        assert len(data["regions"]) == 3
        data["regions"] = data["regions"][:2]
        path.write_text(json.dumps(resign(data)))
        with pytest.raises(
            CheckpointError, match=r"2 region section\(s\)"
        ):
            EnumerationEngine("serial").run(
                EnumerationJob(g, checkpoint_path=path, resume=True)
            )

    def test_corrupt_product_state_is_rejected(self, tmp_path):
        g = _disconnected_graph()
        path = tmp_path / "corrupt.ckpt.json"
        engine = EnumerationEngine("serial")
        engine.run(EnumerationJob(g, checkpoint_path=path, max_results=3))
        pristine = path.read_text()

        data = json.loads(pristine)
        data["arrivals"][0] = -1
        path.write_text(json.dumps(resign(data)))
        with pytest.raises(CheckpointError, match="inconsistent"):
            engine.run(EnumerationJob(g, checkpoint_path=path, resume=True))

        data = json.loads(pristine)
        data["delivered"] = 10_000
        path.write_text(json.dumps(resign(data)))
        with pytest.raises(CheckpointError, match="delivered"):
            engine.run(EnumerationJob(g, checkpoint_path=path, resume=True))


def _disconnected_graph() -> Graph:
    """Two seeded Gnp components plus a path — three regions."""
    g = gnp_random_graph(8, 0.45, seed=13)
    other = gnp_random_graph(7, 0.5, seed=14)
    for u, v in other.edges():
        g.add_edge(f"b{u}", f"b{v}")
    g.add_edge("p0", "p1")
    g.add_edge("p1", "p2")
    return g


class TestMultiRegionCheckpoint:
    """Disconnected / atom-split jobs checkpoint and resume (ISSUE 4)."""

    def _round_trip(self, backend, workers, tmp_path, mode="UG",
                    decompose="components", graph=None):
        g = graph if graph is not None else _disconnected_graph()
        full = serial_answers(g, mode=mode, decompose=decompose)
        assert len(full) > 6
        path = tmp_path / f"{backend}-{mode}-{decompose}.ckpt.json"
        engine = EnumerationEngine(backend, workers=workers)
        first = engine.run(
            EnumerationJob(
                g, mode=mode, decompose=decompose, checkpoint_path=path,
                checkpoint_every=4, max_results=len(full) // 3,
            )
        )
        second = engine.run(
            EnumerationJob(
                g, mode=mode, decompose=decompose, checkpoint_path=path,
                resume=True,
            )
        )
        got_first = answer_set(first.triangulations)
        got_second = answer_set(second.triangulations)
        assert len(got_first) == len(full) // 3
        assert not (got_first & got_second), "resume re-yielded answers"
        assert got_first | got_second == full
        assert second.completed
        # Serial and sharded must agree on the combined answer set even
        # when the stream was interrupted and resumed mid-product.
        assert got_first | got_second == full

    def test_serial_disconnected_ug(self, tmp_path):
        self._round_trip("serial", None, tmp_path, mode="UG")

    def test_serial_disconnected_up(self, tmp_path):
        self._round_trip("serial", None, tmp_path, mode="UP")

    def test_sharded_disconnected_ug(self, tmp_path):
        self._round_trip("sharded", 2, tmp_path, mode="UG")

    def test_sharded_disconnected_up(self, tmp_path):
        self._round_trip("sharded", 2, tmp_path, mode="UP")

    def test_serial_atoms_round_trip(self, tmp_path):
        g = gnp_random_graph(12, 0.3, seed=42)
        self._round_trip(
            "serial", None, tmp_path, decompose="atoms", graph=g
        )

    def test_sharded_atoms_round_trip(self, tmp_path):
        g = gnp_random_graph(12, 0.3, seed=42)
        self._round_trip(
            "sharded", 2, tmp_path, decompose="atoms", graph=g
        )

    def test_every_interrupt_point_is_safe_serial(self, tmp_path):
        # Interrupt after every possible prefix length: the combined
        # answer set must always be exact with no duplicates.
        g = Graph(
            edges=[(1, 2), (2, 3), (3, 4), (4, 1),
                   (10, 11), (11, 12), (12, 13), (13, 10), (20, 21)]
        )
        full = serial_answers(g)
        engine = EnumerationEngine("serial")
        for k in range(1, len(full)):
            path = tmp_path / f"cut{k}.ckpt.json"
            first = engine.run(
                EnumerationJob(
                    g, checkpoint_path=path, checkpoint_every=1,
                    max_results=k,
                )
            )
            second = engine.run(
                EnumerationJob(g, checkpoint_path=path, resume=True)
            )
            got_first = answer_set(first.triangulations)
            got_second = answer_set(second.triangulations)
            assert not (got_first & got_second)
            assert got_first | got_second == full

    def test_multi_region_resume_after_completion(self, tmp_path):
        g = _disconnected_graph()
        path = tmp_path / "done.ckpt.json"
        engine = EnumerationEngine("serial")
        done = engine.run(EnumerationJob(g, checkpoint_path=path))
        assert done.completed
        again = engine.run(
            EnumerationJob(g, checkpoint_path=path, resume=True)
        )
        assert again.count == 0

    def test_multi_region_document_shape(self, tmp_path):
        g = _disconnected_graph()
        path = tmp_path / "doc.ckpt.json"
        EnumerationEngine("serial").run(
            EnumerationJob(g, checkpoint_path=path, max_results=5)
        )
        data = json.loads(path.read_text())
        assert len(data["regions"]) == 3
        fingerprints = {section["region"] for section in data["regions"]}
        assert len(fingerprints) == 3
        assert data["delivered"] == 5
        assert len(data["arrivals"]) == sum(
            len(section["yielded"]) for section in data["regions"]
        )


def _many_atoms_graph() -> Graph:
    """A 20-edge path with a C4, a C4 and a C5 hung on it: 23 atoms.

    Every path edge is an atom with one (empty) triangulation; the
    cycles give 2 · 2 · 5 = 20 answers in all.
    """
    g = Graph(edges=[(f"p{i}", f"p{i + 1}") for i in range(20)])
    for anchor, tag, length in (("p0", "a", 4), ("p10", "b", 4), ("p20", "c", 5)):
        ring = [anchor] + [f"{tag}{i}" for i in range(1, length)]
        for i, node in enumerate(ring):
            g.add_edge(node, ring[(i + 1) % length])
    return g


class TestManyRegionCheckpoint:
    """The job saves once on exit; regions save only on cadence."""

    # (graph, decompose) for the single- and the multi-region path.
    CASES = {
        "single": (lambda: gnp_random_graph(13, 0.3, seed=21), "components"),
        "multi": (_many_atoms_graph, "atoms"),
    }

    @staticmethod
    def _count_saves(monkeypatch) -> list:
        saves = []
        real = CheckpointManager.save_document

        def counting(self, document):
            saves.append(document)
            real(self, document)

        monkeypatch.setattr(CheckpointManager, "save_document", counting)
        return saves

    def test_saves_do_not_grow_with_regions(self, tmp_path, monkeypatch):
        from repro.chordal.atoms import atoms
        from repro.workloads.pgm import promedas_like

        g = promedas_like(40, 60, seed=0)
        regions = len(atoms(g))
        assert regions >= 20
        saves = self._count_saves(monkeypatch)
        every = 16
        result = EnumerationEngine("serial").run(
            EnumerationJob(
                g, decompose="atoms", checkpoint_path=tmp_path / "c.json",
                checkpoint_every=every, max_results=101,
            )
        )
        assert result.count == 101
        assert len(saves) < regions
        assert len(saves) <= -(-result.stats.answers // every) + 2

    def test_single_region_saves_on_exit(self, tmp_path, monkeypatch):
        g = gnp_random_graph(13, 0.3, seed=21)
        saves = self._count_saves(monkeypatch)
        EnumerationEngine("serial").run(
            EnumerationJob(
                g, checkpoint_path=tmp_path / "c.json",
                checkpoint_every=10_000, max_results=5,
            )
        )
        assert len(saves) == 1

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("backend", ["serial", "sharded"])
    def test_interrupt_and_resume(self, tmp_path, case, backend):
        build, decompose = self.CASES[case]
        g = build()
        full = serial_answers(g, decompose=decompose)
        engine = EnumerationEngine(backend, workers=2)
        for k in (1, len(full) // 2, len(full) - 1):
            path = tmp_path / f"{case}-{k}.ckpt.json"
            first = engine.run(
                EnumerationJob(
                    g, decompose=decompose, checkpoint_path=path,
                    checkpoint_every=3, max_results=k,
                )
            )
            second = engine.run(
                EnumerationJob(
                    g, decompose=decompose, checkpoint_path=path,
                    resume=True,
                )
            )
            got_first = answer_set(first.triangulations)
            got_second = answer_set(second.triangulations)
            assert len(got_first) == k
            assert len(got_second) == len(second.triangulations)
            assert not (got_first & got_second)
            assert got_first | got_second == full

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exception_leaves_resumable_document(
        self, tmp_path, monkeypatch, case
    ):
        from concurrent.futures import Future

        import repro.engine.serial as serial_backend
        from repro.engine.pool import InlineRunner

        class FailingRunner(InlineRunner):
            """Raises out of the 4th batch's result."""

            submitted = 0

            def submit(self, batch):
                FailingRunner.submitted += 1
                if FailingRunner.submitted == 4:
                    future: Future = Future()
                    future.set_exception(RuntimeError("worker died"))
                    return future
                return super().submit(batch)

        build, decompose = self.CASES[case]
        g = build()
        full = serial_answers(g, decompose=decompose)
        path = tmp_path / f"{case}.ckpt.json"
        engine = EnumerationEngine("serial")
        monkeypatch.setattr(serial_backend, "InlineRunner", FailingRunner)
        before = []
        with pytest.raises(RuntimeError, match="worker died"):
            for triangulation in engine.stream(
                EnumerationJob(
                    g, decompose=decompose, checkpoint_path=path,
                    checkpoint_every=10_000,
                )
            ):
                before.append(triangulation)
        monkeypatch.undo()
        assert path.exists()
        after = engine.run(
            EnumerationJob(
                g, decompose=decompose, checkpoint_path=path, resume=True
            )
        )
        got_before = answer_set(before)
        got_after = answer_set(after.triangulations)
        assert not (got_before & got_after)
        assert got_before | got_after == full
        assert after.completed

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("tamper", ["graph", "region", "prefix"])
    def test_failed_resume_leaves_file_untouched(self, tmp_path, case, tamper):
        build, decompose = self.CASES[case]
        g = build()
        path = tmp_path / f"{case}.ckpt.json"
        engine = EnumerationEngine("serial")
        engine.run(
            EnumerationJob(
                g, decompose=decompose, checkpoint_path=path, max_results=3
            )
        )
        if tamper == "graph":
            g = g.copy()
            g.add_edge("extra", "node")
        else:
            data = json.loads(path.read_text())
            section = next(
                s for s in data["regions"] if len(s["known_nodes"]) > 0
            )
            if tamper == "region":
                section["region"] = "0" * len(section["region"])
            else:
                section["known_nodes"][0] ^= 1 << 40
            path.write_text(json.dumps(resign(data)))
        pristine = path.read_bytes()
        with pytest.raises(CheckpointError):
            engine.run(
                EnumerationJob(
                    g, decompose=decompose, checkpoint_path=path, resume=True
                )
            )
        assert path.read_bytes() == pristine
