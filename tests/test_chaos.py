"""Supervised execution: chaos injection, quarantine, watchdog, salvage.

Four layers of coverage for the failure model:

* **Protocol units** — tagged-frame CRC round trips, BATCH_FAILED
  encode/decode, liveness-config validation.
* **Fault machinery units** — chaos spec parsing and the determinism
  of the injected schedules, watchdog deadline/RSS breaches, the
  retry → split-in-half → quarantine ladder of the coordinator, and
  checkpoint CRC salvage across generations (every-prefix truncation).
* **End-to-end fault injection** — poison batches on the process pool
  (cooperative abort and hard kill) and watchdog breaches over real
  TCP workers; the final answer set must equal the serial reference
  every time, with the salvage visible in the statistics.
* **Chaos soak** — seeded schedules of frame drops/dups/corruption/
  resets/delays driven through the full coordinator/worker stack in
  both printing modes, asserting exact answer-set equality vs serial.
"""

from __future__ import annotations

import functools
import json
import pickle
import socket
import threading
import time
from concurrent.futures import Future

import pytest

pytest.importorskip("numpy")

from repro.chordal.minimal_separators import minimal_separator_masks
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.engine import EngineError, EnumerationEngine, EnumerationJob
from repro.engine.base import BatchFailedError, WireDecodeError
from repro.engine.checkpoint import (
    CheckpointIntegrityError,
    CheckpointManager,
)
from repro.engine.coordinator import MISCoordinator, _Inflight
from repro.engine.distributed import DistributedBackend, protocol
from repro.engine.distributed.chaos import ChaosInjector, ChaosSpec
from repro.engine.distributed.worker import WorkerConfig, run_worker
from repro.engine.pool import InlineRunner, WorkerState, make_payload
from repro.engine.watchdog import (
    BatchAbortedError,
    BatchFailure,
    BatchLimits,
    current_rss_bytes,
)
from repro.graph.generators import gnp_random_graph
from repro.sgr.enum_mis import EnumMISStatistics


def answer_set(triangulations) -> set[frozenset]:
    return {frozenset(t.fill_edges) for t in triangulations}


def serial_answers(graph, **kwargs) -> set[frozenset]:
    return answer_set(enumerate_minimal_triangulations(graph, **kwargs))


def region_coordinator(graph, runner, **kwargs) -> MISCoordinator:
    return MISCoordinator(graph, graph.core.alive, runner, **kwargs)


def inline_region_answers(graph) -> set[frozenset]:
    """Reference answer set (as separator-mask frozensets) of one region."""
    coordinator = region_coordinator(
        graph, InlineRunner(make_payload(graph, "mcs_m"))
    )
    return set(coordinator.stream())


def _entry(answers, directions, *, retries=0, from_split=False) -> _Inflight:
    return _Inflight(
        kind="pop",
        answers=tuple(answers),
        submitted_ns=0,
        sent_bytes=0,
        pairs=len(answers) * len(directions),
        directions=tuple(directions),
        retries=retries,
        from_split=from_split,
    )


def run_distributed(job, *, workers=2, spawn=None, worker_config=None,
                    **backend_kwargs):
    """Run ``job`` against real TCP workers (threads by default)."""
    config = worker_config if worker_config is not None else WorkerConfig(
        heartbeat_s=0.2, max_retries=5, connect_timeout_s=5.0
    )
    launched = []

    def on_listening(address):
        if spawn is not None:
            launched.extend(spawn(address))
            return
        for _ in range(workers):
            thread = threading.Thread(
                target=run_worker, args=(address, config), daemon=True
            )
            thread.start()
            launched.append(thread)

    backend = DistributedBackend(
        listen="127.0.0.1:0",
        expected_workers=workers,
        heartbeat_s=0.2,
        on_listening=on_listening,
        **backend_kwargs,
    )
    result = EnumerationEngine(backend).run(job)
    for item in launched:
        item.join(timeout=15)
    return result


# ----------------------------------------------------------------------
# Protocol units
# ----------------------------------------------------------------------


class TestTaggedFrames:
    def test_roundtrip(self):
        payload = protocol.pack_tagged(42, b"batch body bytes")
        batch_id, body = protocol.unpack_tagged(payload)
        assert batch_id == 42
        assert body == b"batch body bytes"

    def test_short_payload_rejected(self):
        with pytest.raises(WireDecodeError, match="shorter"):
            protocol.unpack_tagged(b"\x00\x01")

    def test_crc_mismatch_rejected(self):
        payload = bytearray(protocol.pack_tagged(7, b"some result data"))
        payload[-1] ^= 0x40  # flip one body bit
        with pytest.raises(WireDecodeError, match="CRC"):
            protocol.unpack_tagged(bytes(payload))

    def test_batch_failed_roundtrip(self):
        data = protocol.encode_batch_failed(9, "deadline", 1.5, 1 << 20)
        assert protocol.decode_batch_failed(data) == (
            9, "deadline", 1.5, 1 << 20,
        )

    def test_batch_failed_malformed_body_rejected(self):
        data = protocol.pack_tagged(
            3, protocol.encode_json({"reason": "rss"})  # missing fields
        )
        with pytest.raises(WireDecodeError, match="BATCH_FAILED"):
            protocol.decode_batch_failed(data)


class TestLivenessValidation:
    def test_rejects_nonpositive_heartbeat(self):
        with pytest.raises(EngineError, match="heartbeat"):
            protocol.validate_liveness_config(0.0, None)

    def test_rejects_nonpositive_miss_threshold(self):
        with pytest.raises(EngineError, match="threshold"):
            protocol.validate_liveness_config(1.0, None, 0.0)

    def test_rejects_pending_timeout_at_or_below_heartbeat(self):
        with pytest.raises(EngineError, match="exceed the heartbeat"):
            protocol.validate_liveness_config(2.0, 2.0)
        protocol.validate_liveness_config(2.0, 2.1)  # boundary passes

    def test_backend_validates_at_construction(self):
        with pytest.raises(EngineError, match="exceed the heartbeat"):
            DistributedBackend(
                listen="127.0.0.1:0", heartbeat_s=1.0, pending_timeout_s=0.5
            )


# ----------------------------------------------------------------------
# Chaos spec and injector units
# ----------------------------------------------------------------------


class TestChaosSpec:
    def test_parse(self):
        spec = ChaosSpec.parse("seed=7, drop=0.25, delay_ms=2")
        assert spec.seed == 7
        assert spec.drop == 0.25
        assert spec.delay_ms == 2.0
        assert spec.dup == ChaosSpec().dup  # untouched fields keep defaults

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(EngineError, match="nope"):
            ChaosSpec.parse("nope=1")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(EngineError, match="non-numeric"):
            ChaosSpec.parse("drop=often")

    def test_rates_validated(self):
        with pytest.raises(EngineError, match=r"\[0, 1\]"):
            ChaosSpec(drop=1.5)
        with pytest.raises(EngineError, match="delay_ms"):
            ChaosSpec(delay_ms=-1)

    def test_from_env_prefers_full_spec(self):
        spec = ChaosSpec.from_env(
            {"REPRO_CHAOS_SPEC": "seed=3,corrupt=0.5", "REPRO_CHAOS_SEED": "9"}
        )
        assert spec.seed == 3 and spec.corrupt == 0.5

    def test_from_env_seed_only(self):
        assert ChaosSpec.from_env({"REPRO_CHAOS_SEED": "0x10"}).seed == 16

    def test_from_env_bad_seed_is_typed(self):
        with pytest.raises(EngineError, match="REPRO_CHAOS_SEED"):
            ChaosSpec.from_env({"REPRO_CHAOS_SEED": "soon"})

    def test_from_env_absent(self):
        assert ChaosSpec.from_env({}) is None


class _FakeSocket:
    """Records sendall calls; serves canned bytes to recv."""

    def __init__(self, to_serve: bytes = b""):
        self.sent: list[bytes] = []
        self.to_serve = to_serve
        self.closed = False

    def sendall(self, data):
        self.sent.append(bytes(data))

    def recv(self, bufsize):
        chunk, self.to_serve = self.to_serve[:bufsize], self.to_serve[bufsize:]
        return chunk

    def shutdown(self, how):
        pass

    def close(self):
        self.closed = True

    def settimeout(self, value):
        pass


def _spec(**rates) -> ChaosSpec:
    """A spec with every fault off except the ones named (no delays)."""
    base = dict(seed=1, drop=0.0, dup=0.0, corrupt=0.0, reset=0.0,
                delay=0.0, delay_ms=0.0)
    base.update(rates)
    return ChaosSpec(**base)


class TestChaosInjection:
    FRAME = protocol.encode_frame(protocol.MSG_HEARTBEAT)

    def test_drop_swallows_the_frame(self):
        fake = _FakeSocket()
        ChaosInjector(_spec(drop=1.0)).wrap(fake).sendall(self.FRAME)
        assert fake.sent == []

    def test_dup_sends_twice(self):
        fake = _FakeSocket()
        ChaosInjector(_spec(dup=1.0)).wrap(fake).sendall(self.FRAME)
        assert fake.sent == [self.FRAME, self.FRAME]

    def test_corrupt_flips_exactly_one_byte(self):
        fake = _FakeSocket()
        ChaosInjector(_spec(corrupt=1.0)).wrap(fake).sendall(self.FRAME)
        (sent,) = fake.sent
        assert len(sent) == len(self.FRAME)
        assert sum(a != b for a, b in zip(sent, self.FRAME)) == 1

    def test_send_reset_closes_and_raises(self):
        fake = _FakeSocket()
        sock = ChaosInjector(_spec(reset=1.0)).wrap(fake)
        with pytest.raises(ConnectionResetError):
            sock.sendall(self.FRAME)
        assert fake.closed
        # At most a partial frame escaped before the cut.
        assert sum(len(chunk) for chunk in fake.sent) < len(self.FRAME)

    def test_recv_reset_closes_and_raises(self):
        fake = _FakeSocket(b"anything")
        sock = ChaosInjector(_spec(reset=1.0)).wrap(fake)
        with pytest.raises(ConnectionResetError):
            sock.recv(64)
        assert fake.closed

    def test_recv_corrupt_flips_one_byte(self):
        fake = _FakeSocket(b"hello, worker")
        chunk = ChaosInjector(_spec(corrupt=1.0)).wrap(fake).recv(64)
        assert len(chunk) == len(b"hello, worker")
        assert sum(a != b for a, b in zip(chunk, b"hello, worker")) == 1

    def test_same_seed_same_schedule(self):
        spec = _spec(seed=99, drop=0.4, dup=0.3, corrupt=0.2)
        transcripts = []
        for __ in range(2):
            fake = _FakeSocket()
            sock = ChaosInjector(spec).wrap(fake)
            for __ in range(32):
                sock.sendall(self.FRAME)
            transcripts.append(fake.sent)
        assert transcripts[0] == transcripts[1]

    def test_schedule_persists_across_reconnects(self):
        # One injector re-wrapped mid-run must continue its schedule,
        # not restart it from the seed.
        spec = _spec(seed=5, drop=0.5)
        continuous = _FakeSocket()
        sock = ChaosInjector(spec).wrap(continuous)
        for __ in range(16):
            sock.sendall(self.FRAME)

        injector = ChaosInjector(spec)
        first, second = _FakeSocket(), _FakeSocket()
        wrapped = injector.wrap(first)
        for __ in range(8):
            wrapped.sendall(self.FRAME)
        wrapped = injector.wrap(second)  # "reconnect"
        for __ in range(8):
            wrapped.sendall(self.FRAME)
        assert first.sent + second.sent == continuous.sent


class TestChaosFrameTypeCoverage:
    """Every protocol frame type gets a chaos schedule.

    The `protocol-dispatch` analyze rule proves this statically (the
    injector derives streams from the frame-type byte, so coverage
    holds by construction); this test pins the runtime half: for every
    ``MSG_*`` the protocol exports, ``send_stream`` yields a
    deterministic stream that is stable within an injector,
    reproducible across same-seed injectors, and independent between
    frame types.
    """

    def msg_constants(self) -> dict[str, int]:
        return {
            name: getattr(protocol, name)
            for name in protocol.__all__
            if name.startswith("MSG_")
        }

    def test_every_exported_frame_type_has_a_schedule(self):
        constants = self.msg_constants()
        assert len(constants) >= 11  # the full conversation, not a subset
        injector = ChaosInjector(_spec(seed=21, drop=0.5))
        streams = {
            name: injector.send_stream(value)
            for name, value in constants.items()
        }
        # Stable: the injector keeps one stream per frame type alive
        # for its whole lifetime (schedules survive reconnects).
        for name, value in constants.items():
            assert injector.send_stream(value) is streams[name]

    def test_schedules_deterministic_and_type_independent(self):
        constants = self.msg_constants()
        draws = {}
        for name, value in constants.items():
            a = ChaosInjector(_spec(seed=21)).send_stream(value)
            b = ChaosInjector(_spec(seed=21)).send_stream(value)
            first = tuple(a.random() for __ in range(4))
            assert first == tuple(b.random() for __ in range(4))
            draws[name] = first
        # Independent: no two frame types share a schedule, so a fault
        # pattern tuned to heartbeats cannot shadow batch traffic.
        assert len(set(draws.values())) == len(draws)


# ----------------------------------------------------------------------
# Watchdog units
# ----------------------------------------------------------------------


def _one_pair_batch(graph):
    direction = next(iter(minimal_separator_masks(graph)))
    return (graph.core.alive, [((), (direction,))])


class TestWatchdog:
    def test_limits_validated(self):
        with pytest.raises(EngineError, match="deadline"):
            BatchLimits(deadline_s=0)
        with pytest.raises(EngineError, match="rss"):
            BatchLimits(rss_limit_bytes=-5)

    def test_limits_from_cli(self):
        assert BatchLimits.from_cli(None, None) is None
        limits = BatchLimits.from_cli(30.0, 64.0)
        assert limits.deadline_s == 30.0
        assert limits.rss_limit_bytes == 64 * (1 << 20)
        assert limits.enabled
        assert not BatchLimits().enabled

    def test_current_rss_is_observable(self):
        assert current_rss_bytes() > 0

    def test_deadline_breach_aborts_and_frees_scratch(self):
        graph = gnp_random_graph(8, 0.5, seed=7)
        state = WorkerState(
            make_payload(graph, "mcs_m"),
            limits=BatchLimits(deadline_s=1e-9),
        )
        with pytest.raises(BatchAbortedError) as excinfo:
            state.run_batch(_one_pair_batch(graph))
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.elapsed_s >= 0
        # The abort path must drop the scratch caches the batch grew.
        assert not state._regions

    def test_rss_breach_aborts(self):
        graph = gnp_random_graph(8, 0.5, seed=7)
        state = WorkerState(
            make_payload(graph, "mcs_m"),
            limits=BatchLimits(rss_limit_bytes=1),
        )
        with pytest.raises(BatchAbortedError) as excinfo:
            state.run_batch(_one_pair_batch(graph))
        assert excinfo.value.reason == "rss"
        assert excinfo.value.peak_rss > 1

    def test_generous_limits_do_not_interfere(self):
        graph = gnp_random_graph(8, 0.5, seed=7)
        payload = make_payload(graph, "mcs_m")
        batch = _one_pair_batch(graph)
        bounded = WorkerState(
            payload,
            limits=BatchLimits(deadline_s=300.0, rss_limit_bytes=1 << 40),
        )
        unbounded = WorkerState(payload)
        out, __, __ = bounded.run_batch(batch)
        expected, __, __ = unbounded.run_batch(batch)
        assert out == expected

    def test_batch_failure_pickles(self):
        failure = BatchFailure("rss", 1.25, 12345)
        assert pickle.loads(pickle.dumps(failure)) == failure


# ----------------------------------------------------------------------
# The quarantine ladder (retry → split in half → serial salvage)
# ----------------------------------------------------------------------


class _PoisonRunner:
    """Inline runner that fails any batch carrying the poison answer.

    Failures surface exactly like the distributed transport's
    exhausted-retry error, so the coordinator must split and then
    quarantine — a plain redispatch would fail forever.
    """

    workers = 1
    in_process = True  # receives the inner runner's tuple batches

    def __init__(self, payload, poison: frozenset):
        self._inner = InlineRunner(payload)
        self._poison = poison
        self.failed_sizes: list[int] = []

    def submit(self, batch):
        region_mask, jobs = batch
        answers = [frozenset(masks) for masks, __ in jobs]
        if self._poison in answers:
            self.failed_sizes.append(len(answers))
            future: Future = Future()
            future.set_exception(
                BatchFailedError(
                    "injected transport failure",
                    reason="injected-poison",
                    exhausted=True,
                )
            )
            return future
        return self._inner.submit(batch)

    def close(self):
        self._inner.close()


class TestQuarantineLadder:
    GRAPH = gnp_random_graph(8, 0.5, seed=3)  # 7 answers in this region

    def _coordinator(self, **kwargs) -> MISCoordinator:
        return region_coordinator(
            self.GRAPH,
            InlineRunner(make_payload(self.GRAPH, "mcs_m")),
            **kwargs,
        )

    def _sample_answers(self, count: int) -> list[frozenset]:
        return sorted(inline_region_answers(self.GRAPH), key=sorted)[:count]

    def test_retry_preserves_lineage(self):
        coordinator = self._coordinator(max_batch_retries=2)
        answers = self._sample_answers(2)
        directions = (next(iter(minimal_separator_masks(self.GRAPH))),)
        out = coordinator._handle_failure(
            _entry(answers, directions), "worker process died",
            exhausted=False,
        )
        assert out == []
        (redispatched,) = coordinator._inflight.values()
        assert redispatched.answers == tuple(answers)
        assert redispatched.retries == 1
        assert not redispatched.from_split
        assert coordinator._stats.batch_retries == 1
        assert coordinator._stats.batches_quarantined == 0

    def test_exhausted_batch_splits_in_half_once(self):
        coordinator = self._coordinator(max_batch_retries=3)
        answers = self._sample_answers(4)
        directions = (next(iter(minimal_separator_masks(self.GRAPH))),)
        out = coordinator._handle_failure(
            _entry(answers, directions), "deadline", exhausted=True
        )
        assert out == []
        halves = sorted(
            coordinator._inflight.values(), key=lambda e: sorted(e.answers)
        )
        assert sorted(len(h.answers) for h in halves) == [2, 2]
        assert {a for h in halves for a in h.answers} == set(answers)
        for half in halves:
            # Halves carry a spent retry budget: a failing half goes
            # straight to quarantine instead of splitting again.
            assert half.from_split
            assert half.retries == 3
        assert coordinator._stats.batch_retries == 1

    def test_failed_half_is_quarantined_and_salvaged(self):
        coordinator = self._coordinator(max_batch_retries=1)
        (answer,) = self._sample_answers(1)
        directions = tuple(
            sorted(minimal_separator_masks(self.GRAPH))[:2]
        )
        entry = _entry([answer], directions, retries=1, from_split=True)
        with pytest.warns(RuntimeWarning, match="quarantin"):
            salvaged = coordinator._handle_failure(
                entry, "rss", exhausted=False
            )
        stats = coordinator._stats
        assert stats.batches_quarantined == 1
        assert stats.poison_answers == 1
        # The salvage re-drove the pairs serially: the recovered
        # answers are exactly what an inline runner computes.
        out, __, __ = InlineRunner(
            make_payload(self.GRAPH, "mcs_m")
        ).submit(
            (self.GRAPH.core.alive, [(tuple(sorted(answer)), directions)])
        ).result()
        assert set(salvaged) == {frozenset(masks) for masks in out}

    def test_quarantine_budget_breach_is_typed(self):
        coordinator = self._coordinator(
            max_batch_retries=0, quarantine_budget_s=1e-9
        )
        (answer,) = self._sample_answers(1)
        directions = (next(iter(minimal_separator_masks(self.GRAPH))),)
        entry = _entry([answer], directions, from_split=True)
        with pytest.warns(RuntimeWarning, match="quarantin"):
            with pytest.raises(EngineError, match="salvaged"):
                coordinator._handle_failure(entry, "deadline", exhausted=True)

    def test_poisoned_stream_still_enumerates_exactly(self):
        expected = inline_region_answers(self.GRAPH)
        poison = sorted(expected, key=sorted)[-1]
        runner = _PoisonRunner(make_payload(self.GRAPH, "mcs_m"), poison)
        coordinator = region_coordinator(
            self.GRAPH, runner, max_batch_retries=1
        )
        with pytest.warns(RuntimeWarning, match="quarantin"):
            got = set(coordinator.stream())
        assert got == expected
        assert runner.failed_sizes  # the poison actually fired
        stats = coordinator._stats
        assert stats.batches_quarantined >= 1
        assert stats.poison_answers >= 1


# ----------------------------------------------------------------------
# End-to-end fault injection (pool and TCP fleet)
# ----------------------------------------------------------------------


@pytest.mark.slow
class TestPoolPoisonQuarantine:
    @pytest.mark.parametrize("mode", ["fail", "kill"])
    def test_poisoned_pool_run_matches_serial(self, monkeypatch, mode):
        graph = gnp_random_graph(10, 0.4, seed=5)
        expected = serial_answers(graph)
        poison = next(iter(minimal_separator_masks(graph)))
        monkeypatch.setenv("REPRO_CHAOS_POISON", str(poison))
        monkeypatch.setenv("REPRO_CHAOS_POISON_MODE", mode)
        with pytest.warns(RuntimeWarning, match="quarantin"):
            result = EnumerationEngine("sharded", workers=2).run(
                EnumerationJob(graph, max_batch_retries=0)
            )
        assert answer_set(result.triangulations) == expected
        assert result.stats.batches_quarantined >= 1
        assert result.stats.poison_answers >= 1
        assert "quarantined" in result.summary()


@pytest.mark.slow
class TestDistributedSupervision:
    def test_worker_deadline_breach_salvaged_over_wire(self):
        # Every batch breaches the (absurd) deadline, so every answer
        # is recovered through BATCH_FAILED → quarantine → serial
        # salvage; the enumeration must still be exact.
        graph = gnp_random_graph(8, 0.5, seed=7)
        expected = serial_answers(graph)
        config = WorkerConfig(
            heartbeat_s=0.2,
            max_retries=20,
            connect_timeout_s=5.0,
            backoff_base_s=0.01,
            backoff_cap_s=0.05,
            limits=BatchLimits(deadline_s=1e-6),
        )
        with pytest.warns(RuntimeWarning, match="quarantin"):
            result = run_distributed(
                EnumerationJob(graph, max_batch_retries=0),
                worker_config=config,
                max_batch_retries=0,
            )
        assert answer_set(result.triangulations) == expected
        assert result.stats.batches_quarantined >= 1

    def test_protocol_rejections_counted_and_logged_once(self, capfd):
        from repro.engine.distributed.runner import DistributedRunner

        graph = gnp_random_graph(6, 0.5, seed=2)
        stats = EnumMISStatistics()
        runner = DistributedRunner(
            make_payload(graph, "mcs_m"), ("127.0.0.1", 0), stats=stats
        )
        try:
            for __ in range(2):
                with socket.create_connection(
                    runner.address, timeout=5
                ) as sock:
                    hello = protocol.encode_json(
                        {"magic": protocol.MAGIC, "protocol": 999}
                    )
                    protocol.send_frame(sock, protocol.MSG_HELLO, hello)
                    frame = protocol.recv_frame(sock)
                    assert frame.msg_type == protocol.MSG_ERROR
            deadline = time.monotonic() + 5
            while stats.protocol_rejections < 2:
                assert time.monotonic() < deadline, stats.protocol_rejections
                time.sleep(0.01)
        finally:
            runner.close()
        assert stats.protocol_rejections == 2
        # The same host is logged once, not per attempt.
        err = capfd.readouterr().err
        assert err.count("rejected worker handshake") == 1


# ----------------------------------------------------------------------
# Chaos soak: seeded fault schedules through the full TCP stack
# ----------------------------------------------------------------------


_SOAK_GRAPH = gnp_random_graph(8, 0.45, seed=3)


@functools.lru_cache(maxsize=None)
def _soak_expected(mode: str) -> frozenset:
    return frozenset(serial_answers(_SOAK_GRAPH, mode=mode))


def _chaotic_spawn(seed: int):
    """Launch two in-thread workers with seeded chaos schedules."""

    def spawn(address):
        threads = []
        for index in range(2):
            spec = ChaosSpec(
                seed=seed * 1000 + index,
                drop=0.05, dup=0.05, corrupt=0.05, reset=0.02,
                delay=0.1, delay_ms=1.0,
            )
            config = WorkerConfig(
                heartbeat_s=0.2,
                max_retries=100,
                connect_timeout_s=5.0,
                backoff_base_s=0.01,
                backoff_cap_s=0.05,
                chaos=ChaosInjector(spec),
            )
            thread = threading.Thread(
                target=run_worker, args=(address, config), daemon=True
            )
            thread.start()
            threads.append(thread)
        return threads

    return spawn


@pytest.mark.slow
class TestChaosSoak:
    @pytest.mark.parametrize("mode", ["UG", "UP"])
    @pytest.mark.parametrize("seed", range(10))
    def test_chaotic_fleet_matches_serial(self, seed, mode):
        result = run_distributed(
            EnumerationJob(_SOAK_GRAPH, mode=mode),
            spawn=_chaotic_spawn(seed),
            batch_timeout_s=1.0,
        )
        assert answer_set(result.triangulations) == set(
            _soak_expected(mode)
        ), (seed, mode)

    def test_chaotic_fleet_with_memo_hits_matches_serial(self):
        # A graph big enough that the workers' Extend memos answer
        # repeated candidates, under the same fault schedule.
        graph = gnp_random_graph(12, 0.35, seed=11)
        result = run_distributed(
            EnumerationJob(graph), spawn=_chaotic_spawn(7), batch_timeout_s=1.0
        )
        assert answer_set(result.triangulations) == serial_answers(graph)
        assert result.stats.extend_memo_hits > 0


# ----------------------------------------------------------------------
# Checkpoint CRC salvage (generation rotation, truncation, resume)
# ----------------------------------------------------------------------


class TestCheckpointSalvage:
    GRAPH = gnp_random_graph(9, 0.4, seed=13)

    def _seeded(self, tmp_path):
        """A checkpointed partial run leaving both generations on disk."""
        path = tmp_path / "state.ckpt"
        first = EnumerationEngine("serial").run(
            EnumerationJob(
                self.GRAPH,
                checkpoint_path=path,
                checkpoint_every=1,
                max_results=4,
            )
        )
        fingerprint = json.loads(path.read_text())["fingerprint"]
        manager = CheckpointManager(path, fingerprint)
        assert manager.previous_path.exists()
        return path, manager, first

    def test_rotation_keeps_previous_generation_intact(self, tmp_path):
        path, manager, __ = self._seeded(tmp_path)
        document = manager.load_document()  # newest, silently
        previous = manager._read_document(manager.previous_path)
        assert document.regions and previous.regions

    def test_every_prefix_truncation_salvages_previous(self, tmp_path):
        path, manager, __ = self._seeded(tmp_path)
        newest = path.read_bytes()
        previous = manager._read_document(manager.previous_path)
        for cut in range(len(newest)):
            path.write_bytes(newest[:cut])
            with pytest.warns(RuntimeWarning, match="damaged"):
                document = manager.load_document()
            assert document.delivered == previous.delivered, cut
            assert (
                document.regions[0].yielded == previous.regions[0].yielded
            ), cut
        path.write_bytes(newest)  # restored: loads silently again
        manager.load_document()

    def test_every_prefix_truncation_of_both_is_typed(self, tmp_path):
        path, manager, __ = self._seeded(tmp_path)
        newest = path.read_bytes()
        older = manager.previous_path.read_bytes()
        for cut in range(min(len(newest), len(older))):
            path.write_bytes(newest[:cut])
            manager.previous_path.write_bytes(older[:cut])
            with pytest.raises(CheckpointIntegrityError, match="no intact"):
                manager.load_document()

    def test_bit_flips_are_caught_by_the_crc(self, tmp_path):
        path, manager, __ = self._seeded(tmp_path)
        newest = bytearray(path.read_bytes())
        for index in range(0, len(newest), 97):
            flipped = bytearray(newest)
            flipped[index] ^= 0x20
            if bytes(flipped) == bytes(newest):  # pragma: no cover
                continue
            path.write_bytes(bytes(flipped))
            with pytest.warns(RuntimeWarning, match="damaged"):
                manager.load_document()

    def test_resume_after_truncation_never_loses_answers(self, tmp_path):
        expected = serial_answers(self.GRAPH)
        for cut_at in ("start", "middle", "end"):
            subdir = tmp_path / cut_at
            subdir.mkdir()
            path, __, first = self._seeded(subdir)
            newest = path.read_bytes()
            cut = {"start": 0, "middle": len(newest) // 2,
                   "end": len(newest) - 1}[cut_at]
            path.write_bytes(newest[:cut])
            with pytest.warns(RuntimeWarning, match="damaged"):
                rest = EnumerationEngine("serial").run(
                    EnumerationJob(
                        self.GRAPH, checkpoint_path=path, resume=True
                    )
                )
            got_first = answer_set(first.triangulations)
            got_rest = answer_set(rest.triangulations)
            # No loss: the union covers the full enumeration, and the
            # resumed half never duplicates itself internally.
            assert got_first | got_rest == expected, cut_at
            assert len(got_rest) == rest.count, cut_at

    def test_missing_newest_falls_back_to_previous(self, tmp_path):
        path, manager, __ = self._seeded(tmp_path)
        path.unlink()
        with pytest.warns(RuntimeWarning, match="damaged"):
            document = manager.load_document()
        assert document.regions
        # ... and a resume against only the previous generation works.
        with pytest.warns(RuntimeWarning, match="damaged"):
            rest = EnumerationEngine("serial").run(
                EnumerationJob(self.GRAPH, checkpoint_path=path, resume=True)
            )
        assert rest.completed
