"""Distributed backend: TCP fleet equality, elasticity and failover.

Three kinds of coverage:

* **Answer-set equality** — the distributed backend enumerates exactly
  the serial reference answer set over the property corpus, in both
  printing modes and both decompositions, with workers running in
  threads (fast) and as real ``repro worker`` subprocesses (honest).
* **Fault injection** — a SIGKILLed worker's in-flight batches are
  requeued to survivors and the final answer set is still exact; an
  interrupted coordinator resumes from its checkpoint without
  re-yielding (graceful SIGINT/SIGTERM: exactly-once across the
  restart; hard SIGKILL: no loss, duplicates possible only in the
  unsaved window).
* **Protocol discipline** — handshake rejections are typed and fatal
  (no reconnect storm), malformed HELLOs get an ERROR frame back, and
  the kernel-tier/membership statistics surface in the merged report.
"""

from __future__ import annotations

import ast
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from helpers import small_random_graphs

from repro.chordal.minimal_separators import minimal_separator_masks
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.engine import (
    BatchFailedError,
    EngineError,
    EnumerationEngine,
    EnumerationJob,
    wire,
)
from repro.engine.distributed import DistributedBackend
from repro.engine.distributed import protocol
from repro.engine.distributed.worker import WorkerConfig, run_worker
from repro.engine.pool import make_payload
from repro.graph.bitset_np import word_count
from repro.graph.generators import gnp_random_graph
from repro.graph.io import write_edge_list
from repro.sgr.enum_mis import EnumMISStatistics

SRC = Path(__file__).resolve().parents[1] / "src"

_FAST = WorkerConfig(heartbeat_s=0.2, max_retries=5, connect_timeout_s=5.0)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn_worker_proc(address) -> subprocess.Popen:
    """Launch a real ``repro worker`` subprocess against ``address``."""
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            f"{address[0]}:{address[1]}",
        ],
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def answer_set(triangulations) -> set[frozenset]:
    return {frozenset(t.fill_edges) for t in triangulations}


def serial_answers(graph, **kwargs) -> set[frozenset]:
    return answer_set(enumerate_minimal_triangulations(graph, **kwargs))


def run_distributed(job, *, workers=2, spawn=None, **backend_kwargs):
    """Run ``job`` on the distributed backend with in-thread workers.

    ``spawn`` overrides how workers are launched (given the bound
    address, returns a list of joinables/processes).
    """
    launched = []

    def on_listening(address):
        if spawn is not None:
            launched.extend(spawn(address))
            return
        for _ in range(workers):
            thread = threading.Thread(
                target=run_worker, args=(address, _FAST), daemon=True
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
        if isinstance(item, threading.Thread):
            item.join(timeout=10)
        else:
            item.wait(timeout=10)
    return result


class TestWorkerCount:
    def test_result_reports_the_expected_workers(self):
        graph = gnp_random_graph(7, 0.4, seed=3)
        result = run_distributed(EnumerationJob(graph), workers=2)
        assert result.workers == 2
        assert "(2 workers," in result.summary()

    def test_engine_override_wins(self):
        backend = DistributedBackend(listen="127.0.0.1:0", expected_workers=3)
        job = EnumerationJob(gnp_random_graph(6, 0.5, seed=1))
        assert EnumerationEngine(backend)._effective_workers(job) == 3
        assert EnumerationEngine(backend, workers=2)._effective_workers(job) == 2


class TestEquality:
    def test_matches_serial_on_property_corpus(self):
        for graph in small_random_graphs(6, max_nodes=8):
            expected = serial_answers(graph)
            result = run_distributed(EnumerationJob(graph))
            assert answer_set(result.triangulations) == expected

    def test_modes_and_decompositions(self):
        graph = gnp_random_graph(9, 0.35, seed=41)
        for mode in ("UG", "UP"):
            for decompose in ("components", "atoms"):
                expected = serial_answers(graph, decompose=decompose)
                result = run_distributed(
                    EnumerationJob(graph, mode=mode, decompose=decompose)
                )
                assert answer_set(result.triangulations) == expected, (
                    mode,
                    decompose,
                )

    def test_trivial_graphs_need_no_worker(self):
        from repro.graph.graph import Graph

        empty = Graph()
        result = EnumerationEngine(
            DistributedBackend(listen="127.0.0.1:0")
        ).run(EnumerationJob(empty))
        assert result.count == 1  # the empty triangulation

    def test_membership_and_tier_statistics(self):
        graph = gnp_random_graph(9, 0.4, seed=13)
        result = run_distributed(
            EnumerationJob(graph, graph_backend="numpy")
        )
        stats = result.stats
        assert stats.worker_joins >= 1
        assert sum(stats.kernel_tiers.values()) == stats.batches_dispatched
        # graph_backend="numpy" forces the packed tier on every host.
        assert set(stats.kernel_tiers) <= {"numpy", "native"}

    def test_unconfigured_backend_is_a_typed_error(self):
        graph = gnp_random_graph(6, 0.5, seed=3)
        with pytest.raises(EngineError, match="--listen"):
            EnumerationEngine("distributed").run(EnumerationJob(graph))


class TestElasticMembership:
    def test_job_waits_for_late_worker(self):
        graph = gnp_random_graph(8, 0.4, seed=23)
        expected = serial_answers(graph)

        def spawn_late(address):
            def later():
                time.sleep(0.6)
                run_worker(address, _FAST)

            thread = threading.Thread(target=later, daemon=True)
            thread.start()
            return [thread]

        result = run_distributed(
            EnumerationJob(graph), workers=1, spawn=spawn_late
        )
        assert answer_set(result.triangulations) == expected
        assert result.stats.worker_joins == 1

    def test_pending_timeout_fails_typed(self):
        graph = gnp_random_graph(7, 0.5, seed=29)
        backend = DistributedBackend(
            listen="127.0.0.1:0",
            heartbeat_s=0.1,
            pending_timeout_s=0.4,
        )
        with pytest.raises(EngineError, match="no workers"):
            EnumerationEngine(backend).run(EnumerationJob(graph))

    def test_checkpoint_resume_across_runner_instances(self, tmp_path):
        # The in-process analogue of a coordinator restart: a fresh
        # runner (fresh port, fresh fleet) resumes from the document
        # and yields exactly the remainder.
        graph = gnp_random_graph(11, 0.4, seed=31)  # 18 answers
        expected = serial_answers(graph)
        path = tmp_path / "dist.ckpt"
        first = run_distributed(
            EnumerationJob(
                graph, checkpoint_path=path, checkpoint_every=4,
                max_results=6,
            )
        )
        assert first.count == 6
        second = run_distributed(
            EnumerationJob(graph, checkpoint_path=path, resume=True)
        )
        got_first = answer_set(first.triangulations)
        got_second = answer_set(second.triangulations)
        assert got_first | got_second == expected
        assert not got_first & got_second


@pytest.mark.slow
class TestFaultInjection:
    def test_worker_sigkill_mid_job_requeues_exactly_once(self):
        graph = gnp_random_graph(12, 0.3, seed=5)  # 216 answers
        expected = serial_answers(graph)
        procs = []

        def spawn(address):
            procs.extend(_spawn_worker_proc(address) for _ in range(2))
            return []  # reaped explicitly below

        backend = DistributedBackend(
            listen="127.0.0.1:0",
            expected_workers=2,
            heartbeat_s=0.2,
            on_listening=spawn,
        )
        job = EnumerationJob(graph, batch_target_ms=5.0)
        engine = EnumerationEngine(backend)
        got = []
        stream = engine.stream(job)
        killed = False
        try:
            for t in stream:
                got.append(t)
                if not killed and len(got) == 25:
                    procs[0].kill()  # SIGKILL: no goodbye, no flush
                    killed = True
        finally:
            stream.close()
        for proc in procs:
            proc.wait(timeout=10)
        assert killed
        assert answer_set(got) == expected
        assert len(got) == len(expected)  # exactly-once, no duplicates


def _fake_worker(address) -> socket.socket:
    """Handshake a raw socket as a worker: HELLO, then WELCOME and GRAPH."""
    sock = socket.create_connection(address, timeout=5)
    hello = protocol.encode_json(
        {
            "magic": protocol.MAGIC,
            "protocol": protocol.PROTOCOL_VERSION,
            "kernel_tier": "fake",
        }
    )
    protocol.send_frame(sock, protocol.MSG_HELLO, hello)
    assert protocol.recv_frame(sock).msg_type == protocol.MSG_WELCOME
    assert protocol.recv_frame(sock).msg_type == protocol.MSG_GRAPH
    return sock


def _recv_batch_id(sock) -> int:
    """Read frames (skipping PINGs) until a BATCH; return its id."""
    while True:
        frame = protocol.recv_frame(sock)
        if frame.msg_type == protocol.MSG_BATCH:
            return protocol.unpack_tagged(frame.payload)[0]


class TestRunnerHandsFailuresBack:
    """The runner keeps no retry budget of its own: a lost or aborted
    batch fails its future at once, and the coordinator's ladder is the
    one place that redispatches it."""

    GRAPH = gnp_random_graph(6, 0.5, seed=2)

    def _batch(self):
        direction = next(iter(minimal_separator_masks(self.GRAPH)))
        return wire.encode_batch(
            self.GRAPH.core.alive,
            [(direction,)],
            word_count(len(self.GRAPH.core.adj)),
        )

    def _runner(self, stats):
        from repro.engine.distributed.runner import DistributedRunner

        return DistributedRunner(
            make_payload(self.GRAPH, "mcs_m"), ("127.0.0.1", 0), stats=stats
        )

    def test_lost_connection_fails_batch_at_once(self):
        stats = EnumMISStatistics()
        runner = self._runner(stats)
        try:
            sock = _fake_worker(runner.address)
            future = runner.submit(self._batch())
            _recv_batch_id(sock)
            sock.close()
            assert isinstance(future.exception(timeout=5), BatchFailedError)
        finally:
            runner.close()
        assert stats.worker_losses == 1
        assert stats.batches_requeued == 1
        assert stats.batch_retries == 0

    def test_batch_failed_frame_fails_batch_and_keeps_worker(self):
        stats = EnumMISStatistics()
        runner = self._runner(stats)
        sock = _fake_worker(runner.address)
        try:
            future = runner.submit(self._batch())
            batch_id = _recv_batch_id(sock)
            protocol.send_frame(
                sock,
                protocol.MSG_BATCH_FAILED,
                protocol.encode_batch_failed(batch_id, "rss", 0.5, 1 << 20),
            )
            error = future.exception(timeout=5)
            assert isinstance(error, BatchFailedError)
            assert error.reason == "rss"
            assert runner.connected_workers == 1
            assert stats.worker_losses == 0
            assert stats.batches_requeued == 0
            assert stats.batch_retries == 0
        finally:
            sock.close()
            runner.close()


class TestJobEnd:
    """Job end is reliable on the protocol side: a worker that loses its
    connection as the job ends reconnects into the coordinator's
    shutdown linger, is answered SHUTDOWN at HELLO and exits 0."""

    GRAPH = gnp_random_graph(6, 0.5, seed=2)

    def _runner(self, stats=None):
        from repro.engine.distributed.runner import DistributedRunner

        return DistributedRunner(
            make_payload(self.GRAPH, "mcs_m"), ("127.0.0.1", 0), stats=stats
        )

    @staticmethod
    def _drop_all(runner, reason: str) -> None:
        """Drop every connection from the coordinator side, as its
        liveness sweep does on a batch timeout."""

        def drop() -> None:
            for conn in list(runner._connections):
                runner._drop(conn, reason)

        runner._loop.call_soon_threadsafe(drop)

    def test_worker_dropped_at_job_end_exits_cleanly(self):
        stats = EnumMISStatistics()
        runner = self._runner(stats)
        codes: list[int] = []
        config = WorkerConfig(
            heartbeat_s=0.2, max_retries=3, backoff_base_s=0.05,
            backoff_cap_s=0.2,
        )
        worker = threading.Thread(
            target=lambda: codes.append(run_worker(runner.address, config)),
            daemon=True,
        )
        worker.start()
        try:
            assert runner.wait_for_workers(1, 10) == 1
            # A transient loss mid-job: the worker reconnects.
            self._drop_all(runner, "batch timeout")
            deadline = time.monotonic() + 10
            while stats.worker_joins < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert stats.worker_joins == 2
            # A loss right at job end, with the SHUTDOWN sent after it.
            self._drop_all(runner, "batch timeout")
        finally:
            runner.close()
        worker.join(timeout=15)
        assert codes == [0]

    def test_hello_during_shutdown_linger_gets_shutdown(self):
        runner = self._runner()
        sock = _fake_worker(runner.address)
        closing = threading.Thread(target=runner.close, daemon=True)
        try:
            closing.start()
            # The joined worker is told first; the coordinator then
            # lingers until it closes its end.
            while protocol.recv_frame(sock).msg_type != protocol.MSG_SHUTDOWN:
                pass
            late = socket.create_connection(runner.address, timeout=5)
            try:
                protocol.send_frame(
                    late,
                    protocol.MSG_HELLO,
                    protocol.encode_json(
                        {
                            "magic": protocol.MAGIC,
                            "protocol": protocol.PROTOCOL_VERSION,
                            "kernel_tier": "fake",
                        }
                    ),
                )
                assert protocol.recv_frame(late).msg_type == protocol.MSG_SHUTDOWN
            finally:
                late.close()
        finally:
            sock.close()
            closing.join(timeout=15)
        assert not closing.is_alive()


@pytest.mark.slow
class TestCoordinatorRestart:
    """Kill the coordinator process, resume from its checkpoint."""

    def _free_port(self) -> int:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def _coordinator(self, edges, ckpt, port, *extra) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "enumerate",
                str(edges),
                "--backend",
                "distributed",
                "--listen",
                f"127.0.0.1:{port}",
                "--expected-workers",
                "2",
                "--batch-target-ms",
                "5",
                "--checkpoint",
                str(ckpt),
                "--checkpoint-every",
                "8",
                "--show-fill",
                *extra,
            ],
            env=_worker_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    @staticmethod
    def _parse_answers(output: str) -> list[frozenset]:
        answers = []
        for line in output.splitlines():
            if " edges=" in line:
                edges = ast.literal_eval(line.split(" edges=", 1)[1])
                answers.append(frozenset(tuple(e) for e in edges))
        return answers

    def _run_to_answer(self, proc, count: int) -> list[str]:
        """Read coordinator stdout until ``count`` answer lines passed."""
        lines = []
        seen = 0
        deadline = time.monotonic() + 60
        while seen < count:
            assert time.monotonic() < deadline, "coordinator too slow"
            line = proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            if " edges=" in line:
                seen += 1
        return lines

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGKILL])
    def test_kill_and_resume(self, tmp_path, sig):
        graph = gnp_random_graph(12, 0.3, seed=5)
        expected = serial_answers(graph)
        edges = tmp_path / "graph.edges"
        write_edge_list(graph, edges)
        ckpt = tmp_path / "run.ckpt"
        port = self._free_port()

        first = self._coordinator(edges, ckpt, port)
        workers = [_spawn_worker_proc(("127.0.0.1", port)) for _ in range(2)]
        head = self._run_to_answer(first, 30)
        first.send_signal(sig)
        # Keep draining the *same* buffered reader `_run_to_answer`
        # used: communicate(timeout=...) reads the raw fd and would
        # silently discard any lines already sitting in the
        # BufferedReader, making delivered answers look lost.
        tail = first.stdout.read()
        first.wait(timeout=30)
        first_answers = self._parse_answers("".join(head) + tail)
        assert len(first_answers) >= 30
        assert ckpt.exists()
        for proc in workers:
            # The fleet outlives the coordinator, backs off, gives up.
            proc.wait(timeout=60)

        second = self._coordinator(edges, ckpt, port, "--resume")
        workers = [_spawn_worker_proc(("127.0.0.1", port)) for _ in range(2)]
        out, _ = second.communicate(timeout=120)
        assert second.returncode == 0, out
        second_answers = self._parse_answers(out)
        for proc in workers:
            proc.wait(timeout=10)

        got_first = set(first_answers)
        got_second = set(second_answers)
        assert got_first | got_second == expected
        if sig == signal.SIGINT:
            # Graceful interrupt saves on close: exactly-once across
            # the restart — no answer is ever yielded twice.
            assert not got_first & got_second
            assert len(first_answers) + len(second_answers) == len(expected)
        # A hard SIGKILL cannot save on the way down; answers delivered
        # after the last periodic save may repeat, but none are lost.


class TestProtocol:
    def test_parse_address(self):
        assert protocol.parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert protocol.parse_address(":9000") == ("0.0.0.0", 9000)
        with pytest.raises(EngineError):
            protocol.parse_address("no-port")
        with pytest.raises(EngineError):
            protocol.parse_address("host:not-a-number")

    def test_bad_magic_gets_error_frame(self):
        from repro.engine.distributed.runner import DistributedRunner

        graph = gnp_random_graph(6, 0.5, seed=2)
        payload = make_payload(graph, "mcs_m")
        runner = DistributedRunner(payload, ("127.0.0.1", 0))
        try:
            with socket.create_connection(runner.address, timeout=5) as sock:
                hello = protocol.encode_json(
                    {"magic": "wrong", "protocol": protocol.PROTOCOL_VERSION}
                )
                protocol.send_frame(sock, protocol.MSG_HELLO, hello)
                frame = protocol.recv_frame(sock)
                assert frame.msg_type == protocol.MSG_ERROR
                detail = protocol.decode_json(frame.payload)
                assert "magic" in detail["error"]
        finally:
            runner.close()

    def test_version_mismatch_gets_error_frame(self):
        from repro.engine.distributed.runner import DistributedRunner

        graph = gnp_random_graph(6, 0.5, seed=2)
        runner = DistributedRunner(
            make_payload(graph, "mcs_m"), ("127.0.0.1", 0)
        )
        try:
            with socket.create_connection(runner.address, timeout=5) as sock:
                hello = protocol.encode_json(
                    {"magic": protocol.MAGIC, "protocol": 999}
                )
                protocol.send_frame(sock, protocol.MSG_HELLO, hello)
                frame = protocol.recv_frame(sock)
                assert frame.msg_type == protocol.MSG_ERROR
                assert "version" in protocol.decode_json(frame.payload)["error"]
        finally:
            runner.close()

    def test_worker_treats_rejection_as_fatal(self):
        # A fake coordinator that rejects every HELLO: the worker must
        # exit 2 (fatal) instead of burning its reconnect budget.
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        address = server.getsockname()

        def reject():
            conn, _ = server.accept()
            with conn:
                protocol.recv_frame(conn)
                protocol.send_frame(
                    conn,
                    protocol.MSG_ERROR,
                    protocol.encode_json(
                        {"error": "unsupported", "fatal": True}
                    ),
                )

        thread = threading.Thread(target=reject, daemon=True)
        thread.start()
        try:
            code = run_worker(address, _FAST)
        finally:
            thread.join(timeout=5)
            server.close()
        assert code == 2

    def test_oversized_frame_rejected(self):
        from repro.engine.base import WireDecodeError

        with pytest.raises(WireDecodeError, match="cap"):
            protocol._validate_header(
                protocol.MSG_BATCH, protocol.MAX_FRAME_BYTES + 1
            )
        with pytest.raises(WireDecodeError, match="unknown"):
            protocol._validate_header(200, 0)
