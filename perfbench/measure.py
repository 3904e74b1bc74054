"""Measure one workload in this process (started by ``run.py``).

After one untimed set-up that warms first-call costs, a run repeats
jobs until its measurement time is used up, each job on the next input
drawn from the run's seed:

1. *Set-up* (``setup_s``): build the input, the engine and the job,
   and open the stream, which resolves the graph-core tier; all of it
   before the first ``next()``.
2. *Enumeration*: a closed loop of one consumer that pulls the job's
   answers one ``next()`` at a time and reads each answer's ``width``
   and ``fill``, the way a user ranks answers.
3. *Gate* (untimed): :func:`gate.check_job` on the delivered answers.
4. *Probes*: ``SETUP_REPEATS`` more timed set-ups of the same input;
   then, while they fit in ``PROBE_SHARE`` of the job's enumeration
   time, probes that time a set-up and the first answer (``ttfa_s``).
   The machine's speed drifts during a run, so set-up and first answer
   are sampled after every job, like the other timings, and not once.

The host's speed changes within a second and between runs (by half
and more on a shared 2-vCPU host), so every timing and CPU figure is in
reference seconds (:mod:`speed`): a timer runs a fixed kernel every
0.1 s, and the host's time between two kernel runs is scaled by how
fast the kernel ran around it.  The timer stops while a sharded job
enumerates: its pool workers would go on working while the kernel ran.
A figure is then taken per job (the median of the job's own samples)
and averaged over the jobs, throughput and CPU are totals over all
jobs, and the delay tail is a percentile of all jobs' gaps
(:mod:`delays`).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it first runs one untraced job as the overhead reference,
then installs the layer spans of :mod:`spans` and reports per-layer
metrics from the spans and from the job's ``EnumMISStatistics``.

``EnumMISStatistics`` fields this benchmark trusts: ``extend_calls``,
``answers``, ``nodes_generated``, ``edge_oracle_calls``,
``edge_cache_hits``/``edge_cache_misses``, ``extend_time_ns`` and
``crossing_time_ns`` (compute time where the work ran),
``batches_dispatched``, ``batch_roundtrip_ns`` (per-batch submit to
collect) and ``ipc_payload_bytes``.  It never reports ``ipc_time_ns``
as a time: that field sums overlapping pipelined waits, and the inline
runner reports it for work that never left the process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import delays
import gate
import numpy
import spans
import speed
import suite
from repro.analysis.core import ANALYZER_VERSION
from repro.engine import EnumerationEngine, EnumerationJob
from repro.engine.pool import default_worker_count
from repro.graph import bitset_np, resolve_graph_backend
from repro.graph._native import native
from repro.sgr.enum_mis import EnumMISStatistics

#: Timed set-ups after each job, besides the job's own.
SETUP_REPEATS = 8

#: Share of a job's enumeration time that first-answer probes may take.
PROBE_SHARE = 0.1

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("answers_per_s", "1/s"),
    ("ttfa_s", "s"),
    ("delay_p50_ms", "ms"),
    ("delay_tail_ms", "ms"),
    ("delay_p50_last_decile_ms", "ms"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("best_width", "count"),
    ("best_fill", "count"),
)

#: (name, unit) of the per-layer metrics, in report order.
PER_LAYER = (
    ("engine.resolve_s", "s"),
    ("decompose.s", "s"),
    ("decompose.regions", "count"),
    ("separators.s", "s"),
    ("separators.count", "count"),
    ("crossing.s", "s"),
    ("crossing.pairs", "count"),
    ("crossing.cache_hit_ratio", "ratio"),
    ("enum_mis.self_s", "s"),
    ("enum_mis.extend_calls", "count"),
    ("enum_mis.new_answer_ratio", "ratio"),
    ("extend.s", "s"),
    ("extend.calls", "count"),
    ("extend.mean_us", "us"),
    ("extend.distinct_input_ratio", "ratio"),
    ("extend.saturate_s", "s"),
    ("triangulate.s", "s"),
    ("triangulate.calls", "count"),
    ("clique_forest.s", "s"),
    ("materialise.s", "s"),
    ("quality.s", "s"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.wall_frac", "frac"),
    ("coordinator.batches", "count"),
    ("coordinator.pairs_per_batch", "count"),
    ("coordinator.wait_frac", "frac"),
    ("coordinator.cpu_s", "s"),
    ("pool.spawn_frac", "frac"),
    ("pool.roundtrip_over_compute", "ratio"),
    ("pool.worker_busy_frac", "frac"),
    ("wire.bytes_per_batch", "B"),
    ("wire.codec_frac", "frac"),
    ("trace.attributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)


def _cpu() -> tuple[float, float]:
    """(this process, reaped children) user+sys CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime,
        children.ru_utime + children.ru_stime,
    )


class Job:
    """What one job measured; times in reference seconds (:mod:`speed`)."""

    def __init__(self) -> None:
        self.setups: list[float] = []  # its own and its probes' set-ups
        self.ttfas: list[float] = []  # its probes' first answers
        self.stamps: list[float] = []
        self.host_s = 0.0  # enumeration time in the host's seconds
        self.widths: list[int] = []
        self.fills: list[int] = []
        self.cpu_s = 0.0
        self.own_cpu_s = 0.0
        self.violations: list[str] = []


class Run:
    """One workload, one seed, one measurement time."""

    def __init__(
        self,
        workload: suite.Workload,
        seed: int,
        seconds: float,
        scratch: Path,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.jobs: list[Job] = []
        self.attempted = 0
        self.failed = 0
        self.tracer: spans.Tracer | None = None
        self.traced: list[Job] = []
        self.timeline = speed.Timeline(enabled=False)
        self.slowest: list[dict] = []
        self.attributed_ns = 0
        self.distinct_inputs = 0
        self.stats = EnumMISStatistics()

    # -- one job ----------------------------------------------------------

    def _open(self, index: int):
        """Set-up: input, engine, job and stream (resolves the core tier)."""
        workload = self.workload
        options = dict(workload.options)
        if workload.checkpoint:
            options["checkpoint_path"] = self.scratch / f"job{index}.ckpt"
        graph = suite.build_input(workload, suite.job_seed(self.seed, index))
        engine = EnumerationEngine(workload.backend)
        job = EnumerationJob(graph, max_results=workload.answers, **options)
        stats = EnumMISStatistics()
        return engine.stream(job, stats), stats

    def _probe(self, index: int, first_answer: bool) -> tuple[float, ...]:
        """Host clock before set-up, after it, and at the first answer if asked."""
        clock = time.perf_counter
        before = clock()
        stream, __ = self._open(index)
        opened = clock()
        try:
            if not first_answer:
                return before, opened
            next(stream)
            return before, opened, clock()
        finally:
            stream.close()

    def _probes(self, index: int, job: Job) -> None:
        """Sample set-up and first answer again after a job (module doc)."""
        probes = [
            self._probe(index, first_answer=False) for __ in range(SETUP_REPEATS)
        ]
        if job.stamps:
            budget = PROBE_SHARE * job.host_s
            cost = job.setups[0] + job.stamps[0]  # the job's own: an estimate
            spent = 0.0
            while spent + cost <= budget:
                probes.append(self._probe(index, first_answer=True))
                cost = probes[-1][2] - probes[-1][0]
                spent += cost
        timeline = self.timeline
        timeline.sample()  # closes the segment of the last probe
        ref = timeline.ref
        for before, opened, *answered in probes:
            job.setups.append(ref(opened) - ref(before))
            job.ttfas += [ref(at) - ref(opened) for at in answered]

    def run_job(self, index: int, tracer: spans.Tracer | None = None) -> Job:
        record = Job()
        timeline = self.timeline
        clock = time.perf_counter
        before = clock()
        stream, stats = self._open(index)
        opened = clock()
        answers = []
        wanted = self.workload.answers
        host = []  # host clock at each answer
        # Pool workers would go on working while the kernel ran, and
        # would slow it down: a sharded job is one segment.
        sharded = self.workload.backend == "sharded"
        if sharded:
            timeline.pause()
        own0, children0 = _cpu()
        kernel0 = timeline.kernel_s, timeline.kernel_cpu_s
        start = clock()
        try:
            for position in range(wanted):
                if tracer is None:
                    answer = next(stream)
                    host.append(clock())
                    record.widths.append(answer.width)
                    record.fills.append(answer.fill)
                else:
                    tracer.answer = position
                    tracer.enter("answer")
                    try:
                        answer = next(stream)
                    finally:
                        tracer.exit()
                    host.append(clock())
                    tracer.answer = position + 1
                    tracer.enter("quality")
                    record.widths.append(answer.width)
                    record.fills.append(answer.fill)
                    tracer.exit()
                answers.append(answer)
        except StopIteration:
            pass
        except Exception as exc:  # a raising job is a failed operation
            record.violations.append(f"job raised {exc!r}")
        finally:
            stream.close()
        end = clock()  # after close, which reaps the pool's workers
        own1, children1 = _cpu()
        kernel_s = timeline.kernel_s - kernel0[0]
        kernel_cpu_s = timeline.kernel_cpu_s - kernel0[1]
        if sharded:
            timeline.resume()
        else:
            timeline.sample()  # closes the segment of the job's end
        ref = timeline.ref
        zero = ref(start)
        record.setups.append(ref(opened) - ref(before))
        record.stamps = [ref(at) - zero for at in host]
        record.host_s = end - start - kernel_s
        scale = (ref(end) - zero) / record.host_s
        record.own_cpu_s = (own1 - own0 - kernel_cpu_s) * scale
        record.cpu_s = record.own_cpu_s + (children1 - children0) * scale
        record.violations += gate.check_job(answers, wanted)
        self.attempted += wanted
        self.failed += min(wanted, len(record.violations))
        if tracer is not None:
            self._absorb_trace(tracer, record, stats)
        return record

    def _absorb_trace(
        self, tracer: spans.Tracer, record: Job, stats: EnumMISStatistics
    ) -> None:
        tracer.absorb_workers()
        self.stats.add(stats)
        self.distinct_inputs += len(tracer.extend_inputs)
        tracer.extend_inputs = set()
        rows = tracer.per_answer
        stamps = record.stamps
        # Rows 0..N-1 cover the timed interval; row N is the consumer
        # reading the last answer, after the last stamp.
        self.attributed_ns += sum(
            sum(row.values())
            for index, row in rows.items()
            if 0 <= index < len(stamps)
        )
        gaps = stamps[:1] + delays.gaps(stamps)
        for index, gap in enumerate(gaps):
            self.slowest.append(
                {
                    "job": len(self.traced),
                    "answer": index,
                    "delay_ms": gap * 1e3,
                    "self_ms": {
                        name: ns / 1e6
                        for name, ns in sorted(rows.get(index, {}).items())
                    },
                }
            )
        self.slowest = sorted(self.slowest, key=lambda s: -s["delay_ms"])[:5]
        tracer.per_answer = {}
        self.traced.append(record)

    # -- the run ----------------------------------------------------------

    def _loop(self, tracer: spans.Tracer | None, started: float) -> None:
        """Run jobs from input 0 while the next one still fits the time."""
        index = 0
        while True:
            before = time.perf_counter()
            job = self.run_job(index, tracer)
            if tracer is None:  # traced jobs are kept by _absorb_trace
                self.jobs.append(job)
                self._probes(index, job)
            for path in self.scratch.glob("*.ckpt*"):
                path.unlink()
            index += 1
            took = time.perf_counter() - before
            if time.perf_counter() - started + took > self.seconds:
                return

    def measure(self, trace: bool) -> None:
        started = time.perf_counter()
        self._open(0)[0].close()  # warms first-call costs; untimed
        if not trace:
            self.timeline = speed.Timeline()
            with self.timeline.running():
                self._loop(None, started)
            return
        self.jobs.append(self.run_job(0))
        self.tracer = spans.Tracer(worker_dir=self.scratch)
        saved = spans.install(self.tracer)
        try:
            self._loop(self.tracer, started)
        finally:
            spans.uninstall(saved)

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        """The end-to-end metrics and the figures the report adds to them."""
        jobs = [job for job in self.jobs if len(job.stamps) >= 2]
        extra = {
            "failed_frac": self.failed / self.attempted,
            "jobs": len(self.jobs),
        }
        if not jobs:  # every job failed: no timing to report
            return {}, extra
        delay = delays.summarise([job.stamps for job in jobs])
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        mean = statistics.fmean
        median = statistics.median
        metrics = {
            "answers_per_s": sum(len(job.stamps) for job in jobs)
            / sum(job.stamps[-1] for job in jobs),
            "ttfa_s": mean(median([job.stamps[0], *job.ttfas]) for job in jobs),
            "delay_p50_ms": delay["p50"] * 1e3,
            "delay_tail_ms": delay["tail"] * 1e3,
            "delay_p50_last_decile_ms": delay["last_decile_p50"] * 1e3,
            "setup_s": mean(median(job.setups) for job in jobs),
            "cpu_s": mean(job.cpu_s for job in jobs),
            "peak_rss_mb": (own + child) / 1024.0,
            "best_width": median(min(job.widths) for job in jobs),
            "best_fill": median(min(job.fills) for job in jobs),
        }
        extra.update(
            delay_tail_percentile=delay["tail_percentile"],
            delay_tail_beyond=delay["tail_beyond"],
            delay_samples=delay["samples"],
            ttfa_samples=sum(1 + len(job.ttfas) for job in jobs),
            setup_samples=sum(len(job.setups) for job in jobs),
            host_answers_per_s=sum(len(job.stamps) for job in jobs)
            / sum(job.host_s for job in jobs),
            speed_factor_p50=median(self.timeline.factors),
            speed_factor_range=[
                min(self.timeline.factors),
                max(self.timeline.factors),
            ],
        )
        return metrics, extra

    def per_layer(self) -> tuple[dict, dict]:
        """The per-layer metrics (per traced job) and report-only figures."""
        if not (self.jobs[0].stamps and self.traced and self.traced[0].stamps):
            return {}, {}  # the reference or first traced job failed
        tracer = self.tracer
        jobs = len(self.traced)
        wall_ns = sum(job.stamps[-1] for job in self.traced if job.stamps) * 1e9
        totals = tracer.totals

        def count(name):
            return totals.get(name, (0, 0, 0))[0] / jobs

        def duration_s(name):
            return totals.get(name, (0, 0, 0))[1] / 1e9 / jobs

        def self_s(name):
            return totals.get(name, (0, 0, 0))[2] / 1e9 / jobs

        def share(name):
            return totals.get(name, (0, 0, 0))[1] / wall_ns

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        stats = self.stats
        batches = stats.batches_dispatched
        compute_ns = stats.extend_time_ns + stats.crossing_time_ns
        extend_calls = totals.get("extend", (0, 0, 0))[0]
        workers = _workers(self.workload)
        reference = self.jobs[0].stamps[-1]
        metrics = {
            "engine.resolve_s": self_s("engine.resolve"),
            "decompose.s": self_s("decompose"),
            "decompose.regions": tracer.regions / jobs,
            "separators.s": self_s("separators"),
            "separators.count": stats.nodes_generated / jobs,
            "crossing.s": self_s("crossing"),
            "crossing.pairs": stats.edge_oracle_calls / jobs,
            "crossing.cache_hit_ratio": ratio(
                stats.edge_cache_hits,
                stats.edge_cache_hits + stats.edge_cache_misses,
            ),
            "enum_mis.self_s": self_s("enum_mis"),
            "enum_mis.extend_calls": stats.extend_calls / jobs,
            "enum_mis.new_answer_ratio": ratio(
                stats.answers, stats.extend_calls
            ),
            "extend.s": duration_s("extend"),
            "extend.calls": count("extend"),
            "extend.mean_us": ratio(
                totals.get("extend", (0, 0, 0))[1] / 1e3, extend_calls
            ),
            "extend.distinct_input_ratio": ratio(
                self.distinct_inputs, extend_calls
            ),
            "extend.saturate_s": self_s("extend"),
            "triangulate.s": duration_s("triangulate"),
            "triangulate.calls": count("triangulate"),
            "clique_forest.s": duration_s("clique_forest"),
            "materialise.s": self_s("answer"),
            "quality.s": self_s("quality"),
            "checkpoint.saves": count("checkpoint"),
            "checkpoint.bytes": tracer.checkpoint_bytes / jobs,
            "checkpoint.wall_frac": share("checkpoint"),
            "coordinator.batches": batches / jobs,
            "coordinator.pairs_per_batch": ratio(stats.extend_calls, batches),
            "coordinator.wait_frac": share("coordinator.wait"),
            "coordinator.cpu_s": statistics.median(
                job.own_cpu_s for job in self.traced
            ),
            "pool.spawn_frac": share("pool.spawn"),
            "pool.roundtrip_over_compute": ratio(
                stats.batch_roundtrip_ns, compute_ns
            ),
            "pool.worker_busy_frac": compute_ns / (workers * wall_ns),
            "wire.bytes_per_batch": ratio(stats.ipc_payload_bytes, batches),
            "wire.codec_frac": share("wire.codec"),
            "trace.attributed_frac": self.attributed_ns / wall_ns,
            "trace.overhead_frac": self.traced[0].stamps[-1] / reference - 1.0,
        }
        extra = {
            "checkpoint.s": duration_s("checkpoint"),
            "coordinator.wait_s": duration_s("coordinator.wait"),
            "pool.spawn_s": duration_s("pool.spawn"),
            "pool.roundtrip_ms": ratio(stats.batch_roundtrip_ns / 1e6, batches),
            "wire.codec_s": duration_s("wire.codec"),
            "kernel_tiers": dict(stats.kernel_tiers),
            "traced_jobs": jobs,
            "slowest_answers": self.slowest,
        }
        return metrics, extra


def _workers(workload: suite.Workload) -> int:
    return default_worker_count() if workload.backend == "sharded" else 1


def environment(workload: suite.Workload, seed: int) -> dict:
    """The regime a result belongs to; compare only equal regimes."""
    graph = suite.build_input(workload, suite.job_seed(seed, 0))
    tier = bitset_np.core_backend_name(resolve_graph_backend(graph, "auto").core)
    cores = len(os.sched_getaffinity(0))
    workers = _workers(workload)
    return {
        "regime": f"cores={cores}/workers={workers}/tier={tier}",
        "usable_cores": cores,
        "workers": workers,
        "kernel_tier": tier,
        "native_loaded": native.available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "analyzer_version": ANALYZER_VERSION,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "answers_per_job": workload.answers,
    }


def _report(name: str, env: dict, metrics: dict, units: dict, extra: dict):
    print(f"workload {name}  [{env['regime']}]")
    for key, value in metrics.items():
        print(f"  {key:<30} {value:>14.6g} {units[key]}")
    for key, value in extra.items():
        if key != "slowest_answers":
            print(f"  {key:<30} {value!s:>14}")
    for slow in extra.get("slowest_answers", []):
        layers = ", ".join(
            f"{layer} {ms:.1f}" for layer, ms in slow["self_ms"].items()
        )
        print(
            f"  slow answer #{slow['answer']} of traced job {slow['job']}: "
            f"{slow['delay_ms']:.1f} ms ({layers})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = suite.WORKLOADS[args.workload]
    args.build_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=args.build_dir))
    run = Run(workload, args.seed, args.seconds, scratch)
    env = {"regime": "unknown"}
    try:
        env = environment(workload, args.seed)
        run.measure(trace=bool(args.trace))
        metrics, extra = run.per_layer() if args.trace else run.end_to_end()
    except Exception:  # a broken program still gets its result line
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
        metrics, extra = {}, {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = dict(PER_LAYER if args.trace else END_TO_END)

    violations = [v for job in run.jobs + run.traced for v in job.violations]
    correct = bool(metrics) and run.failed == 0
    _report(workload.name, env, metrics, units, extra)
    for violation in violations:
        print(f"  FAILED: {violation}")
    results = args.build_dir / "results"
    results.mkdir(exist_ok=True)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "extra": extra,
        "violations": violations,
    }
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2)
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()
                },
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
