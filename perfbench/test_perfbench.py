"""Tests of the benchmark's own code (not of the enumerator).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import delays
import gate
import pytest
import spans
import speed
import suite
from repro.core.triangulation import Triangulation
from repro.engine import EnumerationEngine, EnumerationJob
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph


class TestTailPercentile:
    def test_highest_percentile_with_ten_beyond(self):
        assert delays.tail_percentile(10_000) == 99.9
        assert delays.tail_percentile(1000) == 99.0
        assert delays.tail_percentile(999) == 95.0
        assert delays.tail_percentile(100) == 90.0
        assert delays.tail_percentile(20) == 50.0

    def test_no_percentile_for_too_few_gaps(self):
        assert delays.tail_percentile(19) is None
        assert delays.tail_percentile(2) is None

    def test_summary_reports_percentile_and_count(self):
        stamps = [float(i) + (0.5 if i == 500 else 0.0) for i in range(1001)]
        summary = delays.summarise([stamps])
        assert summary["tail_percentile"] == 99.0
        assert summary["tail_beyond"] >= delays.MIN_BEYOND
        assert summary["samples"] == 1000

    def test_few_answers_report_no_percentile(self):
        # Three answers per job, as on the large PGM workload.
        jobs = [[0.5, 2.5, 3.0], [0.5, 1.5, 4.5], [0.5, 2.0, 3.0]]
        summary = delays.summarise(jobs)
        assert summary["tail_percentile"] is None
        assert summary["tail_beyond"] == 0
        assert summary["tail"] == pytest.approx(6.5 / 3)  # mean of job maxima

    def test_medians_average_over_jobs_tail_pools(self):
        # A fast and a slow job: a pooled median would pick one of them.
        fast = [i * 0.001 for i in range(101)]
        slow = [i * 0.003 for i in range(101)]
        summary = delays.summarise([fast, slow, fast])
        assert summary["p50"] == pytest.approx(0.005 / 3)
        assert summary["last_decile_p50"] == pytest.approx(0.005 / 3)
        assert summary["tail_percentile"] == 90.0  # from 100 gaps per job
        assert summary["tail"] == pytest.approx(0.003)  # p90 of all 300
        assert summary["tail_beyond"] == 30
        assert summary["samples"] == 300

    def test_percentile_is_chosen_per_job_not_per_pool(self):
        job = [float(i) for i in range(100)]
        one = delays.summarise([job])
        many = delays.summarise([job] * 7)
        assert one["tail_percentile"] == many["tail_percentile"] == 75.0


class TestLastDecile:
    def test_last_tenth_of_answers(self):
        job_gaps = list(range(99))  # 100 answers
        assert delays.last_decile(job_gaps) == list(range(89, 99))

    def test_at_least_one_gap(self):
        assert delays.last_decile([1.0, 2.0]) == [2.0]

    def test_summary_median_of_pooled_last_deciles(self):
        fast = [i * 0.001 for i in range(100)]
        slow_tail = fast[:90] + [fast[89] + 0.01 * k for k in range(1, 11)]
        summary = delays.summarise([slow_tail])
        assert summary["last_decile_p50"] == pytest.approx(0.01)
        assert summary["p50"] == pytest.approx(0.001)


class _FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


class TestSelfTime:
    def test_nested_spans_subtract_children(self):
        tracer = spans.Tracer(clock=_FakeClock([0, 10, 30, 40, 45, 100]))
        tracer.answer = 3
        tracer.enter("outer")
        tracer.enter("inner")
        tracer.exit()
        tracer.enter("inner")
        tracer.exit()
        tracer.exit()
        assert tracer.totals["inner"] == [2, 25, 25]
        assert tracer.totals["outer"] == [1, 100, 75]
        assert tracer.per_answer == {3: {"inner": 25, "outer": 75}}

    def test_grandchildren_count_once(self):
        tracer = spans.Tracer(clock=_FakeClock([0, 10, 20, 30, 40, 50]))
        tracer.enter("a")
        tracer.enter("b")
        tracer.enter("c")
        tracer.exit()  # c: 10
        tracer.exit()  # b: 30, self 20
        tracer.exit()  # a: 50, self 20
        assert [tracer.totals[n][2] for n in "abc"] == [20, 20, 10]

    def test_wrappers_record_layers_and_uninstall(self):
        from repro.sgr.separator_graph import MinimalSeparatorSGR

        original = MinimalSeparatorSGR.__dict__["extend"]
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            graph = gnp_random_graph(10, 0.4, seed=3)
            stream = EnumerationEngine("serial").stream(
                EnumerationJob(graph, max_results=5)
            )
            answers = list(stream)
        finally:
            spans.uninstall(saved)
        assert len(answers) == 5
        assert MinimalSeparatorSGR.__dict__["extend"] is original
        for layer in ("extend", "triangulate", "clique_forest", "enum_mis"):
            assert tracer.totals[layer][0] > 0
        extend = tracer.totals["extend"]
        inner = tracer.totals["triangulate"][1] + tracer.totals["clique_forest"][1]
        assert extend[2] == extend[1] - inner
        assert set(tracer.totals) <= set(spans.LAYERS)


class TestTimeline:
    def test_disabled_keeps_host_time_and_runs_nothing(self, monkeypatch):
        monkeypatch.setattr(speed, "kernel", lambda: pytest.fail("kernel ran"))
        timeline = speed.Timeline(enabled=False)
        timeline.sample()
        with timeline.running():
            timeline.pause()
            timeline.resume()
        assert timeline.ref(12.5) == 12.5

    def test_segments_scale_by_kernel_runs_around_them(self, monkeypatch):
        ref = speed.REFERENCE_S
        runs = iter([2 * ref, 2 * ref, ref])  # the host at half speed, then 2/3
        clocks = iter([10.0 - 2 * ref, 10.0, 11.0 - 2 * ref, 11.0, 12.0 - ref, 12.0])
        clock = type(
            "Clock",
            (),
            {
                "perf_counter": staticmethod(lambda: next(clocks)),
                "process_time": staticmethod(lambda: 0.0),
            },
        )
        monkeypatch.setattr(speed, "kernel", lambda: next(runs))
        monkeypatch.setattr(speed, "time", clock)
        timeline = speed.Timeline()
        timeline.sample()
        timeline.sample()
        assert timeline.factors == pytest.approx([0.5, 2 / 3])
        assert timeline.ref(10.5) == pytest.approx(0.25)
        # The second kernel run (2 * ref before 11.0) is in no segment.
        second = (1.0 - 2 * ref) * 0.5
        assert timeline.ref(11.0 - 2 * ref) == pytest.approx(second)
        assert timeline.ref(11.75) == pytest.approx(second + 0.75 * 2 / 3)
        assert timeline.kernel_s == pytest.approx(5 * ref)
        with pytest.raises(ValueError):
            timeline.ref(12.5)  # no sample after it yet

    def test_pinned_sample_runs_on_each_cpu_and_restores(self):
        cpus = sorted(os.sched_getaffinity(0))
        timeline = speed.Timeline()
        timeline.sample(cpus)
        assert len(timeline.factors) == 1
        assert sorted(os.sched_getaffinity(0)) == cpus

    def test_kernel_is_a_minimal_triangulation(self):
        adjacency = speed._graph()
        graph = Graph(
            nodes=list(adjacency),
            edges=[(u, v) for u in adjacency for v in adjacency[u] if u < v],
        )
        fill = speed.mcs_m(adjacency)
        assert fill == speed.mcs_m(adjacency)
        assert Triangulation(graph, tuple(sorted(fill))).is_minimal()


def _cycle4() -> Graph:
    return Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])


class TestGate:
    def test_valid_job_passes(self):
        graph = gnp_random_graph(12, 0.4, seed=5)
        answers = list(
            EnumerationEngine("serial").stream(EnumerationJob(graph, max_results=6))
        )
        assert gate.check_job(answers, 6) == []

    def test_duplicate_answer_rejected(self):
        graph = _cycle4()
        one = Triangulation(graph, ((0, 2),))
        violations = gate.check_job([one, Triangulation(graph, ((0, 2),))], 2)
        assert violations == ["answer #1 repeats an earlier answer"]

    def test_non_minimal_answer_rejected(self):
        graph = _cycle4()
        both = Triangulation(graph, ((0, 2), (1, 3)))
        violations = gate.check_job([Triangulation(graph, ((1, 3),)), both], 2)
        assert violations == ["answer #1 is not a minimal triangulation"]

    def test_missing_answers_counted_each(self):
        graph = _cycle4()
        violations = gate.check_job([Triangulation(graph, ((0, 2),))], 3)
        assert len(violations) == 2

    def test_fast_check_agrees_with_library_oracle(self):
        graph = gnp_random_graph(8, 0.45, seed=11)
        answers = list(EnumerationEngine("serial").stream(EnumerationJob(graph)))
        candidates = list(answers)
        missing = [tuple(e) for e in graph.complement().edges()]
        for answer in answers[:5]:
            extra = [e for e in missing if e not in answer.fill_edges][:1]
            candidates.append(Triangulation(graph, answer.fill_edges + tuple(extra)))
        candidates.append(Triangulation(graph, ()))  # not chordal
        for candidate in candidates:
            assert gate.is_minimal_fast(candidate) == candidate.is_minimal()

    def test_sample_covers_first_last_and_stride(self):
        assert gate.sample_indices(400) == sorted({0, 399, *range(0, 400, 50)})
        assert gate.sample_indices(3) == [0, 1, 2]
        assert gate.sample_indices(0) == []


class TestInputs:
    @pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
    def test_same_seed_same_input_and_structure_pinned(self, name):
        workload = suite.WORKLOADS[name]
        if workload.structure == "promedas1600":
            pytest.skip("large input; covered by the smaller structures")
        first = suite.build_input(workload, 7)
        again = suite.build_input(workload, 7)
        other = suite.build_input(workload, 8)
        assert first == again
        assert all(isinstance(node, int) for node in first.nodes())
        assert first.nodes() != other.nodes()
        pinned = suite.STRUCTURES[workload.structure]()
        assert first.num_edges == other.num_edges == pinned.num_edges
        assert sorted(map(first.degree, first.nodes())) == sorted(
            map(pinned.degree, pinned.nodes())
        )

    def test_job_seeds_distinct(self):
        seeds = {suite.job_seed(run, job) for run in range(5) for job in range(50)}
        assert len(seeds) == 250


def _raises_at_first_answer(self, job, stats=None):
    raise RuntimeError("broken enumerator")
    yield  # a generator: the stream opens, then fails


def _raises_at_open(self, job, stats=None):
    raise RuntimeError("broken enumerator")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("stream", [_raises_at_first_answer, _raises_at_open])
def test_broken_program_still_prints_result(
    tmp_path, monkeypatch, capsys, trace, stream
):
    import measure

    monkeypatch.setattr(EnumerationEngine, "stream", stream)
    code = measure.main(
        [
            "--workload", "gnp30-serial",
            "--seed", "1",
            "--seconds", "0.2",
            "--trace", trace,
            "--build-dir", str(tmp_path),
        ]
    )
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] >= result["failed"] >= 1
    assert result["metrics"] == {}


def test_benchmark_file_matches_definitions():
    import measure

    doc = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(suite.WORKLOADS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: workload.why for name, workload in suite.WORKLOADS.items()
    }
    for key, defined in (
        ("end_to_end", measure.END_TO_END),
        ("per_layer", measure.PER_LAYER),
    ):
        assert [(m["name"], m["unit"]) for m in doc[key]] == list(defined)
