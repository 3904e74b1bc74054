"""E10 — ablation: where does the enumeration spend its work?

Not a paper artefact; DESIGN.md calls this out as an ablation over the
design choices.  It decomposes the cost of the pipeline on one graph:

* how many ``Extend`` calls / edge-oracle calls / SGR nodes the
  EnumMIS bookkeeping needs per produced answer;
* how the choice of the plugged-in triangulation heuristic changes the
  per-answer cost (including the non-minimal heuristics that must pay
  for the sandwich step);
* how many candidates the candidate step skips because a found answer
  already contains them — the redundant extensions the loop no longer
  runs.
"""

from __future__ import annotations

import time

from repro.experiments.render import ascii_table
from repro.experiments.runner import run_enumeration
from repro.workloads.pgm import object_detection_like

TRIANGULATORS = ("mcs_m", "lb_triang", "lex_m", "min_fill", "min_degree")
CAP = 60


def _run():
    graph = object_detection_like(seed=3)
    rows = []
    for triangulator in TRIANGULATORS:
        start = time.monotonic()
        trace = run_enumeration(
            graph, triangulator=triangulator, max_results=CAP, name="ablation"
        )
        elapsed = time.monotonic() - start
        stats = trace.stats
        rows.append(
            (
                triangulator,
                trace.count,
                elapsed,
                stats.extend_calls,
                stats.edge_oracle_calls,
                stats.nodes_generated,
                stats.candidates_covered,
                trace.min_width,
            )
        )
    return rows


def test_ablation_extend_cost(benchmark, report):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = ascii_table(
        [
            "triangulator",
            "#results",
            "time (s)",
            "Extend calls",
            "edge-oracle calls",
            "SGR nodes",
            "candidates covered",
            "min width",
        ],
        [
            [
                name,
                str(count),
                f"{elapsed:.2f}",
                str(extends),
                str(oracle),
                str(nodes),
                str(covered),
                str(width),
            ]
            for name, count, elapsed, extends, oracle, nodes, covered, width in rows
        ],
    )
    per_answer = {
        name: extends / max(count, 1)
        for name, count, __, extends, *__rest in rows
    }
    report(
        "Ablation — Extend cost per produced answer (object-detection MRF, "
        f"first {CAP} results)\n"
        + table
        + "\nExtend calls per answer: "
        + ", ".join(f"{k}={v:.1f}" for k, v in per_answer.items())
        + "\nexpected shape: minimal heuristics (mcs_m, lb_triang) skip the "
        "sandwich; elimination-game heuristics pay extra time per Extend"
    )
    for __, count, *__rest in rows:
        assert count == CAP
