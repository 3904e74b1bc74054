#!/usr/bin/env python
"""Microbenchmark: scalar vs batched separator-crossing oracle.

Isolates the edge-oracle kernel of the separator-graph SGR — the
dominant cost of EnumMIS direction steps — at three graph sizes:

* ``n=30``   — the canonical acceptance graph, Gnp(30, 0.35);
* ``n=200``  — a sparse Gnp where packed ``uint64`` rows span several
  words (the acceptance criterion for the PR 3 crossing kernel is
  >= 2x batch-over-scalar throughput here);
* ``n=2000`` — a cycle graph above the ``auto`` graph-backend
  threshold, whose minimal separators (non-adjacent vertex pairs) are
  constructed directly so the benchmark measures the oracle, not the
  separator enumerator.

Each measurement clears the crossing-pair memo cache and then asks, for
a handful of probe separators v, whether v crosses each of the
candidate separators — the scalar path via one
:meth:`~repro.sgr.separator_graph.MinimalSeparatorSGR.has_edge` call
per pair, the batch path via one
:meth:`~repro.sgr.separator_graph.MinimalSeparatorSGR.has_edges_batch`
call per probe.  Both share warm component caches, so the difference is
exactly the per-pair Python overhead the vectorized kernel removes.

``--check`` verifies the two oracles agree on every pair and exits
non-zero on any mismatch — the hardware-independent correctness gate
run in CI.  ``--graph-backend`` selects the graph-core backend the
case is built on (comma-separated values form an axis: the PR 6
``native`` C tier is measured against ``numpy`` on identical cases;
CI runs the gate with ``--graph-backend native``).  ``--record
LABEL`` appends the measurements (with the ``cores`` field convention
of the PR 2 benchmarks) to ``baselines.json``::

    PYTHONPATH=src python benchmarks/microbench_crossing.py
    PYTHONPATH=src python benchmarks/microbench_crossing.py --check
    PYTHONPATH=src python benchmarks/microbench_crossing.py \\
        --check --graph-backend native
    PYTHONPATH=src python benchmarks/microbench_crossing.py \\
        --graph-backend numpy,native --record crossing-kernel-pr6
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.chordal.minimal_separators import (
    are_crossing_batch_masks,
    minimal_separator_masks,
)
from repro.graph import resolve_graph_backend
from repro.graph.generators import cycle_graph, gnp_random_graph
from repro.sgr.separator_graph import MinimalSeparatorSGR

BASELINES_PATH = Path(__file__).parent / "baselines.json"

PROBES = 8


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_case(n: int, candidates: int, backend: str = "auto"):
    """Return (graph, probe masks, candidate masks) for size n.

    Separators are vertex masks, the node form of the separator-graph
    SGR.
    """
    if n == 2000:
        # Cycle graph: every non-adjacent pair is a minimal separator,
        # so the separator set is constructed directly — enumerating it
        # through A_V would dwarf the oracle being measured.
        graph = resolve_graph_backend(cycle_graph(n), backend)
        probes = [graph.mask_of({i, i + n // 2}) for i in range(PROBES)]
        half, quarter = n // 2, n // 4
        pool = []
        for i in itertools.count(PROBES + 1):
            if len(pool) >= candidates:
                break
            # Alternate crossing pairs (one node per arc of the probe
            # cut) with parallel pairs (both nodes in one arc).
            if i % 2:
                pool.append(graph.mask_of({i, i + half}))
            else:
                pool.append(graph.mask_of({i, i + quarter}))
        return graph, probes, pool
    if n == 30:
        graph = gnp_random_graph(n, 0.35, seed=12345)
    else:
        graph = gnp_random_graph(n, 0.05, seed=12345)
    graph = resolve_graph_backend(graph, backend)
    masks = list(
        itertools.islice(minimal_separator_masks(graph), candidates + PROBES)
    )
    return graph, masks[:PROBES], masks[PROBES:]


def clear_cache(sgr: MinimalSeparatorSGR) -> None:
    sgr._edge_cache.clear()
    sgr._edge_cache_old.clear()
    sgr._edge_entries = 0
    sgr._edge_entries_old = 0


def run_scalar(sgr, probes, candidates) -> list[list[bool]]:
    has_edge = sgr.has_edge
    return [[has_edge(v, u) for u in candidates] for v in probes]


def run_batch(sgr, probes, candidates) -> list[list[bool]]:
    has_edges_batch = sgr.has_edges_batch
    return [has_edges_batch(v, candidates) for v in probes]


def measure(runner, sgr, probes, candidates, repeats: int) -> float:
    samples = []
    for __ in range(repeats):
        clear_cache(sgr)
        start = time.perf_counter()
        runner(sgr, probes, candidates)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        default="30,200,2000",
        help="comma-separated graph sizes (default: 30,200,2000)",
    )
    parser.add_argument(
        "--candidates",
        type=int,
        default=192,
        help="candidate separators per probe (default: 192)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="repetitions; the median is reported (default: 5)",
    )
    parser.add_argument(
        "--graph-backend",
        default="auto",
        help="comma-separated graph-core backends forming the "
        "measurement axis (auto/indexed/numpy/native; default: auto)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify batch and scalar oracles agree on every pair; "
        "exit 1 on mismatch (correctness gate, no timing)",
    )
    parser.add_argument(
        "--record",
        metavar="LABEL",
        help="append the measurements to baselines.json under LABEL",
    )
    args = parser.parse_args()
    sizes = [int(size) for size in args.sizes.split(",") if size]
    backends = [b for b in args.graph_backend.split(",") if b]
    if "native" in backends:
        from repro.graph._native import native

        if not native.available():
            message = (
                f"native backend unavailable "
                f"({native.kernel_info()['reason']})"
            )
            if args.check:
                print(f"FAILED: {message}")
                return 1
            print(f"note: {message} — skipped")
            backends = [b for b in backends if b != "native"]

    results: dict[str, dict] = {}
    failed = False
    for n, backend in itertools.product(sizes, backends):
        graph, probes, candidates = build_case(n, args.candidates, backend)
        pairs = len(probes) * len(candidates)
        sgr = MinimalSeparatorSGR(graph)

        batch_answers = run_batch(sgr, probes, candidates)
        clear_cache(sgr)
        scalar_answers = run_scalar(sgr, probes, candidates)
        agree = batch_answers == scalar_answers
        if args.check and agree:
            # Third, stateless oracle: the cache-free mask-level batch
            # test must agree with both memoized SGR paths.
            stateless = [
                are_crossing_batch_masks(graph.core, v, candidates)
                for v in probes
            ]
            agree = stateless == batch_answers
        if not agree:
            failed = True
            bad = sum(
                b != s
                for bs, ss in zip(batch_answers, scalar_answers)
                for b, s in zip(bs, ss)
            )
            print(
                f"n={n} [{backend}]: MISMATCH — batch and scalar oracles "
                f"disagree on {bad}/{pairs} pairs"
            )
        if args.check:
            if agree:
                crossings = sum(map(sum, batch_answers))
                print(
                    f"n={n} [{backend}]: OK — batch == scalar on "
                    f"{pairs} pairs ({crossings} crossing)"
                )
            continue

        scalar_s = measure(run_scalar, sgr, probes, candidates, args.repeats)
        batch_s = measure(run_batch, sgr, probes, candidates, args.repeats)
        speedup = scalar_s / batch_s
        results.setdefault(str(n), {})[backend] = {
            "pairs": pairs,
            "scalar_seconds": round(scalar_s, 6),
            "batch_seconds": round(batch_s, 6),
            "speedup": round(speedup, 2),
        }
        print(
            f"n={n:<5} [{backend:<7}] {pairs} pairs: "
            f"scalar {scalar_s * 1e3:8.3f}ms  "
            f"batch {batch_s * 1e3:8.3f}ms  → speedup {speedup:.2f}x"
        )

    if failed:
        return 1
    if args.check:
        return 0

    if args.record:
        baselines = json.loads(BASELINES_PATH.read_text())
        baselines[args.record] = {
            "repeats": args.repeats,
            "cores": usable_cores(),
            "backends": backends,
            "sizes": results,
        }
        BASELINES_PATH.write_text(json.dumps(baselines, indent=2) + "\n")
        print(f"recorded as '{args.record}' in {BASELINES_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
