"""Command-line interface (``python -m repro``).

Subcommands:

* ``enumerate`` — stream the minimal triangulations of a graph file,
  optionally exporting the best tree decomposition in PACE ``.td``
  format; ``--backend sharded --workers N`` partitions the answer
  queue across a multiprocessing pool, ``--checkpoint``/``--resume``
  persist the enumeration state across interruptions, and
  ``--graph-backend`` picks the graph-core representation (int
  bitmasks / packed numpy word matrices / size-adaptive ``auto``);
  ``--backend distributed --listen HOST:PORT`` coordinates TCP
  workers instead of a local pool;
* ``worker``     — join a distributed enumeration as a compute host:
  ``repro worker --connect HOST:PORT`` handshakes with the
  coordinator, receives the packed graph once, and serves batches
  until the job ends (reconnecting with bounded backoff on failures);
* ``separators`` — stream the minimal separators;
* ``stats``      — structural summary (size, chordality, atoms,
  separator count);
* ``tpch``       — run the TPC-H query experiment table;
* ``kernels``    — diagnose the graph-kernel tiers (compiler and
  native-build availability, which tier serves each kernel).

Graph files are auto-detected by extension or forced with ``--format``:
``edgelist`` (``u v`` lines), ``dimacs`` (``p edge``), ``pace``
(``p tw``) or ``uai`` (UAI model preamble → primal graph).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

from repro.chordal.atoms import atoms
from repro.chordal.minimal_separators import minimal_separators
from repro.chordal.peo import is_chordal
from repro.chordal.triangulate import available_triangulators
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.decomposition.io import write_pace_td
from repro.graph.graph import Graph
from repro.graph.io import (
    read_dimacs,
    read_edge_list,
    read_pace_graph,
    read_uai_model,
)

__all__ = ["main", "build_parser", "load_graph"]

_READERS = {
    "edgelist": read_edge_list,
    "dimacs": read_dimacs,
    "pace": read_pace_graph,
    "uai": read_uai_model,
}

_EXTENSIONS = {
    ".edges": "edgelist",
    ".edgelist": "edgelist",
    ".txt": "edgelist",
    ".col": "dimacs",
    ".dimacs": "dimacs",
    ".gr": "pace",
    ".uai": "uai",
}


def load_graph(path: str, fmt: str | None = None) -> Graph:
    """Load a graph file, inferring the format from the extension."""
    if fmt is None:
        fmt = _EXTENSIONS.get(Path(path).suffix.lower())
        if fmt is None:
            raise ValueError(
                f"cannot infer format from {path!r}; pass --format"
            )
    try:
        reader = _READERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown format {fmt!r}; choose from {sorted(_READERS)}"
        ) from None
    return reader(path)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Enumerate minimal triangulations and proper tree "
        "decompositions (Carmeli et al., PODS 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="path to the input graph file")
        p.add_argument(
            "--format",
            choices=sorted(_READERS),
            help="input format (default: by file extension)",
        )

    enum = sub.add_parser(
        "enumerate", help="enumerate minimal triangulations"
    )
    add_graph_arguments(enum)
    enum.add_argument(
        "--triangulator",
        default="mcs_m",
        choices=available_triangulators(),
        help="heuristic plugged into Extend (default: mcs_m)",
    )
    enum.add_argument(
        "--budget", type=float, default=None, help="wall-clock budget in seconds"
    )
    enum.add_argument(
        "--max-results", type=int, default=None, help="stop after this many results"
    )
    enum.add_argument(
        "--decompose",
        default="components",
        choices=("none", "components", "atoms"),
        help="split the input before enumerating (default: components)",
    )
    enum.add_argument(
        "--mode",
        default="UG",
        choices=("UG", "UP"),
        help="EnumMIS printing discipline: yield upon generation (UG, "
        "default) or upon pop (UP); ranked runs always use UP",
    )
    enum.add_argument(
        "--rank",
        default=None,
        choices=("width", "fill"),
        help="drain the answer queue best-first by this cost "
        "(default: unranked generation order)",
    )
    enum.add_argument(
        "--show-fill",
        action="store_true",
        help="print the fill edges of every triangulation",
    )
    enum.add_argument(
        "--td-out",
        default=None,
        help="write the best-width tree decomposition here (PACE .td)",
    )
    enum.add_argument(
        "--backend",
        default="serial",
        help="execution backend: serial, sharded or distributed "
        "(default: serial)",
    )
    enum.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sharded backend (default: one per CPU)",
    )
    enum.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="with --backend distributed: accept TCP workers here "
        "(port 0 picks a free port; the bound address is printed). "
        "Start hosts with `repro worker --connect HOST:PORT`",
    )
    enum.add_argument(
        "--expected-workers",
        type=int,
        default=None,
        metavar="N",
        help="with --backend distributed: fleet size batches are sized "
        "for (default: 1).  Membership stays elastic — workers may "
        "join or leave at any point of the job",
    )
    enum.add_argument(
        "--pending-timeout",
        type=float,
        default=None,
        metavar="S",
        help="with --backend distributed: fail instead of waiting "
        "forever when batches sit pending with no worker connected "
        "for this many seconds (default: wait indefinitely)",
    )
    enum.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="S",
        help="with --backend distributed: worker heartbeat cadence in "
        "seconds (default: 2).  Liveness and pending-timeout sweeps "
        "tick at this interval, so --pending-timeout must exceed it",
    )
    enum.add_argument(
        "--heartbeat-misses",
        type=float,
        default=None,
        metavar="N",
        help="with --backend distributed: heartbeat windows a worker "
        "may miss before it is declared dead and its batches are "
        "requeued (default: 3)",
    )
    enum.add_argument(
        "--max-batch-retries",
        type=int,
        default=None,
        metavar="N",
        help="times one failed batch may be redispatched (worker "
        "death, watchdog abort) before the coordinator splits it in "
        "half and finally quarantines it — re-driving the pairs "
        "serially under a hard budget (default: 3)",
    )
    enum.add_argument(
        "--batch-deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-batch wall-clock ceiling enforced inside each "
        "sharded worker by the cooperative resource watchdog; a "
        "breached batch fails typed (the worker survives) and enters "
        "the retry/split/quarantine ladder (default: unlimited)",
    )
    enum.add_argument(
        "--batch-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="per-batch worker RSS ceiling in MiB, enforced like "
        "--batch-deadline (default: unlimited)",
    )
    enum.add_argument(
        "--wait-workers",
        type=float,
        default=60.0,
        metavar="S",
        help="with --backend distributed: wait up to this long for "
        "--expected-workers hosts to join before dispatching batches "
        "(default: 60).  On timeout the job proceeds with whoever "
        "joined — membership stays elastic either way; 0 starts "
        "dispatching immediately",
    )
    enum.add_argument(
        "--batch-target-ms",
        type=float,
        default=None,
        metavar="MS",
        help="target worker-compute duration of one sharded task batch "
        "in milliseconds (default: 100).  The coordinator learns the "
        "per-answer extend cost as the run progresses and sizes "
        "batches to this duration; smaller values give finer-grained "
        "work stealing and cheaper interrupts, larger values amortise "
        "more per-batch IPC overhead.  The enumerated answer set is "
        "identical for every value",
    )
    enum.add_argument(
        "--graph-backend",
        default="auto",
        choices=("auto", "indexed", "numpy", "native"),
        help="graph-core representation: int bitmasks, packed numpy "
        "word matrices, compiled C kernels over the same matrices, or "
        "by size (default: auto — packed tier above the size "
        "threshold, native preferred when its extension builds).  The "
        "choice also selects the Extend kernels: on the packed tiers "
        "every --triangulator heuristic (MCS-M, LB-Triang, the PEO "
        "check, the clique-forest separator extraction) runs on "
        "word-matrix sweeps; on the indexed core the int-mask "
        "reference paths run instead.  'native' degrades to numpy "
        "when no C compiler is available (see 'repro kernels')",
    )
    enum.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="persist the (Q, P, V) enumeration state to this file; "
        "disconnected and atom-split graphs store one section per "
        "region plus the cross-region product state",
    )
    enum.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="persist the checkpoint after every N newly generated "
        "answers, plus once on stream close (default: 64).  Lower "
        "values shrink the window a hard kill can lose; a graceful "
        "interrupt (SIGINT/SIGTERM) always saves on the way out",
    )
    enum.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint instead of starting fresh",
    )

    work = sub.add_parser(
        "worker",
        help="join a distributed enumeration as a TCP compute host",
    )
    work.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (the enumerate side's --listen)",
    )
    work.add_argument(
        "--max-retries",
        type=int,
        default=8,
        metavar="N",
        help="consecutive failed connection attempts before giving up "
        "(default: 8; exponential backoff between attempts)",
    )
    work.add_argument(
        "--connect-timeout",
        type=float,
        default=5.0,
        metavar="S",
        help="per-attempt connection/handshake timeout in seconds "
        "(default: 5)",
    )
    work.add_argument(
        "--batch-deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-batch wall-clock ceiling enforced by this worker's "
        "resource watchdog; a breached batch is aborted cooperatively "
        "and reported to the coordinator as BATCH_FAILED — the worker "
        "stays in the fleet (default: unlimited)",
    )
    work.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="per-batch RSS ceiling in MiB, enforced like "
        "--batch-deadline (default: unlimited)",
    )
    work.add_argument(
        "--chaos-spec",
        default=None,
        metavar="SPEC",
        help="fault injection (testing only): perturb this worker's "
        "connection with a deterministic schedule of frame drops, "
        "delays, duplicates, resets and corruption, e.g. "
        "'seed=7,drop=0.05'.  Also honoured from the REPRO_CHAOS_SPEC "
        "/ REPRO_CHAOS_SEED environment variables",
    )

    seps = sub.add_parser("separators", help="enumerate minimal separators")
    add_graph_arguments(seps)
    seps.add_argument(
        "--limit", type=int, default=None, help="stop after this many separators"
    )

    stats = sub.add_parser("stats", help="structural summary of a graph")
    add_graph_arguments(stats)
    stats.add_argument(
        "--separator-cap",
        type=int,
        default=10_000,
        help="cap on the separator count (default 10000)",
    )

    tpch = sub.add_parser("tpch", help="run the TPC-H query experiment")
    tpch.add_argument(
        "--cap", type=int, default=2000, help="per-query result cap (default 2000)"
    )

    tw = sub.add_parser(
        "treewidth",
        help="anytime treewidth: best-first search with a lower-bound stop",
    )
    add_graph_arguments(tw)
    tw.add_argument(
        "--budget", type=float, default=None, help="wall-clock budget in seconds"
    )
    tw.add_argument(
        "--max-results",
        type=int,
        default=None,
        help="cap on examined triangulations",
    )
    tw.add_argument(
        "--td-out",
        default=None,
        help="write the best tree decomposition here (PACE .td)",
    )

    rep = sub.add_parser(
        "report", help="regenerate all experiment artefacts in one run"
    )
    rep.add_argument(
        "--budget", type=float, default=1.0, help="per-graph budget in seconds"
    )
    rep.add_argument(
        "--scale", type=float, default=0.06, help="dataset scale fraction"
    )

    sub.add_parser(
        "kernels",
        help="diagnose the graph-kernel tiers (compiler, native build, "
        "which tier serves each kernel)",
    )

    ana = sub.add_parser(
        "analyze",
        help="run the repo-specific static invariant checks "
        "(registry completeness, protocol dispatch, kernel parity, ...)",
    )
    ana.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="source roots to analyze (default: the installed repro "
        "package)",
    )
    ana.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any finding survives suppressions",
    )
    ana.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=("text", "json"),
        help="report format (default: text)",
    )
    ana.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE-ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    ana.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


class _GracefulStop:
    """First SIGINT/SIGTERM sets a flag, the second interrupts hard.

    The enumerate loop checks the flag *after* printing each answer,
    so a graceful stop never swallows the answer that was mid-handover
    when the signal landed — the checkpoint's "delivered" set and the
    answers the user actually saw stay in exact agreement, which is
    what makes ``--resume`` yield precisely the remainder.  A blocked
    or impatient run can still be interrupted with a second signal
    (ordinary KeyboardInterrupt; the ``finally`` teardown still saves
    the checkpoint).
    """

    def __init__(self) -> None:
        self.signum: int | None = None

    def install(self) -> None:
        import signal

        def handler(signum, frame):
            if self.signum is not None:
                raise KeyboardInterrupt
            self.signum = signum

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(sig, handler)
            except ValueError:  # pragma: no cover - non-main thread
                pass


def _graceful_sigterm() -> None:
    """Turn SIGTERM into KeyboardInterrupt for checkpoint-safe exits."""
    import signal

    def handler(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, handler)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass


def _command_enumerate(args: argparse.Namespace) -> int:
    from repro.engine import EnumerationEngine, EnumerationJob
    from repro.sgr.enum_mis import EnumMISStatistics, report_clause

    graph = load_graph(args.graph, args.format)
    print(f"{graph.summary()}; chordal: {is_chordal(graph)}")
    stop = _GracefulStop()
    stop.install()
    backend = args.backend
    if backend == "distributed":
        from repro.engine.distributed import DistributedBackend

        distributed_kwargs = {}
        if args.heartbeat_interval is not None:
            distributed_kwargs["heartbeat_s"] = args.heartbeat_interval
        if args.heartbeat_misses is not None:
            distributed_kwargs["liveness_windows"] = args.heartbeat_misses
        if args.max_batch_retries is not None:
            distributed_kwargs["max_batch_retries"] = args.max_batch_retries
        backend = DistributedBackend(
            listen=args.listen,
            expected_workers=args.expected_workers or 1,
            pending_timeout_s=args.pending_timeout,
            wait_for_workers_s=(
                args.wait_workers if args.wait_workers > 0 else None
            ),
            **distributed_kwargs,
            on_listening=lambda addr: print(
                f"coordinator listening on {addr[0]}:{addr[1]} — start "
                f"workers with: repro worker --connect {addr[0]}:{addr[1]}",
                flush=True,
            ),
        )
    elif args.listen is not None:
        print(
            "warning: --listen is only meaningful with --backend "
            "distributed; ignoring",
            file=sys.stderr,
        )
    engine = EnumerationEngine(backend, workers=args.workers)
    job_kwargs = {}
    if args.batch_target_ms is not None:
        job_kwargs["batch_target_ms"] = args.batch_target_ms
    if args.checkpoint_every is not None:
        job_kwargs["checkpoint_every"] = args.checkpoint_every
    if args.max_batch_retries is not None:
        job_kwargs["max_batch_retries"] = args.max_batch_retries
    if args.batch_deadline is not None:
        job_kwargs["batch_deadline_s"] = args.batch_deadline
    if args.batch_rss_mb is not None:
        job_kwargs["batch_rss_limit_mb"] = args.batch_rss_mb
    job = EnumerationJob(
        graph,
        mode=args.mode,
        triangulator=args.triangulator,
        decompose=args.decompose,
        cost=args.rank,
        max_results=args.max_results,
        time_budget=args.budget,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        graph_backend=args.graph_backend,
        **job_kwargs,
    )
    best = None
    count = 0
    interrupted = False
    start = time.monotonic()
    stats = EnumMISStatistics()
    stream = engine.stream(job, stats)
    try:
        for t in stream:
            count += 1
            elapsed = time.monotonic() - start
            line = f"[{elapsed:8.3f}s] #{count} width={t.width} fill={t.fill}"
            if args.show_fill:
                line += f" edges={list(t.fill_edges)}"
            # Flushed per answer: a checkpoint save marks an answer
            # delivered only after its yield returns, so flushing here
            # guarantees every delivered answer is observable on stdout
            # even if the coordinator is SIGKILLed right afterwards.
            print(line, flush=True)
            if best is None or t.width < best.width:
                best = t
            if stop.signum is not None:
                interrupted = True
                break
            if args.max_results is not None and count >= args.max_results:
                print(f"stopping: reached --max-results {args.max_results}")
                break
            if args.budget is not None and elapsed >= args.budget:
                print(f"stopping: exhausted --budget {args.budget}s")
                break
        else:
            print("enumeration complete")
    except KeyboardInterrupt:
        interrupted = True
    finally:
        # Releases the worker pool (or TCP fleet) and, when
        # --checkpoint is given, persists the final enumeration state.
        stream.close()
    if interrupted:
        where = (
            f"state saved to {args.checkpoint}; rerun with --resume"
            if args.checkpoint
            else "state not checkpointed (pass --checkpoint to resume)"
        )
        print(f"\ninterrupted after {count} results; {where}")
    if best is None:
        print("0 minimal triangulations (resumed run already complete?)")
        return 130 if interrupted else 0
    print(f"{count} minimal triangulations; best width {best.width}")
    clause = report_clause(stats)
    if clause:
        print(clause)
    if args.td_out is not None:
        decomposition = best.tree_decomposition()
        write_pace_td(decomposition, graph, args.td_out)
        print(f"wrote best tree decomposition to {args.td_out}")
    return 130 if interrupted else 0


def _command_worker(args: argparse.Namespace) -> int:
    import os

    from repro.engine.distributed.chaos import ChaosInjector, ChaosSpec
    from repro.engine.distributed.protocol import parse_address
    from repro.engine.distributed.worker import WorkerConfig, run_worker
    from repro.engine.pool import poison_from_env
    from repro.engine.watchdog import BatchLimits

    _graceful_sigterm()
    address = parse_address(args.connect)
    if args.chaos_spec is not None:
        chaos_spec = ChaosSpec.parse(args.chaos_spec)
    else:
        chaos_spec = ChaosSpec.from_env(os.environ)
    config = WorkerConfig(
        connect_timeout_s=args.connect_timeout,
        max_retries=args.max_retries,
        limits=BatchLimits.from_cli(args.batch_deadline, args.max_rss_mb),
        poison=poison_from_env(),
        chaos=(
            ChaosInjector(chaos_spec) if chaos_spec is not None else None
        ),
    )
    try:
        return run_worker(address, config)
    except KeyboardInterrupt:
        print("\n[repro-worker] interrupted; leaving the fleet",
              file=sys.stderr)
        return 130


def _command_separators(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, args.format)
    iterator = minimal_separators(graph)
    if args.limit is not None:
        iterator = itertools.islice(iterator, args.limit)
    count = 0
    for separator in iterator:
        count += 1
        print(" ".join(str(v) for v in sorted(separator, key=repr)))
    print(f"# {count} minimal separators", file=sys.stderr)
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, args.format)
    chordal = is_chordal(graph)
    print(f"nodes:    {graph.num_nodes}")
    print(f"edges:    {graph.num_edges}")
    print(f"chordal:  {'yes' if chordal else 'no'}")
    graph_atoms = atoms(graph)
    print(f"atoms:    {len(graph_atoms)} (sizes: "
          f"{sorted((len(a) for a in graph_atoms), reverse=True)[:10]})")
    capped = list(
        itertools.islice(minimal_separators(graph), args.separator_cap + 1)
    )
    if len(capped) > args.separator_cap:
        print(f"minseps:  > {args.separator_cap} (capped)")
    else:
        print(f"minseps:  {len(capped)}")
    return 0


def _command_tpch(args: argparse.Namespace) -> int:
    from repro.workloads.tpch import tpch_suite

    print("query  n   m   chordal  #mintri  time(s)")
    for name, graph in tpch_suite():
        start = time.monotonic()
        count = 0
        for __ in enumerate_minimal_triangulations(graph):
            count += 1
            if count >= args.cap:
                break
        elapsed = time.monotonic() - start
        print(
            f"{name:<6} {graph.num_nodes:<3} {graph.num_edges:<3} "
            f"{'yes' if is_chordal(graph) else 'no':<8} {count:<8} {elapsed:.2f}"
        )
    return 0


def _command_treewidth(args: argparse.Namespace) -> int:
    from repro.core.bounds import treewidth_lower_bound
    from repro.core.ranked import anytime_treewidth

    graph = load_graph(args.graph, args.format)
    lower = treewidth_lower_bound(graph)
    print(f"{graph.summary()}; lower bound {lower}")
    width, best, optimal = anytime_treewidth(
        graph, time_budget=args.budget, max_results=args.max_results
    )
    certainty = "exact" if optimal else "upper bound"
    print(f"treewidth {certainty}: {width}")
    if args.td_out is not None:
        write_pace_td(best.tree_decomposition(), graph, args.td_out)
        print(f"wrote tree decomposition to {args.td_out}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import full_report

    print(full_report(budget=args.budget, scale=args.scale))
    return 0


def _command_kernels(args: argparse.Namespace) -> int:
    """Print which kernel tier serves, and why (or why not)."""
    import numpy as np

    from repro.graph import bitset_np

    print(f"numpy            : {np.__version__}")
    print(f"registered       : {', '.join(sorted(bitset_np.GRAPH_BACKENDS))}")
    try:
        from repro.graph._native import native
    except ImportError as exc:  # pragma: no cover - torn install
        print(f"native tier      : unavailable ({exc})")
        print("active tier      : numpy")
        return 0
    info = native.kernel_info()
    print(f"compiler         : {info['compiler_id'] or info['compiler'] or 'none found'}")
    if info["artifact"]:
        state = "built" if info["built"] else "not built yet"
        print(f"build artifact   : {info['artifact']} ({state})")
    if info["available"]:
        print("native tier      : available")
    else:
        print(f"native tier      : unavailable ({info['reason']})")
    active = "native" if info["available"] else "numpy"
    print(f"active tier      : {active} (auto above "
          f"{bitset_np.NUMPY_THRESHOLD} nodes; force with --graph-backend)")
    print("kernels:")
    for name, tier in sorted(info["kernels"].items()):
        print(f"  {name:<22} {tier}")
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    """Run the static invariant battery; exit 1 on findings in --strict."""
    from repro.analysis import (
        all_rules,
        render_json,
        render_text,
        run_analysis,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:20s} {rule.summary}")
        return 0
    paths = args.paths
    if not paths:
        import repro

        paths = [Path(repro.__file__).resolve().parent]
    try:
        findings = run_analysis(paths, rule_ids=args.rule)
    except (KeyError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings, verbose=True))
    return 1 if (findings and args.strict) else 0


_COMMANDS = {
    "enumerate": _command_enumerate,
    "worker": _command_worker,
    "separators": _command_separators,
    "stats": _command_stats,
    "tpch": _command_tpch,
    "treewidth": _command_treewidth,
    "report": _command_report,
    "kernels": _command_kernels,
    "analyze": _command_analyze,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.engine import EngineError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
