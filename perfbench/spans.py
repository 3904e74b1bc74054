"""Spans recorded around each layer's public functions, from outside ``src/``.

:func:`install` replaces a fixed list of module and class attributes of
the ``repro`` package with thin wrappers that open a span on a
:class:`Tracer` and close it when the call (or one ``next()`` of a
generator) returns; :func:`uninstall` restores the originals.  The
program's own code is not edited, so the layer boundaries are the
coarse ones its modules expose.

A span's *self time* is its duration minus the time covered by the
spans opened inside it.  Every span is tagged with the index of the
answer whose delay interval it falls in (``Tracer.answer``, set by the
consumer), so per-answer layer breakdowns explain a slow answer.

Sharded pool workers are forked after the wrappers are installed and
so record their own spans; at exit each worker writes its totals to
``worker_dir`` and :meth:`Tracer.absorb_workers` folds them in.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import time
from collections.abc import Callable
from pathlib import Path

#: Span names (layers) and what each wraps.
LAYERS = {
    "engine.resolve": "graph-core resolution in EnumerationEngine.stream",
    "decompose": "atoms() or connected_components() region split",
    "separators": "minimal-separator iteration (SGR.iter_nodes, coordinator)",
    "crossing": "MinimalSeparatorSGR.has_edges_batch direction sweep",
    "enum_mis": "Figure-1 loop: enum_mis generator or MISCoordinator.stream",
    "extend": "MinimalSeparatorSGR.extend / coordinator seed Extend",
    "triangulate": "minimal_triangulation_via inside Extend",
    "clique_forest": "minimal_separators_of_chordal inside Extend",
    "checkpoint": "CheckpointManager.save_document",
    "coordinator.wait": "futures wait() in the coordinator",
    "wire.codec": "coordinator-side encode_batch / decode_result",
    "pool.spawn": "PoolRunner construction",
    "answer": "consumer next(): answer materialisation and region product",
    "quality": "consumer reading width and fill",
}


class Tracer:
    """Collects span totals per layer and self times per answer."""

    def __init__(
        self,
        worker_dir: Path | None = None,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.clock = clock
        self.worker_dir = worker_dir
        #: Index of the answer whose delay interval is open (-1: set-up).
        self.answer = -1
        self.reset()
        multiprocessing.util.register_after_fork(self, Tracer._in_worker)

    def reset(self) -> None:
        """Drop everything recorded so far."""
        self._stack: list[list] = []
        #: layer → [spans, duration ns, self ns]
        self.totals: dict[str, list[int]] = {}
        #: answer index → layer → self ns
        self.per_answer: dict[int, dict[str, int]] = {}
        self.extend_inputs: set[int] = set()
        self.checkpoint_bytes = 0
        self.regions = 0

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        own = duration - child
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        row = self.per_answer.get(self.answer)
        if row is None:
            row = self.per_answer[self.answer] = {}
        row[name] = row.get(name, 0) + own

    # -- pool workers ---------------------------------------------------

    def _in_worker(self) -> None:
        """Run in each freshly started pool worker: record from scratch."""
        self.reset()
        self.answer = -1
        if self.worker_dir is not None:
            multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> None:
        """Write this process's totals for the parent to absorb."""
        target = self.worker_dir / f"{os.getpid()}.json"
        temp = target.with_suffix(".tmp")
        temp.write_text(
            json.dumps(
                {"totals": self.totals, "inputs": sorted(self.extend_inputs)}
            )
        )
        os.replace(temp, target)

    def absorb_workers(self) -> int:
        """Fold in and delete the totals of exited workers; return how many."""
        if self.worker_dir is None:
            return 0
        files = sorted(self.worker_dir.glob("*.json"))
        for path in files:
            data = json.loads(path.read_text())
            for name, (spans, duration, own) in data["totals"].items():
                entry = self.totals.setdefault(name, [0, 0, 0])
                entry[0] += spans
                entry[1] += duration
                entry[2] += own
            self.extend_inputs.update(data["inputs"])
            path.unlink()
        return len(files)


class _TracedIterator:
    """One span per ``next()`` (and per ``close()``) of a generator."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.enter(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.exit()

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            self._tracer.enter(self._name)
            try:
                close()
            finally:
                self._tracer.exit()


def _call(tracer: Tracer, name: str, fn, after=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(args, result)
        return result

    return traced


def _generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _TracedIterator(tracer, name, fn(*args, **kwargs))

    return traced


def _targets():
    """(owner, attribute, layer, kind) for every wrapped entry point."""
    # import_module, not ``import a.b as b``: some packages re-export a
    # function under the name of its module (repro.chordal.atoms).
    atoms = importlib.import_module("repro.chordal.atoms")
    enumerate_ = importlib.import_module("repro.core.enumerate")
    extend = importlib.import_module("repro.core.extend")
    coordinator = importlib.import_module("repro.engine.coordinator")
    engine = importlib.import_module("repro.engine.engine")
    sharded = importlib.import_module("repro.engine.sharded")
    wire = importlib.import_module("repro.engine.wire")
    from repro.engine.checkpoint import CheckpointManager
    from repro.engine.pool import PoolRunner
    from repro.sgr.separator_graph import MinimalSeparatorSGR

    return [
        (engine, "resolve_graph_backend", "engine.resolve", "call"),
        (atoms, "atoms", "decompose", "regions"),
        (enumerate_, "connected_components", "decompose", "regions"),
        (sharded, "connected_components", "decompose", "regions"),
        (MinimalSeparatorSGR, "iter_nodes", "separators", "generator"),
        (coordinator, "minimal_separator_masks", "separators", "generator"),
        (MinimalSeparatorSGR, "has_edges_batch", "crossing", "call"),
        (enumerate_, "enumerate_maximal_independent_sets", "enum_mis",
         "generator"),
        (coordinator.MISCoordinator, "stream", "enum_mis", "generator"),
        (MinimalSeparatorSGR, "extend", "extend", "extend"),
        (coordinator, "extend_parallel_set", "extend", "extend"),
        (extend, "minimal_triangulation_via", "triangulate", "call"),
        (extend, "minimal_separators_of_chordal", "clique_forest", "call"),
        (CheckpointManager, "save_document", "checkpoint", "checkpoint"),
        (coordinator, "wait", "coordinator.wait", "call"),
        (wire, "encode_batch", "wire.codec", "call"),
        (wire, "decode_result", "wire.codec", "call"),
        (PoolRunner, "__init__", "pool.spawn", "call"),
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer entry point; return what :func:`uninstall` needs."""

    def count_regions(args, result) -> None:
        tracer.regions += len(result)

    def record_bytes(args, result) -> None:
        tracer.checkpoint_bytes += args[0].path.stat().st_size

    saved = []
    for owner, attribute, layer, kind in _targets():
        original = owner.__dict__[attribute]
        if kind == "generator":
            wrapper = _generator(tracer, layer, original)
        elif kind == "extend":
            wrapper = _extend(tracer, original)
        else:
            after = {"regions": count_regions, "checkpoint": record_bytes}
            wrapper = _call(tracer, layer, original, after.get(kind))
        saved.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)
    return saved


def _extend(tracer: Tracer, fn):
    """The Extend span, also recording a hash of each distinct input.

    Both wrapped entry points take the separator family second:
    ``sgr.extend(self, family)`` and ``extend_parallel_set(graph,
    family, triangulator)``.
    """
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.extend_inputs.add(hash(frozenset(args[1])))
        enter("extend")
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return traced


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    """Restore the attributes :func:`install` replaced."""
    for owner, attribute, original in reversed(saved):
        setattr(owner, attribute, original)
