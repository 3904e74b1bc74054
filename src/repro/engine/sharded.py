"""The one assembly of an enumeration job, and the ``sharded`` backend.

:func:`coordinated_stream` is the only code path from an
:class:`~repro.engine.job.EnumerationJob` to its Triangulations, for
every backend:

1. *Regions.*  The graph is split as the job asks (components / atoms /
   none, :func:`_resolve_regions`).
2. *Region answer streams.*  Each region yields its maximal
   pairwise-parallel separator families as frozensets of separator
   masks.  This is the only part that differs between backends:
   serial jobs without a checkpoint run the paper-reference EnumMIS
   loop (:func:`repro.core.enumerate.separator_mask_families`);
   checkpointed, sharded and distributed jobs run one
   :class:`~repro.engine.coordinator.MISCoordinator` per region, whose
   extend tasks execute on a runner (in process, a worker pool or a
   TCP fleet).
3. *Ranking.*  A job with ``cost`` drains each queue best-first; the
   priority materialises an answer and scores it.  The scored
   Triangulation is not kept: the queue holds only separator masks.
4. *Materialisation*
   (:meth:`~repro.core.triangulation.Triangulation.from_separator_masks`):
   ``g[φ]`` by saturating the answer's separator masks on a copy of
   g's bitmask core, which the Triangulation keeps as h's core for its
   ``width`` read.
5. *Product.*  Several regions are recombined through the resumable
   lazy fair product (:func:`_product_stream`).
6. *Checkpoint sink.*  Checkpointing covers multi-region jobs too:
   every region owns a section of one checkpoint document (see
   :mod:`repro.engine.checkpoint`), the cross-region product records
   its arrival order and delivered-combination count, and resume
   replays the recorded product deterministically so no combination is
   delivered twice and none is lost.  Region coordinators save on
   their answer cadence and the product on its combination cadence;
   the job saves once more on exit, so the number of saves does not
   grow with the region count.

The ``sharded`` backend is this assembly with a
:class:`~repro.engine.pool.PoolRunner`: the answer queue of each
region is partitioned across a multiprocessing worker pool.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from repro.core.enumerate import separator_mask_families
from repro.core.ranked import _resolve_cost
from repro.core.triangulation import Triangulation
from repro.engine.base import EngineError, EnumerationBackend, register_backend
from repro.engine.batching import AdaptiveBatcher
from repro.engine.checkpoint import (
    CheckpointDocument,
    CheckpointError,
    CheckpointManager,
    job_fingerprint,
    region_fingerprint,
)
from repro.engine.coordinator import Answer, MISCoordinator
from repro.engine.job import EnumerationJob
from repro.engine.pool import (
    InlineRunner,
    PoolRunner,
    default_worker_count,
    make_payload,
)
from repro.engine.watchdog import BatchLimits
from repro.graph.components import connected_components
from repro.graph.graph import Graph, Node
from repro.sgr.enum_mis import EnumMISStatistics

__all__ = ["ShardedBackend", "coordinated_stream"]


def _resolve_regions(job: EnumerationJob) -> list[frozenset]:
    graph = job.graph
    if job.decompose == "none":
        return [graph.node_set()]
    if job.decompose == "atoms":
        from repro.chordal.atoms import atoms

        return list(atoms(graph))
    return list(connected_components(graph))


class _DocumentSink:
    """One checkpoint document shared by every region of a job.

    Coordinators call :meth:`save` on their answer cadence, the product
    on its combination cadence (:meth:`bump`) and the job once on exit;
    each call snapshots *all* attached coordinators plus the
    cross-region product state and writes the whole document
    atomically.  For multi-region jobs ``caches`` holds each region's
    answers in product-arrival order and overrides the per-section
    ``yielded`` lists, whose order the replay on resume depends on.
    """

    def __init__(
        self, manager: CheckpointManager, stats: EnumMISStatistics
    ) -> None:
        self.every = manager.every
        self._manager = manager
        self._stats = stats
        self._coordinators: list[MISCoordinator] = []
        # Product state; ``caches`` stays None for single-region jobs.
        self.caches: list[list[Answer]] | None = None
        self.arrivals: list[int] = []
        self.delivered = 0
        self._since_save = 0

    def attach(self, coordinator: MISCoordinator) -> None:
        self._coordinators.append(coordinator)

    def save(self) -> None:
        regions = []
        stats = dict(self._stats.snapshot())
        for index, coordinator in enumerate(self._coordinators):
            section = coordinator.control_snapshot()
            if coordinator.barrier_active:
                # The barrier node is re-pulled (and re-counted) on
                # resume; the section already drops it from V.
                stats["nodes_generated"] -= 1
            if self.caches is not None:
                section.yielded = list(self.caches[index])
            regions.append(section)
        self._manager.save_document(
            CheckpointDocument(
                regions=regions,
                arrivals=list(self.arrivals),
                delivered=self.delivered,
                stats=stats,
            )
        )
        self._since_save = 0

    def bump(self) -> None:
        """Count one delivered combination; save on the job's cadence."""
        self._since_save += 1
        if self._since_save >= self.every:
            self.save()


def coordinated_stream(
    job: EnumerationJob,
    stats: EnumMISStatistics,
    runner_factory: Callable[[object], InlineRunner | PoolRunner]
    | None = None,
) -> Iterator[Triangulation]:
    """Enumerate ``job``: the one assembly every backend runs.

    Regions are resolved, each region gets one answer stream, and the
    streams are materialised (one region) or combined through the fair
    product (several).  ``runner_factory`` picks the region loop:
    ``None`` runs the paper-reference EnumMIS of
    :func:`~repro.core.enumerate.separator_mask_families` per region
    (no checkpoint); otherwise every region runs a
    :class:`~repro.engine.coordinator.MISCoordinator` on one shared
    runner, which is closed when the stream is closed or exhausted.
    """
    graph = job.graph
    if graph.num_nodes == 0:
        yield Triangulation(graph, ())
        return

    regions = _resolve_regions(job)
    multi_region = len(regions) > 1
    cost_fn = _resolve_cost(job.cost) if job.cost is not None else None
    mode = job.effective_mode

    # A single region is enumerated over the original graph object so
    # yielded Triangulations reference it.  A disconnected input gets
    # one stream per region, recombined through the lazy fair product;
    # ranking is component-local at best, so that product runs in
    # plain order.
    region_graphs = (
        [graph.subgraph(region_nodes) for region_nodes in regions]
        if multi_region
        else [graph]
    )
    # The priority scores a Triangulation and drops it; the yield
    # materialises the answer again.  Keeping the scored one would keep
    # its copy of the graph core alive for as long as the answer stays
    # queued, and Q grows with every pop in UP mode.
    priority = None
    if cost_fn is not None and not multi_region:

        def priority(answer: Answer) -> object:
            return cost_fn(Triangulation.from_separator_masks(graph, answer))

    if runner_factory is None:
        runner = sink = document = None
        streams = [
            separator_mask_families(
                region, job.triangulator, mode, stats, priority
            )
            for region in region_graphs
        ]
    else:
        runner, sink, document, streams = _coordinate(
            job, stats, runner_factory, region_graphs, priority
        )
    try:
        try:
            if multi_region:
                yield from _product_stream(
                    graph, region_graphs, streams, sink, document
                )
            else:
                for answer in streams[0]:
                    yield Triangulation.from_separator_masks(graph, answer)
        finally:
            for stream in streams:
                stream.close()
            # The job's one exit save, after every region stream has
            # closed or raised; coordinators save only on cadence.
            if sink is not None:
                sink.save()
    finally:
        if runner is not None:
            runner.close()


def _coordinate(
    job: EnumerationJob,
    stats: EnumMISStatistics,
    runner_factory: Callable[[object], InlineRunner | PoolRunner],
    region_graphs: list[Graph],
    priority: Callable[[Answer], object] | None,
) -> tuple:
    """One coordinator per region, all on one runner from ``runner_factory``.

    Returns ``(runner, sink, document, streams)``: the runner, the
    checkpoint sink and the loaded document (``None`` without a
    checkpoint or resume), and the region answer streams.  The runner
    is closed here if construction or a restore fails.
    """
    graph = job.graph
    mode = job.effective_mode
    multi_region = len(region_graphs) > 1
    manager = document = None
    if job.checkpoint_path is not None:
        manager = CheckpointManager(
            job.checkpoint_path,
            job_fingerprint(
                graph, mode, job.triangulator_name(), job.decompose
            ),
            every=job.checkpoint_every,
        )
        document = manager.load_document_if_resuming(job.resume)
    runner = runner_factory(make_payload(graph, job.triangulator))
    # One batcher for the whole job: the per-pair cost model learned on
    # one region transfers to the next (same graph family, same
    # triangulator), and the IPC/latency report covers the run.
    batcher = AdaptiveBatcher(
        getattr(runner, "workers", 1), target_ms=job.batch_target_ms
    )
    try:
        sink = None
        restores: list = [None] * len(region_graphs)
        fingerprints = [""] * len(region_graphs)
        if manager is not None:
            fingerprints = [
                region_fingerprint(region) for region in region_graphs
            ]
            sink = _DocumentSink(manager, stats)
            if multi_region:
                sink.caches = [[] for __ in region_graphs]
            if document is not None:
                restores = _match_sections(document, fingerprints, job)
                stats.restore(document.stats)
                if multi_region:
                    sink.caches = [
                        list(section.yielded) for section in restores
                    ]
                    sink.arrivals = list(document.arrivals)
                    sink.delivered = document.delivered
        coordinators = [
            MISCoordinator(
                region,
                region.core.alive,
                runner,
                mode=mode,
                triangulator=job.triangulator,
                priority=priority,
                stats=stats,
                checkpoint=sink,
                restore_state=restores[index],
                region_fingerprint=fingerprints[index],
                batcher=batcher,
                max_batch_retries=job.max_batch_retries,
            )
            for index, region in enumerate(region_graphs)
        ]
    except BaseException:
        runner.close()
        raise
    # Every restore has succeeded: only from here on may the job write
    # its document, so a failed resume never overwrites a good
    # checkpoint.
    if sink is not None:
        for coordinator in coordinators:
            sink.attach(coordinator)
    streams = [coordinator.stream() for coordinator in coordinators]
    return runner, sink, document, streams


def _match_sections(
    document: CheckpointDocument,
    fingerprints: list[str],
    job: EnumerationJob,
) -> list:
    """Align a loaded document's sections with the job's regions."""
    if len(document.regions) != len(fingerprints):
        raise CheckpointError(
            f"checkpoint holds {len(document.regions)} region "
            f"section(s) but the job resolves to {len(fingerprints)} "
            f"region(s) under decompose={job.decompose!r}"
        )
    for section, fingerprint in zip(document.regions, fingerprints):
        # Sections from version-1 files carry no region fingerprint;
        # those were single-region by construction.
        if section.region and section.region != fingerprint:
            raise CheckpointError(
                "checkpoint region sections do not match the job's "
                "regions (graph or decomposition changed)"
            )
    return list(document.regions)


def _product_stream(
    graph: Graph,
    region_graphs: list[Graph],
    streams: list[Iterator[Answer]],
    sink: _DocumentSink | None,
    document: CheckpointDocument | None,
) -> Iterator[Triangulation]:
    """The lazy fair product over region answer streams, resumable.

    When region i contributes a new answer x, every combination of x
    with the already-cached answers of the other regions is emitted
    (none while any other cache is still empty, so seeding falls out
    of the uniform rule).  Each combination contains exactly one new
    coordinate, hence no duplicates.

    On resume, the recorded ``arrivals`` sequence is replayed against
    the restored caches to regenerate the interrupted run's exact
    combination order; the first ``delivered`` combinations are
    skipped (the consumer already has them — counting happens before
    the yield, matching the at-most-once convention of the per-region
    yielded sets) and the remainder re-emitted before live streaming
    continues.
    """
    count = len(streams)
    caches: list[list[Answer]] = (
        sink.caches
        if sink is not None and sink.caches is not None
        else [[] for __ in range(count)]
    )
    # Per-region answer → fill memo, so a combination costs list
    # concatenation instead of re-saturating every coordinate.
    fills: list[dict[Answer, tuple]] = [{} for __ in range(count)]

    def combine(parts: list[Answer]) -> Triangulation:
        fill: list[tuple[Node, Node]] = []
        for index, answer in enumerate(parts):
            memo = fills[index]
            part = memo.get(answer)
            if part is None:
                part = Triangulation.from_separator_masks(
                    region_graphs[index], answer
                ).fill_edges
                memo[answer] = part
            fill.extend(part)
        return Triangulation(graph, tuple(fill))

    if document is not None and document.arrivals:
        # Replay the interrupted product from the restored caches.
        replayed: list[list[Answer]] = [[] for __ in range(count)]
        positions = [0] * count
        emitted = 0
        for region_index in document.arrivals:
            if not 0 <= region_index < count or positions[
                region_index
            ] >= len(caches[region_index]):
                raise CheckpointError(
                    "checkpoint product state is inconsistent (arrivals "
                    "do not match the per-region answer lists)"
                )
            answer = caches[region_index][positions[region_index]]
            positions[region_index] += 1
            others = [
                replayed[j] for j in range(count) if j != region_index
            ]
            for rest in itertools.product(*others):
                emitted += 1
                if emitted > sink.delivered:
                    parts = list(rest)
                    parts.insert(region_index, answer)
                    sink.delivered += 1
                    yield combine(parts)
            replayed[region_index].append(answer)
        if positions != [len(cache) for cache in caches]:
            raise CheckpointError(
                "checkpoint product state is inconsistent (answers "
                "missing from the arrival record)"
            )
        if sink.delivered > emitted:
            # More combinations marked delivered than the recorded
            # product can produce: a corrupt file.  Silently skipping
            # every replayed combination would lose answers for good.
            raise CheckpointError(
                "checkpoint product state is inconsistent (delivered "
                f"count {sink.delivered} exceeds the {emitted} "
                "recorded combinations)"
            )

    active = list(range(count))
    while active:
        for index in list(active):
            try:
                answer = next(streams[index])
            except StopIteration:
                active.remove(index)
                continue
            # Cache and arrival-record appends stay adjacent (no yield
            # between them), so any snapshot taken from here on is
            # consistent.
            caches[index].append(answer)
            if sink is not None:
                sink.arrivals.append(index)
            others = [caches[j] for j in range(count) if j != index]
            for rest in itertools.product(*others):
                parts = list(rest)
                parts.insert(index, answer)
                if sink is not None:
                    sink.delivered += 1
                yield combine(parts)
            if sink is not None:
                sink.bump()


class ShardedBackend(EnumerationBackend):
    """Partition the EnumMIS answer queue across worker processes."""

    name = "sharded"

    def stream(
        self,
        job: EnumerationJob,
        stats: EnumMISStatistics,
        workers: int | None,
    ) -> Iterator[Triangulation]:
        count = workers if workers is not None else job.workers
        if count is None:
            count = default_worker_count()
        if count < 1:
            raise EngineError(
                f"sharded backend needs workers >= 1, got {count}"
            )
        limits = BatchLimits.from_cli(
            job.batch_deadline_s, job.batch_rss_limit_mb
        )
        return coordinated_stream(
            job,
            stats,
            lambda payload: PoolRunner(payload, count, limits=limits),
        )


register_backend(ShardedBackend())
