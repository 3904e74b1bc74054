"""The benchmark's workloads: one enumeration job per input, closed loop.

Each workload pins a graph *structure* and draws the node *labels* from
the seed.  The structure stays fixed so the numbers remain comparable
with the acceptance figures quoted for the same graphs.  The labels are
distinct ints in the structure's own node order, so vertex indices and
sorted order are unchanged; what the seed changes is the hash-dependent
iteration order inside the enumerator (sets of separators, of answers),
and with it the order in which answers are found.  Int labels also make
the input independent of ``PYTHONHASHSEED``: the PGM generator labels
nodes ``("d", i)`` / ``("f", j)``, whose str hashes are randomised per
process, and two processes used to disagree on Extend counts and
``best_fill`` for the same input.

Jobs on the coordinator path (``promedas310-atoms-ckpt`` and
``gnp30-sharded``) still vary run to run with a fixed input:
``AdaptiveBatcher`` sizes batches from wall-clock timings, so the batch
boundaries, the answer order and the Extend count differ between runs
of the same input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph
from repro.workloads.pgm import promedas_like


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``answers`` is the answer count of one job (``max_results``); a run
    repeats jobs, each on the next seeded input, for its measurement
    time.  ``structure`` names a zero-argument builder of the pinned
    graph; ``options`` are extra :class:`EnumerationJob` fields, with
    ``checkpoint=True`` meaning a fresh checkpoint file per job.
    """

    name: str
    why: str
    structure: str
    backend: str
    answers: int
    options: dict = field(default_factory=dict)
    checkpoint: bool = False


def _gnp30() -> Graph:
    return gnp_random_graph(30, 0.35, seed=12345)


def _promedas310() -> Graph:
    return promedas_like(120, 190, seed=310)


def _promedas1600() -> Graph:
    return promedas_like(600, 1000, seed=1600)


STRUCTURES = {
    "gnp30": _gnp30,
    "promedas310": _promedas310,
    "promedas1600": _promedas1600,
}

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="gnp30-serial",
            why=(
                "ROADMAP acceptance graph (paper's G(n,p) family), serial "
                "defaults: Extend-bound, ~85% of Extend calls return a "
                "duplicate; pool, wire and checkpoint layers idle"
            ),
            structure="gnp30",
            backend="serial",
            answers=400,
        ),
        Workload(
            name="gnp30-sharded",
            why=(
                "same job on the sharded pool at the usable core count: "
                "coordinator, pool, wire and batching layers busy"
            ),
            structure="gnp30",
            backend="sharded",
            answers=400,
        ),
        Workload(
            name="promedas310-atoms-ckpt",
            why=(
                "paper's PGM family, atoms decomposition with periodic "
                "checkpoint writes through the inline coordinator"
            ),
            structure="promedas310",
            backend="serial",
            # 100 gaps per job put the tail at p90, inside the batch-wait
            # mode of this workload's bimodal gaps (about a fifth are
            # batch waits); at p75 it sits on the mode boundary and jumps.
            answers=101,
            options={"decompose": "atoms"},
            checkpoint=True,
        ),
        Workload(
            name="promedas1600-large",
            why=(
                "only input at or above NUMPY_THRESHOLD, served by the "
                "packed kernel tier; MCS-M-bound, few answers per second"
            ),
            structure="promedas1600",
            backend="serial",
            answers=3,
        ),
    )
}


def build_input(workload: Workload, seed: int) -> Graph:
    """The input graph of ``workload`` for ``seed`` (same seed, same graph)."""
    pinned = STRUCTURES[workload.structure]()
    nodes = pinned.nodes()
    labels = sorted(random.Random(seed).sample(range(1, 1 << 31), len(nodes)))
    label = dict(zip(nodes, labels))
    return Graph(
        nodes=labels, edges=[(label[u], label[v]) for u, v in pinned.edges()]
    )


def job_seed(run_seed: int, job: int) -> int:
    """The seed of the ``job``-th input of a run."""
    return run_seed * 1_000_003 + job
