"""EnumMIS: maximal independent sets of an SGR (system S13; paper Figure 1).

This is the paper's central algorithm (Theorem 3.1): given a tractably
accessible SGR with a tractable expansion, enumerate the maximal
independent sets of the represented graph in **incremental polynomial
time** — the time to produce the (N+1)-st answer is polynomial in the
input size and N.

The algorithm maintains

* ``Q`` — answers produced but not yet processed,
* ``P`` — processed answers,
* ``V`` — the SGR nodes generated so far by the node iterator.

Each popped answer J is extended *in the direction of* every known
node v: the candidate ``{v} ∪ {u ∈ J : ¬edge(v, u)}`` is completed by
``extend``.  When Q runs dry, new nodes are pulled from the iterator
and all past answers are revisited in the direction of each new node —
the twist that lets the algorithm run without ever materialising the
node set.

:func:`candidate_families`, the candidate step of this loop and of the
engine's coordinator, skips every candidate a found answer contains.
Completeness survives (the EnumMIS argument of Cohen, Kimelfeld &
Sagiv, JCSS 2008, behind Theorem 3.1): were a maximal independent set
I never output, take the found J meeting I in the most members and a
v ∈ I \\ J; J's candidate for v contains (J ∩ I) ∪ {v}, so, extended
or covered, it lies in a found answer meeting I in more members than
J.  Pop order does not enter the argument.  An uncovered candidate
extends to a new answer, so in this loop every ``extend`` yields one.

Two printing disciplines are supported (paper Section 3.2.2 and the
Figure 8 experiment):

* ``mode="UG"`` (*Upon Generation*, algorithm ``EnumMIS``) — an answer
  is yielded the moment it is first constructed;
* ``mode="UP"`` (*Upon Pop*, algorithm ``EnumMISHold``) — an answer is
  yielded when it is popped from Q for processing, which is the
  discipline under which incremental polynomial time is proven
  (Lemma 3.3); Theorem 3.4 then transfers the bound to UG.

Both modes enumerate exactly ``MaxInd(G(x))`` with no duplicates.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from repro.sgr.base import SGRNode, SuccinctGraphRepresentation

__all__ = [
    "enumerate_maximal_independent_sets",
    "candidate_families",
    "EnumMISStatistics",
    "FoundAnswers",
    "merge_statistics",
    "report_clause",
]


@dataclass
class EnumMISStatistics:
    """Counters exposed for the ablation benchmarks (E10 in DESIGN.md).

    An instance may be passed to
    :func:`enumerate_maximal_independent_sets`, which updates it in
    place while running.

    Besides the event counters, two *stage timers* break the run down
    into its pipeline stages, in integer nanoseconds: ``extend_time_ns``
    (the ``Extend`` triangulation) and ``crossing_time_ns`` (the
    direction edge-oracle sweeps).  The serial pipeline and the sharded
    workers fill the same fields, so serial-vs-sharded comparisons
    share a vocabulary, and the sharded coordinator's adaptive batcher
    feeds on the same measurements it reports.  ``ipc_payload_bytes`` /
    ``batches_dispatched`` / ``batch_roundtrip_ns`` size the traffic
    between the coordinator and its workers; per-batch latency is
    ``batch_roundtrip_ns / batches_dispatched``.
    """

    extend_calls: int = 0
    edge_oracle_calls: int = 0
    nodes_generated: int = 0
    answers: int = 0
    duplicates_suppressed: int = 0
    # Maintained by SGRs with a memoized edge oracle (e.g. the
    # separator-graph SGR's bounded canonical-pair crossing cache).
    edge_cache_hits: int = 0
    edge_cache_misses: int = 0
    edge_cache_evictions: int = 0
    # Candidates skipped because a found answer already contains them.
    candidates_covered: int = 0
    # Stage timers (ns) and sharded-engine wire accounting.
    extend_time_ns: int = 0
    crossing_time_ns: int = 0
    ipc_payload_bytes: int = 0
    batches_dispatched: int = 0
    batch_roundtrip_ns: int = 0
    # Runner-level fleet accounting (the distributed transport): how
    # many workers joined and were lost over the run, and how many
    # dispatched batches were lost with a dead/timed-out host and handed
    # back to the coordinator.
    worker_joins: int = 0
    worker_losses: int = 0
    batches_requeued: int = 0
    # Supervised-execution accounting: the coordinator's redispatches
    # and splits of failed batches (owner death or a typed BATCH_FAILED
    # abort, on any runner), batches that exhausted the retry budget
    # and were quarantined to the serial in-process fallback, the
    # answers those quarantined batches carried, and handshakes the
    # coordinator rejected (malformed HELLO or a version/format
    # mismatch — a bad worker build knocking).
    batch_retries: int = 0
    batches_quarantined: int = 0
    poison_answers: int = 0
    protocol_rejections: int = 0
    # Graph-kernel tier → batches executed on that tier, filled by the
    # workers (process-pool and socket alike).  A mixed-tier fleet —
    # e.g. one host whose native extension failed to build degrading to
    # numpy — is visible here instead of silently skewing timings.
    kernel_tiers: dict[str, int] = field(default_factory=dict)

    #: Every scalar counter, in snapshot order.  snapshot/add/restore
    #: iterate this single list so a newly added counter cannot be
    #: summed but silently dropped from checkpoints (or vice versa).
    _SCALAR_FIELDS = (
        "extend_calls",
        "edge_oracle_calls",
        "nodes_generated",
        "answers",
        "duplicates_suppressed",
        "edge_cache_hits",
        "edge_cache_misses",
        "edge_cache_evictions",
        "candidates_covered",
        "extend_time_ns",
        "crossing_time_ns",
        "ipc_payload_bytes",
        "batches_dispatched",
        "batch_roundtrip_ns",
        "worker_joins",
        "worker_losses",
        "batches_requeued",
        "batch_retries",
        "batches_quarantined",
        "poison_answers",
        "protocol_rejections",
    )

    #: Map-valued counters ({str: int}), handled alongside the scalars
    #: by snapshot/add/restore (merged key-wise rather than summed).
    _MAP_FIELDS = ("kernel_tiers",)

    def snapshot(self) -> dict:
        """Return the counters as a plain (JSON-safe) dict.

        Map-valued counters are copied, so mutating the live object
        after snapshotting does not corrupt a saved checkpoint.
        """
        counters = {name: getattr(self, name) for name in self._SCALAR_FIELDS}
        for name in self._MAP_FIELDS:
            counters[name] = dict(getattr(self, name))
        return counters

    def add(self, other: "EnumMISStatistics") -> None:
        """Accumulate another statistics object into this one, in place.

        Scalar counters are summed and map-valued counters
        (``kernel_tiers``) are merged key-wise.  This is how the sharded
        enumeration engine folds per-worker counters into the run's
        aggregate report (the stage timers sum too: each records
        CPU-stage time that elapsed in exactly one worker or in the
        coordinator).
        """
        for name in self._SCALAR_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in self._MAP_FIELDS:
            mine = getattr(self, name)
            for key, value in getattr(other, name).items():
                mine[key] = mine.get(key, 0) + value

    def restore(self, counters: dict) -> None:
        """Overwrite the counters from a :meth:`snapshot` dict.

        Unknown keys are ignored and missing keys leave the current
        value untouched, so old checkpoints stay loadable after new
        counters are added (and new checkpoints degrade gracefully on
        old code).  The map-valued counters (``kernel_tiers``) round-trip
        too.
        """
        for key in self._SCALAR_FIELDS:
            if key in counters:
                setattr(self, key, counters[key])
        for key in self._MAP_FIELDS:
            value = counters.get(key)
            if value is not None:
                setattr(self, key, dict(value))


def report_clause(stats: EnumMISStatistics) -> str:
    """The run-report clause behind ``result.summary()`` and the CLI.

    Names the supervision events a run needed (a correct answer set
    that needed salvage is worth knowing about) and the candidates
    skipped out of all met (skipped plus extended, seeds ∅ included);
    ``""`` when there is nothing to report.
    """
    supervision = []
    if stats.batch_retries:
        supervision.append(f"{stats.batch_retries} batch retries")
    if stats.batches_quarantined:
        supervision.append(
            f"{stats.batches_quarantined} quarantined "
            f"({stats.poison_answers} answers salvaged serially)"
        )
    if stats.protocol_rejections:
        supervision.append(f"{stats.protocol_rejections} protocol rejections")
    clauses = ["supervision: " + ", ".join(supervision)] if supervision else []
    if stats.candidates_covered:
        covered = stats.candidates_covered
        met = covered + stats.extend_calls
        clauses.append(f"coverage: {covered} of {met} candidates skipped")
    return "; ".join(clauses)


def merge_statistics(parts: Iterable[EnumMISStatistics]) -> EnumMISStatistics:
    """Return a new statistics object aggregating ``parts``.

    The aggregate of per-worker counters from a sharded run is the
    plain sum: every counter is a count of events that happened in
    exactly one worker (or in the coordinator).
    """
    total = EnumMISStatistics()
    for part in parts:
        total.add(part)
    return total


class _AnswerQueue:
    """The collection Q of Figure 1: FIFO by default, a min-heap when a
    priority function is supplied.

    The paper's correctness and incremental-polynomial-time proofs make
    no assumption about the order in which Q is drained ("we make no
    assumptions about the order of removal in Q", Section 3.2.2), so a
    best-first discipline preserves every guarantee while steering the
    traversal toward low-cost answers first.
    """

    def __init__(
        self, priority: Callable[[frozenset[SGRNode]], object] | None
    ) -> None:
        self._priority = priority
        self._fifo: deque[frozenset[SGRNode]] = deque()
        self._heap: list[tuple[object, int, frozenset[SGRNode]]] = []
        self._tiebreak = itertools.count()

    def push(self, answer: frozenset[SGRNode]) -> None:
        if self._priority is None:
            self._fifo.append(answer)
        else:
            heapq.heappush(
                self._heap, (self._priority(answer), next(self._tiebreak), answer)
            )

    def pop(self) -> frozenset[SGRNode]:
        if self._priority is None:
            return self._fifo.popleft()
        return heapq.heappop(self._heap)[2]

    def items(self) -> list[frozenset[SGRNode]]:
        """Return the queued answers without draining (for checkpoints)."""
        if self._priority is None:
            return list(self._fifo)
        return [entry[2] for entry in self._heap]

    def __len__(self) -> int:
        return len(self._fifo) + len(self._heap)


class FoundAnswers:
    """The answers found so far (the Figure-1 loops' dedup set), plus
    per node an int bitset of the discovery ids of the answers holding
    it: a family lies in a found answer iff its members' bitsets AND to
    non-zero."""

    __slots__ = ("_answers", "_holders")

    def __init__(self) -> None:
        self._answers: set[frozenset[SGRNode]] = set()
        self._holders: dict[SGRNode, int] = {}

    def add(self, answer: frozenset[SGRNode]) -> bool:
        """Record ``answer``; ``False`` when it was found already."""
        if answer in self._answers:
            return False
        bit = 1 << len(self._answers)
        self._answers.add(answer)
        holders = self._holders
        for node in answer:
            holders[node] = holders.get(node, 0) | bit
        return True

    def covers(self, nodes: Iterable[SGRNode]) -> bool:
        """Whether one found answer holds all of ``nodes`` (not empty;
        the most selective first, the AND stops once it is empty)."""
        holders = self._holders
        common = -1
        for node in nodes:
            common &= holders.get(node, 0)
            if not common:
                return False
        return True


def candidate_families(
    sgr: SuccinctGraphRepresentation,
    answer: frozenset[SGRNode],
    directions: Iterable[SGRNode],
    found: FoundAnswers,
    stats: EnumMISStatistics,
) -> Iterator[frozenset[SGRNode]]:
    """Figure 1's candidate step: answer J's uncovered candidates.

    For each direction v, in order, the candidate ``{v} ∪ {u ∈ J :
    ¬edge(v, u)}`` is skipped (and counted in ``candidates_covered``)
    when a found answer contains it — always when v ∈ J.  Lazy, so an
    answer recorded in ``found`` meanwhile covers later candidates.
    """
    members = list(answer)
    clock = time.perf_counter_ns
    for v in directions:
        if v in answer:
            stats.candidates_covered += 1
            continue
        stats.edge_oracle_calls += len(members)
        started = clock()
        crossed = sgr.has_edges_batch(v, members)
        stats.crossing_time_ns += clock() - started
        family = [v]
        family += [u for u, edge in zip(members, crossed) if not edge]
        # v first: the others all sit in J, so v's bitset decides.
        if found.covers(family):
            stats.candidates_covered += 1
            continue
        yield frozenset(family)


def enumerate_maximal_independent_sets(
    sgr: SuccinctGraphRepresentation,
    mode: str = "UG",
    stats: EnumMISStatistics | None = None,
    priority: Callable[[frozenset[SGRNode]], object] | None = None,
) -> Iterator[frozenset[SGRNode]]:
    """Enumerate ``MaxInd(G(x))`` for the given SGR (paper Figure 1).

    Parameters
    ----------
    sgr:
        The succinct graph representation; must be tractably accessible
        with a tractable expansion for the incremental-polynomial-time
        guarantee (correctness only needs the contracts of
        :class:`~repro.sgr.base.SuccinctGraphRepresentation`).
    mode:
        ``"UG"`` yields answers upon generation (EnumMIS), ``"UP"``
        upon removal from the queue (EnumMISHold).
    stats:
        Optional counter object updated in place.
    priority:
        Optional cost function over answers; when given, Q is drained
        best-first, biasing the traversal toward low-cost answers.
        Completeness, duplicate-freedom and incremental polynomial
        time are unaffected (the paper's proofs are pop-order
        agnostic); the output order is *heuristically* — not provably —
        cost-increasing.

    Yields
    ------
    frozenset
        Every maximal independent set of G(x), exactly once.
    """
    if mode not in {"UG", "UP"}:
        raise ValueError(f"mode must be 'UG' or 'UP', got {mode!r}")
    if stats is None:
        stats = EnumMISStatistics()
    # SGRs with a memoized edge oracle report cache hits/misses through
    # the same statistics object as every other counter of this run, so
    # one snapshot() is always internally consistent — even when the
    # SGR is reused across enumerations with different stats objects.
    attach = getattr(sgr, "attach_statistics", None)
    if attach is not None:
        attach(stats)
    clock = time.perf_counter_ns
    queue = _AnswerQueue(priority)
    found = FoundAnswers()

    def extend(family: frozenset[SGRNode]) -> frozenset[SGRNode] | None:
        """Extend ``family``; queue and return the answer if it is new."""
        stats.extend_calls += 1
        started = clock()
        extended = sgr.extend(family)
        stats.extend_time_ns += clock() - started
        if not found.add(extended):
            # Only an extend that drops part of its input gets here.
            stats.duplicates_suppressed += 1
            return None
        stats.answers += 1
        queue.push(extended)
        return extended

    first = extend(frozenset())
    if mode == "UG":
        yield first

    processed: list[frozenset[SGRNode]] = []
    known_nodes: list[SGRNode] = []
    node_iterator = sgr.iter_nodes()
    iterator_exhausted = False

    while queue:
        answer = queue.pop()
        if mode == "UP":
            yield answer
        processed.append(answer)

        for family in candidate_families(sgr, answer, known_nodes, found, stats):
            extended = extend(family)
            if extended is not None and mode == "UG":
                yield extended

        while not queue and not iterator_exhausted:
            try:
                v = next(node_iterator)
            except StopIteration:
                iterator_exhausted = True
                break
            stats.nodes_generated += 1
            known_nodes.append(v)
            for past in processed:
                for family in candidate_families(sgr, past, (v,), found, stats):
                    extended = extend(family)
                    if extended is not None and mode == "UG":
                        yield extended
