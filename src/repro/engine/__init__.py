"""Pluggable enumeration engine (orchestration over EnumMIS).

This subsystem separates *what* to enumerate from *how* it executes.
An :class:`EnumerationJob` describes the problem — graph, EnumMIS
printing mode, ``Extend`` heuristic, ranking, answer/time budgets,
checkpointing — and an :class:`EnumerationEngine` dispatches it to a
registered backend:

* ``serial``  — the single-process reference pipeline;
* ``sharded`` — the answer queue Q partitioned across a
  multiprocessing worker pool: the graph ships once per worker as an
  inline packed adjacency matrix, separator sets travel in the
  interned packed wire format of :mod:`repro.engine.wire`, batches are
  sized to the job's ``batch_target_ms`` by the cost-driven
  :class:`~repro.engine.batching.AdaptiveBatcher`, each worker keeps a
  warm interned-separator/crossing-cache SGR for its lifetime,
  deduplication is centralised in a coordinator, and per-worker
  :class:`~repro.sgr.enum_mis.EnumMISStatistics` — stage timers
  included — merge into one aggregate report.

* ``distributed`` — the same coordinator discipline over TCP: an
  asyncio coordinator ships the packed adjacency once per connected
  host and fans batches out to ``repro worker --connect`` processes on
  any machine, with elastic membership (workers join/leave mid-job);
  batches owned by lost hosts fail straight back to the coordinator,
  whose one retry → split → quarantine ladder redispatches them for
  every backend, and each result counts exactly once
  (:mod:`repro.engine.distributed`).

All backends enumerate exactly the same answer set — ``MaxInd`` of
the separator graph is canonical, and only the execution strategy
differs.  Long enumerations can checkpoint their (Q, P, V) state and
resume after interruption (:mod:`repro.engine.checkpoint`); jobs whose
graph decomposes into several regions (disconnected inputs,
``decompose="atoms"``) checkpoint per-region sections plus the
cross-region product state, so they resume without re-yielding
delivered answers too.

Quickstart::

    from repro.engine import EnumerationEngine, EnumerationJob

    job = EnumerationJob(graph, max_results=1000)
    result = EnumerationEngine("sharded", workers=4).run(job)
    print(result.summary())
    print(result.stats.snapshot())
"""

from repro.engine.base import (
    BatchFailedError,
    EngineError,
    EnumerationBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.checkpoint import (
    CheckpointDocument,
    CheckpointError,
    CheckpointIntegrityError,
    CheckpointManager,
    CheckpointState,
    region_fingerprint,
)
from repro.engine.engine import EnumerationEngine
from repro.engine.job import EnumerationJob
from repro.engine.result import AnswerRecord, EnumerationResult
from repro.engine.wire import WireDecodeError

# Importing the backend modules registers them.
from repro.engine import serial as _serial  # noqa: E402,F401
from repro.engine import sharded as _sharded  # noqa: E402,F401
from repro.engine import distributed as _distributed  # noqa: E402,F401

__all__ = [
    "AnswerRecord",
    "BatchFailedError",
    "CheckpointDocument",
    "CheckpointError",
    "CheckpointIntegrityError",
    "CheckpointManager",
    "CheckpointState",
    "region_fingerprint",
    "EngineError",
    "EnumerationBackend",
    "EnumerationEngine",
    "EnumerationJob",
    "EnumerationResult",
    "WireDecodeError",
    "available_backends",
    "get_backend",
    "register_backend",
]
