"""Backend protocol and registry of the enumeration engine.

A *backend* is a strategy for executing one
:class:`~repro.engine.job.EnumerationJob`: it turns the job into a lazy
stream of :class:`~repro.core.triangulation.Triangulation` objects
while folding its counters into a caller-supplied
:class:`~repro.sgr.enum_mis.EnumMISStatistics`.  Backends register
themselves by name, so new execution strategies (a numpy/CSR bulk
backend, a distributed one, …) plug in without touching the engine or
any caller — exactly like the triangulator registry one layer below.

Shipped backends:

* ``serial``  — the whole job in one process (see
  :mod:`repro.engine.serial`);
* ``sharded`` — the answer queue Q partitioned across a
  multiprocessing worker pool (see :mod:`repro.engine.sharded`);
* ``distributed`` — the same queue served by TCP workers (see
  :mod:`repro.engine.distributed`).

All of them run one assembly,
:func:`repro.engine.sharded.coordinated_stream`, and differ only in the
loop that produces each region's answers.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.triangulation import Triangulation
    from repro.engine.job import EnumerationJob
    from repro.sgr.enum_mis import EnumMISStatistics

__all__ = [
    "EngineError",
    "WireDecodeError",
    "BatchFailedError",
    "EnumerationBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]


class EngineError(RuntimeError):
    """An enumeration job could not be executed as specified."""


class WireDecodeError(EngineError):
    """Bytes on the wire do not form a valid message.

    Raised by every decoder that handles untrusted input — the packed
    batch/result serialisations of :mod:`repro.engine.wire` and the
    framed TCP protocol of :mod:`repro.engine.distributed.protocol` —
    instead of leaking IndexError/ValueError from malformed, truncated
    or adversarial bytes.  Defined here (not in ``wire``) so the
    numpy-free protocol layer can raise it without importing numpy.
    """


class BatchFailedError(EngineError):
    """One dispatched batch could not be executed by any worker.

    Raised through the batch's ``Future`` by a transport (the
    distributed runner) once a batch has burned its retry budget —
    every requeue caused by a *failure* (owner death, batch timeout, or
    a typed BATCH_FAILED cooperative abort) counts against
    ``max_batch_retries``.  The coordinator catches it and applies the
    quarantine policy (split-in-half once, then serial fallback)
    instead of letting one poison batch kill the run.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "failed",
        exhausted: bool = False,
    ) -> None:
        super().__init__(message)
        #: Machine-readable failure class (``"worker lost"``,
        #: ``"deadline"``, ``"rss"``, ``"poison"``, …).
        self.reason = reason
        #: True when the transport already retried this batch
        #: ``max_batch_retries`` times; the coordinator must not
        #: redispatch it as-is.
        self.exhausted = exhausted


class EnumerationBackend(abc.ABC):
    """One execution strategy for enumeration jobs."""

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""

    @abc.abstractmethod
    def stream(
        self,
        job: "EnumerationJob",
        stats: "EnumMISStatistics",
        workers: int | None,
    ) -> Iterator["Triangulation"]:
        """Lazily enumerate the job's minimal triangulations.

        Implementations must yield every minimal triangulation exactly
        once (budgets are enforced by the engine, not the backend),
        update ``stats`` in place — including counters contributed by
        worker processes — and release any pools or file handles when
        the generator is closed.  ``workers`` is the engine-level
        worker count; backends that do not parallelise ignore it.
        """


_REGISTRY: dict[str, EnumerationBackend] = {}


def register_backend(backend: EnumerationBackend) -> None:
    """Register ``backend`` under ``backend.name`` (replacing any previous)."""
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    _REGISTRY[backend.name] = backend


def get_backend(name: str | EnumerationBackend) -> EnumerationBackend:
    """Resolve a backend name (identity on backend instances)."""
    if isinstance(name, EnumerationBackend):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise EngineError(
            f"unknown enumeration backend {name!r} (known: {known})"
        ) from None


def available_backends() -> list[str]:
    """Return the names of all registered backends."""
    return sorted(_REGISTRY)
