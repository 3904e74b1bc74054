"""Checkpoint/resume of the EnumMIS (Q, P, V) state — per region.

The EnumMIS control state is small and fully describes the traversal
of one *region* (connected component or atom):

* ``V`` — the SGR nodes (minimal separators) generated so far, each a
  vertex bitmask;
* ``P`` — processed answers, each a set of separator masks;
* ``Q`` — produced-but-unprocessed answers.

Everything else (the separator-intern table, crossing caches) is a pure
cache rebuilt on demand, so persisting those three collections — plus
the set of answers already yielded, the statistics counters and an
input fingerprint — lets a multi-hour enumeration survive interruption
and continue exactly where it stopped, without re-yielding answers the
consumer already saw.

A checkpoint file is a :class:`CheckpointDocument`: one
:class:`CheckpointState` *section per region*, identified by a region
fingerprint, plus the state of the cross-region product for jobs whose
graph decomposes into several regions (disconnected inputs,
``decompose="atoms"``):

* ``arrivals`` — the order in which region answers entered the lazy
  fair product (region index per arrival; each section's ``yielded``
  list holds that region's answers in the same arrival order), and
* ``delivered`` — how many product combinations the consumer has
  received.

Replaying ``arrivals`` against the per-region ``yielded`` lists
deterministically reconstructs the exact combination sequence of the
interrupted run, so resume skips the first ``delivered`` combinations
and re-emits only what the consumer never saw.  Statistics are stored
once at the document level (every region folds into one shared
:class:`~repro.sgr.enum_mis.EnumMISStatistics`); that includes the
stage timers and wire accounting (``extend_time_ns``,
``crossing_time_ns``, ``ipc_payload_bytes``,
``batches_dispatched``, ``batch_roundtrip_ns``) — all plain integer
counters, so a resumed run's report covers the whole enumeration, not
just the post-resume half, and files from before a counter existed
keep loading (missing keys leave the fresh value untouched).

Masks serialise as plain JSON integers (Python's ``json`` handles
arbitrary-precision ints), so the format is portable across runs and
machines as long as the graph — and therefore the label → index
interning, which is deterministic given the same construction — is the
same.  A fingerprint over the node/edge sets, the mode and the
triangulator guards against resuming into a different job; version-1
files (single-region, pre-multi-region format) load as one-section
documents.

Resume replays the deterministic minimal-separator enumerator through
the first ``|V|`` outputs of every region and verifies they match the
stored prefix, so each node iterator continues from the right position.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.base import EngineError
from repro.graph.graph import Graph

__all__ = [
    "CheckpointError",
    "CheckpointIntegrityError",
    "CheckpointManager",
    "CheckpointState",
    "CheckpointDocument",
    "job_fingerprint",
    "region_fingerprint",
]

#: Version 3 added the document CRC-32 and two-generation rotation
#: (``ckpt`` → ``ckpt.1`` on every save).  Version-1/2 files load
#: unchanged — they simply carry no CRC to verify.
_FORMAT_VERSION = 3

Answer = frozenset[int]


class CheckpointError(EngineError):
    """A checkpoint file is unreadable or belongs to a different job."""


class CheckpointIntegrityError(CheckpointError):
    """A checkpoint file is damaged (truncated, corrupt, unreadable).

    Integrity failures are the *recoverable* kind: the data on disk is
    not what was written, so falling back to the previous generation
    is safe and right.  Semantic mismatches (wrong job fingerprint,
    unsupported version) stay plain :class:`CheckpointError` — those
    mean the *caller* is wrong, and silently resuming an older file of
    the same wrong job would compound the mistake.
    """


def _document_crc(payload: dict) -> int:
    """CRC-32 over the canonical JSON encoding of ``payload``.

    The payload must not contain the ``crc32`` key itself; canonical
    form (sorted keys, no whitespace) makes the digest independent of
    dict ordering and formatting, so load can recompute it from the
    parsed document.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(body.encode())


def job_fingerprint(
    graph: Graph, mode: str, triangulator_name: str, decompose: str
) -> str:
    """A stable digest identifying the job a checkpoint belongs to."""
    digest = hashlib.sha256()
    for node in graph.nodes():
        digest.update(repr(node).encode())
        digest.update(b"\x00")
    digest.update(b"\x01")
    for u, v in graph.edges():
        digest.update(repr(u).encode())
        digest.update(b"\x00")
        digest.update(repr(v).encode())
        digest.update(b"\x00")
    digest.update(f"|{mode}|{triangulator_name}|{decompose}".encode())
    return digest.hexdigest()


def region_fingerprint(region: Graph) -> str:
    """A stable digest of one region's node set.

    The job fingerprint already pins the whole graph (and the edge set
    of every induced region with it), so a region is identified by its
    nodes alone; this guards section ↔ region alignment when a
    multi-region checkpoint is resumed.
    """
    digest = hashlib.sha256()
    for node in region.nodes():
        digest.update(repr(node).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class CheckpointState:
    """The persisted EnumMIS control state of one region."""

    #: :func:`region_fingerprint` of the region this section belongs to
    #: ("" in files written before the multi-region format).
    region: str = ""
    known_nodes: list[int] = field(default_factory=list)
    exhausted: bool = False
    queue: list[Answer] = field(default_factory=list)
    processed: list[Answer] = field(default_factory=list)
    #: For multi-region jobs the order matters: answers appear exactly
    #: in the order they entered the cross-region product.
    yielded: list[Answer] = field(default_factory=list)
    # Scalar counters plus the map-valued ``kernel_tiers``; populated
    # on the document, kept here for single-state round trips through
    # :meth:`CheckpointManager.save` / ``load``.
    stats: dict = field(default_factory=dict)


@dataclass
class CheckpointDocument:
    """Everything one checkpoint file holds: sections + product state."""

    regions: list[CheckpointState] = field(default_factory=list)
    #: Region index per product arrival, in arrival order (empty for
    #: single-region jobs, which bypass the product entirely).
    arrivals: list[int] = field(default_factory=list)
    #: Product combinations already delivered to the consumer.
    delivered: int = 0
    stats: dict = field(default_factory=dict)


def _encode_answers(answers: list[Answer]) -> list[list[int]]:
    return [sorted(answer) for answer in answers]


def _decode_answers(raw: list[list[int]]) -> list[Answer]:
    return [frozenset(masks) for masks in raw]


def _decode_stats(raw: dict) -> dict:
    """Normalise persisted statistics counters.

    Scalar counters decode as ints; map-valued counters (the
    ``kernel_tiers`` breakdown) decode as ``{str: int}``.
    Checkpoints from before a counter existed simply lack its key —
    :meth:`~repro.sgr.enum_mis.EnumMISStatistics.restore` tolerates
    that — and unknown keys ride through harmlessly.
    """
    decoded: dict = {}
    for key, value in raw.items():
        if isinstance(value, dict):
            decoded[key] = {str(k): int(v) for k, v in value.items()}
        else:
            decoded[key] = int(value)
    return decoded


def _decode_section(raw: dict) -> CheckpointState:
    return CheckpointState(
        region=str(raw.get("region", "")),
        known_nodes=[int(mask) for mask in raw["known_nodes"]],
        exhausted=bool(raw["exhausted"]),
        queue=_decode_answers(raw["queue"]),
        processed=_decode_answers(raw["processed"]),
        yielded=_decode_answers(raw["yielded"]),
    )


def _encode_section(state: CheckpointState) -> dict:
    return {
        "region": state.region,
        "known_nodes": list(state.known_nodes),
        "exhausted": state.exhausted,
        "queue": _encode_answers(state.queue),
        "processed": _encode_answers(state.processed),
        "yielded": _encode_answers(state.yielded),
    }


class CheckpointManager:
    """Owns one checkpoint file: atomic saves, fingerprint-checked loads."""

    def __init__(
        self, path: str | Path, fingerprint: str, every: int = 64
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.every = every

    @property
    def previous_path(self) -> Path:
        """The older checkpoint generation (rotated on every save)."""
        return self.path.with_name(self.path.name + ".1")

    def load_document(self) -> CheckpointDocument:
        """Read and validate the newest *intact* checkpoint generation.

        Integrity damage on the newest file (truncation mid-write,
        bit-rot caught by the CRC, unreadable file) falls back to the
        previous generation with a warning — every generation on disk
        was a complete, delivered-answer-consistent snapshot when it
        was written, so resuming from the older one repeats work but
        never re-yields or loses answers.  Semantic mismatches (wrong
        job, unsupported version) raise immediately on any generation.
        """
        failures: list[str] = []
        for path in (self.path, self.previous_path):
            if not path.exists():
                failures.append(f"{path}: missing")
                continue
            try:
                document = self._read_document(path)
            except CheckpointIntegrityError as exc:
                failures.append(str(exc))
                continue
            if failures:
                warnings.warn(
                    "newest checkpoint generation is damaged "
                    f"({'; '.join(failures)}); resuming from the intact "
                    f"previous generation {path}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return document
        raise CheckpointIntegrityError(
            "no intact checkpoint generation: " + "; ".join(failures)
        )

    def _read_document(self, path: Path) -> CheckpointDocument:
        """Parse and validate one checkpoint file (no fallback here)."""
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise CheckpointIntegrityError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise CheckpointIntegrityError(
                f"checkpoint {path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise CheckpointIntegrityError(
                f"checkpoint {path} is not a JSON object"
            )
        version = data.get("version")
        if version not in (1, 2, _FORMAT_VERSION):
            raise CheckpointError(
                f"checkpoint {path} has unsupported version "
                f"{version!r} (expected {_FORMAT_VERSION})"
            )
        if version == _FORMAT_VERSION:
            # Bit-level integrity: a version-3 document always carries
            # its CRC.  A syntactically valid file whose CRC is absent
            # or wrong is damaged, not merely old.
            try:
                stored = int(data.pop("crc32"))
            except (KeyError, TypeError, ValueError):
                raise CheckpointIntegrityError(
                    f"checkpoint {path} is missing its crc32 field"
                ) from None
            actual = _document_crc(data)
            if stored != actual:
                raise CheckpointIntegrityError(
                    f"checkpoint {path} failed its CRC-32 check "
                    f"(stored {stored:#010x}, computed {actual:#010x})"
                )
        if data.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different job "
                "(graph, mode, triangulator or decompose changed)"
            )
        stats = _decode_stats(data.get("stats", {}))
        if version == 1:
            # Pre-multi-region format: the whole file is one section.
            section = _decode_section(data)
            section.stats = stats
            return CheckpointDocument(regions=[section], stats=stats)
        return CheckpointDocument(
            regions=[_decode_section(raw) for raw in data["regions"]],
            arrivals=[int(i) for i in data.get("arrivals", [])],
            delivered=int(data.get("delivered", 0)),
            stats=stats,
        )

    def load_document_if_resuming(
        self, resume: bool
    ) -> CheckpointDocument | None:
        """Load the document when ``resume`` is set; ``None`` on fresh runs.

        A resume against a missing file is an error, not a silent fresh
        start: the caller asked to continue a previous run, and quietly
        re-enumerating from scratch would re-deliver every answer the
        interrupted run already yielded (and burn its runtime again).
        """
        if not resume:
            return None
        if not self.path.exists() and not self.previous_path.exists():
            raise CheckpointError(
                f"cannot resume: checkpoint {self.path} does not exist"
            )
        return self.load_document()

    def save_document(self, document: CheckpointDocument) -> None:
        """Atomically persist ``document`` (write temp, rotate, rename).

        The CRC-32 over the canonical payload is stored in the file, so
        load can prove bit-level integrity; the previous file rotates
        to the ``.1`` generation *before* the rename, so at every
        instant at least one complete generation exists on disk — an
        interrupt between the two renames leaves the old snapshot as
        ``.1`` and load falls back to it.
        """
        payload = {
            "version": _FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "regions": [
                _encode_section(section) for section in document.regions
            ],
            "arrivals": list(document.arrivals),
            "delivered": document.delivered,
            "stats": document.stats,
        }
        payload["crc32"] = _document_crc(payload)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        if self.path.exists():
            os.replace(self.path, self.previous_path)
        os.replace(tmp, self.path)

    # -- single-state convenience (tests, tooling) ---------------------

    def load(self) -> CheckpointState:
        """Load a single-region checkpoint as one state."""
        document = self.load_document()
        if len(document.regions) != 1:
            raise CheckpointError(
                f"checkpoint {self.path} holds {len(document.regions)} "
                "region sections; use load_document()"
            )
        state = document.regions[0]
        state.stats = document.stats
        return state

    def save(self, state: CheckpointState) -> None:
        """Persist a single-region state as a one-section document."""
        self.save_document(
            CheckpointDocument(regions=[state], stats=state.stats)
        )
