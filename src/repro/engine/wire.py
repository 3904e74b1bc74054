"""Packed wire format for sharded task batches and their results.

The first sharded engine shipped every separator of every task as its
own pickled Python int.  A separator mask over an n-vertex graph is an
~n-bit integer, so each *reference* to a separator cost ~n/8 bytes on
the wire — even though a batch references the same few separators over
and over (every answer in a batch is a maximal pairwise-parallel family
of the same graph, and the direction set is one shared V-snapshot).

This codec replaces that with two ideas:

* **per-batch interning** — every *distinct* mask in a batch is stored
  exactly once, packed into one contiguous little-endian ``uint64``
  buffer (:func:`repro.graph.bitset_np.pack_masks` layout); answers and
  directions then reference masks by dense ``uint32`` index.  A
  repeated separator costs 4 bytes instead of ~n/8 — at n = 2000 that
  is a 64× saving per repeat, and overlap between answers is the norm,
  not the exception;
* **flat buffers** — the table, the reference stream and the per-answer
  lengths are plain ``bytes``, so a batch pickles as a handful of
  fixed-cost byte strings however many separators it mentions.

Decoding interns in the opposite direction: the table's rows are
converted to int masks once (:func:`repro.graph.bitset_np.unpack_rows`)
and answers are rebuilt by indexing, so a worker also pays the big-int
reconstruction once per distinct mask rather than once per reference.

Both directions of the protocol use the same layout:
:class:`PackedBatch` carries tasks coordinator → worker (answers plus
the batch-wide direction set), :class:`PackedResult` carries extended
answers worker → coordinator, together with the worker's stage-timer
statistics delta and its batch compute time (the coordinator subtracts
the latter from the observed round-trip to meter pure IPC time).

The tuple form — ``(region_mask, [(answer_masks, direction_masks),
...])`` — remains the in-process representation used by the inline
runner (nothing is pickled there, so interning would be pure
overhead); every batch that leaves the process is packed.

Untrusted bytes
---------------
The multiprocessing pool moves these structures over a pickle channel
between processes of one user, but the distributed runner reads them
off a TCP socket — bytes a coordinator must treat as untrusted input.
Every decoding entry point therefore *validates before it indexes*:
malformed, truncated or internally inconsistent payloads raise the
typed :class:`WireDecodeError` (never ``IndexError``/``ValueError``
from deep inside numpy, and never an attacker-sized allocation — field
lengths are checked against the actual buffer before anything is
built).  :func:`batch_to_bytes` / :func:`batch_from_bytes` and
:func:`result_to_bytes` / :func:`result_from_bytes` are the flat,
pickle-free serialisations of the two message bodies the socket
protocol frames (statistics travel as a JSON snapshot, masks as the
same packed buffers the in-process format uses).
"""

from __future__ import annotations

import json
import struct
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from repro.engine.base import WireDecodeError
from repro.graph.bitset_np import pack_masks, unpack_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sgr.enum_mis import EnumMISStatistics

__all__ = [
    "PackedBatch",
    "PackedResult",
    "WireDecodeError",
    "encode_batch",
    "decode_batch",
    "encode_result",
    "decode_result",
    "batch_to_bytes",
    "batch_from_bytes",
    "result_to_bytes",
    "result_from_bytes",
    "reference_batch",
    "legacy_batch",
]

_REF_DTYPE = np.dtype("<u4")
_WORD_DTYPE = np.dtype("<u8")

#: Upper bound on any single length field of a serialised batch or
#: result.  Frames are bounded again at the transport layer; this cap
#: stops a corrupt length word from provoking a giant allocation even
#: when a decoder is fed bytes that never crossed a socket.
MAX_WIRE_FIELD_BYTES = 1 << 28


class PackedBatch(NamedTuple):
    """One coordinator → worker task batch in packed form."""

    #: Induced-subgraph selector of the region being enumerated.
    region_mask: int
    #: ``uint64`` words per mask row (fixed by the full graph's size).
    words: int
    #: The interned mask table: ``len(table) // (words * 8)`` rows.
    table: bytes
    #: ``uint32`` indices into the table, all answers concatenated.
    answer_refs: bytes
    #: ``uint32`` member count per answer (one entry per task).
    answer_lens: bytes
    #: ``uint32`` indices of the direction masks, shared by every
    #: answer of the batch (the V-snapshot, or the barrier node).
    direction_refs: bytes

    @property
    def nbytes(self) -> int:
        """Wire size of the mask payload (the pickle adds ~100 bytes)."""
        return (
            len(self.table)
            + len(self.answer_refs)
            + len(self.answer_lens)
            + len(self.direction_refs)
        )


class PackedResult(NamedTuple):
    """One worker → coordinator batch result in packed form."""

    words: int
    table: bytes
    answer_refs: bytes
    answer_lens: bytes
    #: Wall-clock nanoseconds the worker spent executing the batch
    #: (decode → extend loop → encode); round-trip minus this is IPC.
    compute_ns: int
    #: Stage-timer / counter delta covering exactly this batch.
    stats: "EnumMISStatistics"

    @property
    def nbytes(self) -> int:
        """Wire size of the mask payload (the pickle adds ~100 bytes)."""
        return len(self.table) + len(self.answer_refs) + len(self.answer_lens)


class _MaskInterner:
    """Assign dense indices to distinct masks, first-seen order."""

    __slots__ = ("index_of", "masks")

    def __init__(self) -> None:
        self.index_of: dict[int, int] = {}
        self.masks: list[int] = []

    def intern(self, mask: int) -> int:
        index = self.index_of.get(mask)
        if index is None:
            index = self.index_of[mask] = len(self.masks)
            self.masks.append(mask)
        return index


def _encode_answer_lists(
    answers: Iterable[tuple[int, ...]], interner: _MaskInterner
) -> tuple[bytes, bytes]:
    refs: list[int] = []
    lens: list[int] = []
    intern = interner.intern
    for answer in answers:
        lens.append(len(answer))
        refs.extend(intern(mask) for mask in answer)
    return (
        np.asarray(refs, dtype=_REF_DTYPE).tobytes(),
        np.asarray(lens, dtype=_REF_DTYPE).tobytes(),
    )


def _pack_table(interner: _MaskInterner, words: int) -> bytes:
    if not interner.masks:
        return b""
    return pack_masks(interner.masks, words).tobytes()


def _decode_table(table: bytes, words: int) -> list[int]:
    if not table:
        return []
    matrix = np.frombuffer(table, dtype=_WORD_DTYPE).reshape(-1, words)
    return unpack_rows(matrix)


def _decode_answer_lists(
    table: list[int], answer_refs: bytes, answer_lens: bytes
) -> list[tuple[int, ...]]:
    refs = np.frombuffer(answer_refs, dtype=_REF_DTYPE).tolist()
    answers: list[tuple[int, ...]] = []
    cursor = 0
    for length in np.frombuffer(answer_lens, dtype=_REF_DTYPE).tolist():
        answers.append(
            tuple(table[ref] for ref in refs[cursor : cursor + length])
        )
        cursor += length
    return answers


def encode_batch(
    region_mask: int,
    answers: list[tuple[int, ...]],
    directions: tuple[int, ...],
    words: int,
) -> PackedBatch:
    """Pack a task batch: per-answer separator sets + shared directions."""
    interner = _MaskInterner()
    answer_refs, answer_lens = _encode_answer_lists(answers, interner)
    direction_refs = np.asarray(
        [interner.intern(mask) for mask in directions], dtype=_REF_DTYPE
    ).tobytes()
    return PackedBatch(
        region_mask=region_mask,
        words=words,
        table=_pack_table(interner, words),
        answer_refs=answer_refs,
        answer_lens=answer_lens,
        direction_refs=direction_refs,
    )


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise WireDecodeError(message)


def _validate_refs(
    refs: bytes, lens: bytes | None, rows: int, what: str
) -> None:
    """All invariants that make indexing into the mask table safe."""
    _check(
        len(refs) % _REF_DTYPE.itemsize == 0,
        f"{what} reference stream is not a whole number of uint32 words",
    )
    if lens is not None:
        _check(
            len(lens) % _REF_DTYPE.itemsize == 0,
            f"{what} length stream is not a whole number of uint32 words",
        )
        lengths = np.frombuffer(lens, dtype=_REF_DTYPE)
        total = int(lengths.sum(dtype=np.int64))
        _check(
            total == len(refs) // _REF_DTYPE.itemsize,
            f"{what} lengths sum to {total} but the reference stream "
            f"holds {len(refs) // _REF_DTYPE.itemsize} entries",
        )
    if refs:
        references = np.frombuffer(refs, dtype=_REF_DTYPE)
        top = int(references.max())
        _check(
            top < rows,
            f"{what} references row {top} of a {rows}-row mask table",
        )


def _validate_table(table: bytes, words: int) -> int:
    """Return the table's row count; raise if the shape is impossible."""
    _check(words >= 1, f"words per mask must be >= 1, got {words}")
    row_bytes = words * _WORD_DTYPE.itemsize
    _check(
        len(table) % row_bytes == 0,
        f"mask table of {len(table)} bytes is not a whole number of "
        f"{row_bytes}-byte rows",
    )
    return len(table) // row_bytes


def validate_batch(batch: PackedBatch) -> None:
    """Raise :class:`WireDecodeError` unless ``batch`` decodes safely."""
    rows = _validate_table(batch.table, batch.words)
    _check(batch.region_mask >= 0, "region mask must be non-negative")
    _validate_refs(batch.answer_refs, batch.answer_lens, rows, "answer")
    _validate_refs(batch.direction_refs, None, rows, "direction")


def validate_result(result: PackedResult) -> None:
    """Raise :class:`WireDecodeError` unless ``result`` decodes safely."""
    rows = _validate_table(result.table, result.words)
    _validate_refs(result.answer_refs, result.answer_lens, rows, "answer")


def decode_batch(
    batch: PackedBatch,
) -> tuple[int, list[tuple[int, ...]], tuple[int, ...]]:
    """Invert :func:`encode_batch`: ``(region_mask, answers, directions)``.

    Validates the batch first, so malformed input raises
    :class:`WireDecodeError` rather than an arbitrary numpy/indexing
    error from half-way through decoding.
    """
    validate_batch(batch)
    table = _decode_table(batch.table, batch.words)
    answers = _decode_answer_lists(
        table, batch.answer_refs, batch.answer_lens
    )
    directions = tuple(
        table[ref]
        for ref in np.frombuffer(batch.direction_refs, dtype=_REF_DTYPE)
    )
    return batch.region_mask, answers, directions


def encode_result(
    answers: list[tuple[int, ...]],
    words: int,
    compute_ns: int,
    stats: "EnumMISStatistics",
) -> PackedResult:
    """Pack a batch's extended answers for the trip back."""
    interner = _MaskInterner()
    answer_refs, answer_lens = _encode_answer_lists(answers, interner)
    return PackedResult(
        words=words,
        table=_pack_table(interner, words),
        answer_refs=answer_refs,
        answer_lens=answer_lens,
        compute_ns=compute_ns,
        stats=stats,
    )


def decode_result(result: PackedResult) -> list[tuple[int, ...]]:
    """Invert :func:`encode_result` (the mask payload half)."""
    validate_result(result)
    table = _decode_table(result.table, result.words)
    return _decode_answer_lists(
        table, result.answer_refs, result.answer_lens
    )


# ----------------------------------------------------------------------
# Flat byte serialisation (the socket transport's message bodies)
# ----------------------------------------------------------------------

_BATCH_HEADER = struct.Struct("!IIIIII")
_RESULT_HEADER = struct.Struct("!IqIIII")


def _split_fields(
    data: bytes, offset: int, lengths: tuple[int, ...], what: str
) -> list[bytes]:
    """Slice consecutive length-prefixed fields, validating first."""
    total = offset
    for length in lengths:
        _check(
            0 <= length <= MAX_WIRE_FIELD_BYTES,
            f"{what} field length {length} exceeds the wire cap",
        )
        total += length
    _check(
        total == len(data),
        f"{what} of {len(data)} bytes does not match its declared "
        f"field lengths (expected {total})",
    )
    fields = []
    for length in lengths:
        fields.append(data[offset : offset + length])
        offset += length
    return fields


def batch_to_bytes(batch: PackedBatch) -> bytes:
    """Serialise a :class:`PackedBatch` into one flat byte string."""
    mask = batch.region_mask
    region = mask.to_bytes(max(1, (mask.bit_length() + 7) // 8), "little")
    header = _BATCH_HEADER.pack(
        batch.words,
        len(region),
        len(batch.table),
        len(batch.answer_refs),
        len(batch.answer_lens),
        len(batch.direction_refs),
    )
    return b"".join(
        (
            header,
            region,
            batch.table,
            batch.answer_refs,
            batch.answer_lens,
            batch.direction_refs,
        )
    )


def batch_from_bytes(data: bytes) -> PackedBatch:
    """Rebuild a validated :class:`PackedBatch` from untrusted bytes."""
    _check(
        len(data) >= _BATCH_HEADER.size,
        f"batch frame of {len(data)} bytes is shorter than its header",
    )
    words, *lengths = _BATCH_HEADER.unpack_from(data)
    region, table, refs, lens, directions = _split_fields(
        data, _BATCH_HEADER.size, tuple(lengths), "batch frame"
    )
    batch = PackedBatch(
        region_mask=int.from_bytes(region, "little"),
        words=words,
        table=table,
        answer_refs=refs,
        answer_lens=lens,
        direction_refs=directions,
    )
    validate_batch(batch)
    return batch


def result_to_bytes(result: PackedResult) -> bytes:
    """Serialise a :class:`PackedResult` (statistics as JSON snapshot)."""
    stats_blob = json.dumps(result.stats.snapshot()).encode()
    header = _RESULT_HEADER.pack(
        result.words,
        result.compute_ns,
        len(result.table),
        len(result.answer_refs),
        len(result.answer_lens),
        len(stats_blob),
    )
    return b"".join(
        (
            header,
            result.table,
            result.answer_refs,
            result.answer_lens,
            stats_blob,
        )
    )


def _stats_from_blob(blob: bytes) -> "EnumMISStatistics":
    from repro.sgr.enum_mis import EnumMISStatistics

    try:
        raw = json.loads(blob)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireDecodeError(
            f"result statistics are not valid JSON: {exc}"
        ) from exc
    _check(isinstance(raw, dict), "result statistics must be an object")
    counters: dict = {}
    for key, value in raw.items():
        if isinstance(value, dict):
            _check(
                all(
                    isinstance(k, str) and isinstance(v, int)
                    for k, v in value.items()
                ),
                f"statistics map {key!r} must hold integer counters",
            )
            counters[str(key)] = {str(k): int(v) for k, v in value.items()}
        elif isinstance(value, int):
            counters[str(key)] = value
        else:
            raise WireDecodeError(
                f"statistics counter {key!r} must be an integer"
            )
    stats = EnumMISStatistics()
    stats.restore(counters)
    return stats


def result_from_bytes(data: bytes) -> PackedResult:
    """Rebuild a validated :class:`PackedResult` from untrusted bytes."""
    _check(
        len(data) >= _RESULT_HEADER.size,
        f"result frame of {len(data)} bytes is shorter than its header",
    )
    words, compute_ns, *lengths = _RESULT_HEADER.unpack_from(data)
    table, refs, lens, stats_blob = _split_fields(
        data, _RESULT_HEADER.size, tuple(lengths), "result frame"
    )
    _check(compute_ns >= 0, "result compute time must be non-negative")
    result = PackedResult(
        words=words,
        table=table,
        answer_refs=refs,
        answer_lens=lens,
        compute_ns=compute_ns,
        stats=_stats_from_blob(stats_blob),
    )
    validate_result(result)
    return result


# ----------------------------------------------------------------------
# Reference workload for wire-format sizing (benchmark + tests)
# ----------------------------------------------------------------------


def reference_batch(
    n: int, seed: int = 99
) -> tuple[list[tuple[int, ...]], tuple[int, ...], int]:
    """A representative pop batch over an n-vertex graph: ``(answers,
    directions, words)``.

    The shape mirrors what the coordinator actually dispatches: 16
    answers of 20 separators drawn from a shared pool of 60 (answers
    of one region overlap heavily — they are maximal pairwise-parallel
    families of the same graph) against a 40-separator V-snapshot.
    Both the payload microbenchmark and the wire-format tests size
    *this* batch, so the recorded shrink factor and the tested bound
    always measure the same workload.
    """
    import random

    rng = random.Random(seed)
    words = (n + 63) // 64
    pool = [rng.getrandbits(n) | 1 << rng.randrange(n) for __ in range(60)]
    answers = [tuple(rng.sample(pool, 20)) for __ in range(16)]
    directions = tuple(rng.sample(pool, 40))
    return answers, directions, words


def legacy_batch(
    region_mask: int,
    answers: list[tuple[int, ...]],
    directions: tuple[int, ...],
    words: int,
) -> tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The pre-packed-wire batch structure, sized as it really pickled.

    Every answer member is rebuilt as a *fresh* int object — pickle
    dedups by object identity only, and the original coordinator
    decoded each answer's masks separately, so equal masks across
    answers never shared a pickle memo entry.  The direction tuple is
    one shared object per batch, exactly as the old dispatch loop
    passed it.
    """
    return (
        region_mask,
        [
            (
                tuple(
                    int.from_bytes(m.to_bytes(words * 8, "little"), "little")
                    for m in answer
                ),
                directions,
            )
            for answer in answers
        ],
    )
