"""Packed wire format for sharded task batches and their results.

A task batch is a list of candidate families (separator masks) to
extend, and its result one extended answer per family.  A separator
mask over an n-vertex graph is an ~n-bit integer, so shipping each
*reference* to a separator as its own pickled int would cost ~n/8
bytes, even though a batch references the same few separators over
and over (the families of one region overlap heavily).

This codec replaces that with two ideas:

* **per-batch interning** — every *distinct* mask in a batch is stored
  exactly once, packed into one contiguous little-endian ``uint64``
  buffer (:func:`repro.graph.bitset_np.pack_masks` layout); families
  then reference masks by dense ``uint32`` index.  A repeated
  separator costs 4 bytes instead of ~n/8 — at n = 2000 that is a 64×
  saving per repeat, and overlap between families is the norm, not
  the exception;
* **flat buffers** — the table, the reference stream and the per-family
  lengths are plain ``bytes``, so a batch pickles as a handful of
  fixed-cost byte strings however many separators it mentions.

Decoding interns in the opposite direction: the table's rows are
converted to int masks once (:func:`repro.graph.bitset_np.unpack_rows`)
and families are rebuilt by indexing, so a worker also pays the big-int
reconstruction once per distinct mask rather than once per reference.

Both directions of the protocol use the same layout:
:class:`PackedBatch` carries candidate families coordinator → worker,
:class:`PackedResult` carries extended answers worker → coordinator,
together with the worker's stage-timer statistics delta and its batch
compute time (the coordinator subtracts the latter from the observed
round-trip to meter pure IPC time).

The tuple form — ``(region_mask, [family_masks, ...])`` — remains the
in-process representation used by the inline runner (nothing is
pickled there, so interning would be pure overhead); every batch that
leaves the process is packed.

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
    #: ``uint32`` indices into the table, all families concatenated.
    family_refs: bytes
    #: ``uint32`` member count per family (one entry per Extend).
    family_lens: bytes

    @property
    def nbytes(self) -> int:
        """Wire size of the mask payload (the pickle adds ~100 bytes)."""
        return len(self.table) + len(self.family_refs) + len(self.family_lens)


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


def _encode_mask_lists(
    families: Iterable[tuple[int, ...]], interner: _MaskInterner
) -> tuple[bytes, bytes]:
    refs: list[int] = []
    lens: list[int] = []
    intern = interner.intern
    for family in families:
        lens.append(len(family))
        refs.extend(intern(mask) for mask in family)
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


def _decode_mask_lists(
    table: list[int], refs_bytes: bytes, lens_bytes: bytes
) -> list[tuple[int, ...]]:
    refs = np.frombuffer(refs_bytes, dtype=_REF_DTYPE).tolist()
    families: list[tuple[int, ...]] = []
    cursor = 0
    for length in np.frombuffer(lens_bytes, dtype=_REF_DTYPE).tolist():
        families.append(
            tuple(table[ref] for ref in refs[cursor : cursor + length])
        )
        cursor += length
    return families


def encode_batch(
    region_mask: int,
    families: list[tuple[int, ...]],
    words: int,
) -> PackedBatch:
    """Pack a task batch: the candidate families to extend."""
    interner = _MaskInterner()
    family_refs, family_lens = _encode_mask_lists(families, interner)
    return PackedBatch(
        region_mask=region_mask,
        words=words,
        table=_pack_table(interner, words),
        family_refs=family_refs,
        family_lens=family_lens,
    )


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise WireDecodeError(message)


def _validate_refs(refs: bytes, lens: bytes, rows: int, what: str) -> None:
    """All invariants that make indexing into the mask table safe."""
    _check(
        len(refs) % _REF_DTYPE.itemsize == 0,
        f"{what} reference stream is not a whole number of uint32 words",
    )
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
    _validate_refs(batch.family_refs, batch.family_lens, rows, "family")


def validate_result(result: PackedResult) -> None:
    """Raise :class:`WireDecodeError` unless ``result`` decodes safely."""
    rows = _validate_table(result.table, result.words)
    _validate_refs(result.answer_refs, result.answer_lens, rows, "answer")


def decode_batch(batch: PackedBatch) -> tuple[int, list[tuple[int, ...]]]:
    """Invert :func:`encode_batch`: ``(region_mask, families)``.

    Validates the batch first, so malformed input raises
    :class:`WireDecodeError` rather than an arbitrary numpy/indexing
    error from half-way through decoding.
    """
    validate_batch(batch)
    table = _decode_table(batch.table, batch.words)
    families = _decode_mask_lists(
        table, batch.family_refs, batch.family_lens
    )
    return batch.region_mask, families


def encode_result(
    answers: list[tuple[int, ...]],
    words: int,
    compute_ns: int,
    stats: "EnumMISStatistics",
) -> PackedResult:
    """Pack a batch's extended answers for the trip back."""
    interner = _MaskInterner()
    answer_refs, answer_lens = _encode_mask_lists(answers, interner)
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
    return _decode_mask_lists(
        table, result.answer_refs, result.answer_lens
    )


# ----------------------------------------------------------------------
# Flat byte serialisation (the socket transport's message bodies)
# ----------------------------------------------------------------------

_BATCH_HEADER = struct.Struct("!IIIII")
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
        len(batch.family_refs),
        len(batch.family_lens),
    )
    return b"".join(
        (header, region, batch.table, batch.family_refs, batch.family_lens)
    )


def batch_from_bytes(data: bytes) -> PackedBatch:
    """Rebuild a validated :class:`PackedBatch` from untrusted bytes."""
    _check(
        len(data) >= _BATCH_HEADER.size,
        f"batch frame of {len(data)} bytes is shorter than its header",
    )
    words, *lengths = _BATCH_HEADER.unpack_from(data)
    region, table, refs, lens = _split_fields(
        data, _BATCH_HEADER.size, tuple(lengths), "batch frame"
    )
    batch = PackedBatch(
        region_mask=int.from_bytes(region, "little"),
        words=words,
        table=table,
        family_refs=refs,
        family_lens=lens,
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

