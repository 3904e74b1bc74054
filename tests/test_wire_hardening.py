"""Wire-format hardening: untrusted bytes must fail typed, never crash.

The distributed runner feeds :mod:`repro.engine.wire` bytes straight
off a TCP socket, so every decoder must treat its input as hostile:
truncation, bit flips, and adversarial length words raise
:class:`WireDecodeError` (a :class:`repro.engine.EngineError`), never
IndexError/ValueError surprises or multi-gigabyte allocations.  The
graph frame of :mod:`repro.engine.distributed.protocol`, which a socket
worker rebuilds its graph from, is held to the same rule.
"""

from __future__ import annotations

import json
import random
import struct

import pytest

np = pytest.importorskip("numpy")

from repro.engine.base import EngineError
from repro.engine.distributed.protocol import (
    decode_graph_payload,
    encode_graph_payload,
)
from repro.engine.pool import GraphPayload, WorkerState, make_payload
from repro.engine.wire import (
    MAX_WIRE_FIELD_BYTES,
    PackedBatch,
    PackedResult,
    WireDecodeError,
    batch_from_bytes,
    batch_to_bytes,
    decode_batch,
    decode_result,
    encode_batch,
    encode_result,
    result_from_bytes,
    result_to_bytes,
    validate_batch,
    validate_result,
)
from repro.graph.generators import gnp_random_graph
from repro.sgr.enum_mis import EnumMISStatistics


def _random_answers(rng: random.Random, words: int, count: int):
    limit = (1 << (64 * words)) - 1
    return [
        tuple(
            rng.randint(0, limit)
            for _ in range(rng.randint(0, 4))
        )
        for _ in range(count)
    ]


def _random_batch(rng: random.Random) -> PackedBatch:
    words = rng.randint(1, 3)
    families = _random_answers(rng, words, rng.randint(0, 6))
    return encode_batch(rng.randint(0, (1 << 64) - 1), families, words)


def _random_result(rng: random.Random) -> PackedResult:
    words = rng.randint(1, 3)
    stats = EnumMISStatistics()
    stats.answers_extended = rng.randint(0, 100)
    stats.kernel_tiers["numpy"] = 1
    return encode_result(
        _random_answers(rng, words, rng.randint(0, 6)),
        words,
        rng.randint(0, 10**12),
        stats,
    )


class TestRoundTrip:
    def test_batch_bytes_round_trip_property(self):
        rng = random.Random(0xB17)
        for _ in range(50):
            batch = _random_batch(rng)
            again = batch_from_bytes(batch_to_bytes(batch))
            assert again == batch
            assert decode_batch(again) == decode_batch(batch)

    def test_result_bytes_round_trip_property(self):
        rng = random.Random(0x5EED)
        for _ in range(50):
            result = _random_result(rng)
            again = result_from_bytes(result_to_bytes(result))
            assert again.words == result.words
            assert again.table == result.table
            assert again.answer_refs == result.answer_refs
            assert again.answer_lens == result.answer_lens
            assert again.compute_ns == result.compute_ns
            assert decode_result(again) == decode_result(result)

    def test_result_stats_round_trip(self):
        stats = EnumMISStatistics()
        stats.candidates_covered = 7
        stats.kernel_tiers["numpy"] = 3
        stats.kernel_tiers["native"] = 2
        result = encode_result([(1,)], 1, 42, stats)
        again = result_from_bytes(result_to_bytes(result))
        assert again.stats.snapshot() == stats.snapshot()

    def test_empty_batch_round_trips(self):
        batch = encode_batch(0, [], 1)
        assert batch_from_bytes(batch_to_bytes(batch)) == batch


class TestTruncationFuzz:
    """Every proper prefix and many random corruptions decode safely."""

    def test_batch_prefixes_raise_typed(self):
        data = batch_to_bytes(_random_batch(random.Random(1)))
        for cut in range(len(data)):
            with pytest.raises(WireDecodeError):
                batch_from_bytes(data[:cut])

    def test_result_prefixes_raise_typed(self):
        data = result_to_bytes(_random_result(random.Random(2)))
        for cut in range(len(data)):
            with pytest.raises(WireDecodeError):
                result_from_bytes(data[:cut])

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_random_corruption_never_escapes(self, seed):
        rng = random.Random(seed)
        base = batch_to_bytes(_random_batch(rng))
        for _ in range(300):
            data = bytearray(base)
            for _ in range(rng.randint(1, 8)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            try:
                batch = batch_from_bytes(bytes(data))
                decode_batch(batch)  # decoding a valid-shaped batch is fine
            except WireDecodeError:
                pass  # the only acceptable failure mode

    def test_random_bytes_never_escape(self):
        rng = random.Random(6)
        for size in (0, 1, 7, 24, 25, 100, 4096):
            for _ in range(50):
                blob = bytes(rng.randrange(256) for _ in range(size))
                for decoder in (batch_from_bytes, result_from_bytes):
                    try:
                        decoder(blob)
                    except WireDecodeError:
                        pass


class TestAdversarialLengths:
    """A corrupt length word must not provoke a giant allocation."""

    def test_oversized_field_length_rejected(self):
        import struct

        huge = MAX_WIRE_FIELD_BYTES + 1
        header = struct.pack("!IIIII", 1, 8, huge, 0, 0)
        with pytest.raises(WireDecodeError, match="exceeds"):
            batch_from_bytes(header + b"\x00" * 64)

    def test_sum_overflowing_lengths_rejected(self):
        import struct

        # Each field under the cap, sum far beyond the actual payload.
        header = struct.pack(
            "!IIIII", 1, 8, MAX_WIRE_FIELD_BYTES, MAX_WIRE_FIELD_BYTES, 0
        )
        with pytest.raises(WireDecodeError):
            batch_from_bytes(header + b"\x00" * 128)


class TestValidation:
    def test_out_of_range_ref_rejected(self):
        batch = encode_batch(3, [(1, 2)], 1)
        bad = batch._replace(
            family_refs=np.asarray([99], dtype="<u4").tobytes()
        )
        with pytest.raises(WireDecodeError, match="ref"):
            decode_batch(bad)

    def test_misaligned_refs_rejected(self):
        batch = encode_batch(3, [(1, 2)], 1)
        bad = batch._replace(family_refs=batch.family_refs + b"\x01")
        with pytest.raises(WireDecodeError):
            decode_batch(bad)

    def test_lens_sum_mismatch_rejected(self):
        batch = encode_batch(3, [(1, 2)], 1)
        bad = batch._replace(
            family_lens=np.asarray([3], dtype="<u4").tobytes()
        )
        with pytest.raises(WireDecodeError):
            decode_batch(bad)

    def test_misaligned_table_rejected(self):
        batch = encode_batch(3, [(1, 2)], 1)
        bad = batch._replace(table=batch.table + b"\x00")
        with pytest.raises(WireDecodeError):
            validate_batch(bad)

    def test_zero_words_rejected(self):
        batch = encode_batch(3, [(1, 2)], 1)
        with pytest.raises(WireDecodeError, match="words"):
            validate_batch(batch._replace(words=0))

    def test_result_validation_mirrors_batch(self):
        result = encode_result([(1, 2)], 1, 0, EnumMISStatistics())
        bad = result._replace(
            answer_refs=np.asarray([7], dtype="<u4").tobytes()
        )
        with pytest.raises(WireDecodeError):
            validate_result(bad)

    def test_bad_stats_blob_rejected(self):
        result = encode_result([(1,)], 1, 0, EnumMISStatistics())
        data = bytearray(result_to_bytes(result))
        # Stats JSON is the trailing field; corrupt its first byte.
        data[-1] ^= 0xFF
        with pytest.raises(WireDecodeError):
            result_from_bytes(bytes(data))

    def test_wire_error_is_engine_error(self):
        assert issubclass(WireDecodeError, EngineError)



class TestGraphFrame:
    """The graph frame a socket worker rebuilds its graph from."""

    GRAPH = gnp_random_graph(10, 0.4, seed=1)

    def _frame(self) -> tuple[GraphPayload, bytes]:
        payload = make_payload(self.GRAPH, "mcs_m")
        return payload, encode_graph_payload(payload)

    @staticmethod
    def _reframe(frame: bytes, packed: bytes | None = None, **fields) -> bytes:
        """Re-encode ``frame`` with header ``fields`` and/or ``packed``."""
        (length,) = struct.unpack_from("!I", frame)
        header = json.loads(frame[4 : 4 + length])
        header.update(fields)
        body = json.dumps(header, separators=(",", ":")).encode()
        if packed is None:
            packed = frame[4 + length :]
        return struct.pack("!I", len(body)) + body + packed

    def test_round_trip(self):
        payload, frame = self._frame()
        assert decode_graph_payload(frame) == payload
        rebuilt = WorkerState(decode_graph_payload(frame)).graph
        assert rebuilt.core.adj == self.GRAPH.core.adj
        assert set(rebuilt.edge_set()) == set(self.GRAPH.edge_set())

    def test_alive_bits_beyond_rows_rejected(self):
        # Accepted, this frame would build a worker whose first batch
        # indexes past the adjacency rows.
        payload, frame = self._frame()
        bad = self._reframe(frame, alive=payload.alive | 1 << 13)
        with pytest.raises(WireDecodeError, match="alive"):
            decode_graph_payload(bad)

    def test_truncated_header_rejected(self):
        __, frame = self._frame()
        for cut in (0, 3, 4, 20):
            with pytest.raises(WireDecodeError):
                decode_graph_payload(frame[:cut])

    def test_labels_rows_mismatch_rejected(self):
        payload, frame = self._frame()
        bad = self._reframe(frame, rows=payload.rows + 1)
        with pytest.raises(WireDecodeError, match="labels"):
            decode_graph_payload(bad)

    def test_packed_length_mismatch_rejected(self):
        payload, frame = self._frame()
        for packed in (payload.packed[:-8], payload.packed + bytes(8)):
            with pytest.raises(WireDecodeError, match="packed adjacency"):
                decode_graph_payload(self._reframe(frame, packed=packed))
