"""Tests for the spillable run-file format (repro.storage.runfile).

The parallel build's byte-identity guarantee rests on this round-trip
being faithful: what a worker spills must come back with the same keyword
insertion order, Dewey IDs and position lists.
"""

from __future__ import annotations

import random

import pytest

from repro import errors
from repro.errors import CorruptRunError, StorageError
from repro.index.postings import extract_document_raw_postings
from repro.storage.checksum import checksum_frame
from repro.storage.runfile import (
    RunWriter,
    decode_document_block,
    encode_document_block,
    read_run,
)
from repro.xmlmodel.dewey import DeweyId, decode_varint, encode_varint
from repro.xmlmodel.parser import parse_xml


def _unframe(block: bytes) -> bytes:
    """Strip the varint length prefix and CRC trailer from a block."""
    length, offset = decode_varint(block, 0)
    body = block[offset:-4]
    assert len(body) == length
    assert checksum_frame(body) == block[-4:]
    return body


def _raw(doc_id: int):
    document = parse_xml(
        f"<doc><title>paper {doc_id}</title><body>ranked keyword search "
        f"over xml number{doc_id}</body></doc>",
        doc_id=doc_id,
        uri=f"doc{doc_id}.xml",
    )
    return extract_document_raw_postings(document)


class TestBlockCodec:
    def test_roundtrip_preserves_everything(self):
        raw = _raw(7)
        doc_id, decoded = decode_document_block(
            _unframe(encode_document_block(7, raw))
        )
        assert doc_id == 7
        assert list(decoded) == list(raw)  # keyword insertion order
        for keyword in raw:
            assert decoded[keyword] == raw[keyword]

    def test_empty_postings_roundtrip(self):
        doc_id, decoded = decode_document_block(
            _unframe(encode_document_block(3, {}))
        )
        assert (doc_id, decoded) == (3, {})

    def test_trailing_bytes_rejected(self):
        raw = {"word": [(DeweyId((0, 1)), (0, 2))]}
        body = _unframe(encode_document_block(1, raw))
        with pytest.raises(StorageError):
            decode_document_block(body + b"\x00")


    def test_random_bodies_raise_only_typed_errors(self):
        """A body that passed its CRC but is garbage (a collision, a
        hand-made file) fails with a ``repro.errors`` class — a keyword
        that is not UTF-8 included."""
        rng = random.Random(1)
        for _ in range(20_000):
            body = bytes(rng.randrange(256) for _ in range(rng.randint(1, 40)))
            try:
                decode_document_block(body)
            except Exception as exc:  # noqa: BLE001 - the type is the test
                assert type(exc).__module__ == errors.__name__, repr(exc)


class TestRunFiles:
    def test_writer_reader_roundtrip(self, tmp_path):
        path = tmp_path / "shard.run"
        raws = {doc_id: _raw(doc_id) for doc_id in (0, 1, 2)}
        with RunWriter(path) as writer:
            for doc_id in sorted(raws):
                writer.append(doc_id, raws[doc_id])
        assert writer.documents == 3
        assert writer.bytes_written == path.stat().st_size

        replayed = read_run(path)
        assert [doc_id for doc_id, _ in replayed] == [0, 1, 2]
        for doc_id, decoded in replayed:
            assert list(decoded) == list(raws[doc_id])
            assert decoded == raws[doc_id]

    def test_append_after_close_raises(self, tmp_path):
        writer = RunWriter(tmp_path / "x.run")
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(StorageError):
            writer.append(0, {})

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "shard.run"
        with RunWriter(path) as writer:
            writer.append(0, _raw(0))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CorruptRunError):
            read_run(path)

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "shard.run"
        with RunWriter(path) as writer:
            writer.append(0, _raw(0))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptRunError):
            read_run(path)

    def test_missing_trailer_detected(self, tmp_path):
        path = tmp_path / "shard.run"
        with RunWriter(path) as writer:
            writer.append(0, _raw(0))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(CorruptRunError):
            read_run(path)

    def test_bad_length_prefix_detected(self, tmp_path):
        path = tmp_path / "shard.run"
        with RunWriter(path) as writer:
            writer.append(0, _raw(0))
            writer.append(1, _raw(1))
        data = path.read_bytes()
        length, body_start = decode_varint(data, 0)
        # Too long, too short, and a varint that runs off the file's end.
        for prefix in (
            encode_varint(length + 100_000),
            encode_varint(length - 1),
        ):
            path.write_bytes(prefix + data[body_start:])
            with pytest.raises(CorruptRunError):
                read_run(path)
        path.write_bytes(b"\xff\xff")
        with pytest.raises(CorruptRunError):
            read_run(path)
