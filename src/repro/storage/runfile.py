"""Spillable partial-posting run files for the parallel build (repro.build).

A worker that has extracted posting skeletons for its shard can return
them through the result pipe or *spill* them to a run file and ship only
the file path back to the parent, which checksum-scans the file before
it reads the blocks back.  Spilling keeps the skeletons out of the pipe;
it does not bound memory, since the worker still returns its parsed
documents and the parent reads every block back before the fold.

Format: a run file is a sequence of **document blocks**, written in
ascending doc-id order (the order the worker processed its shard).  Each
block is length-prefixed so a reader streams one block at a time without
loading the file, and carries a CRC32C trailer so corruption (a crashed
worker's half-written tail, injected bit flips) is detected when the run
is read rather than silently folded into the index:

    block  := varint(byte_length) || body || crc32c(body)   [4 bytes LE]
    body   := varint(doc_id) || varint(num_keywords) || keyword_entry*
    keyword_entry := bytes_field(utf8 keyword) || varint(num_postings)
                     || (dewey || uint_list(positions))*

Keyword entries preserve the worker's first-occurrence order and postings
preserve Dewey order, so a block read back equals the block the document's
in-process extraction yields — the byte-identity guarantee of the parallel
build rests on this round-trip being faithful.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterator, Optional, Tuple

from ..errors import CorruptRunError, StorageError
from ..xmlmodel.dewey import decode_varint, encode_varint
from .checksum import checksum_frame
from .records import RecordReader, RecordWriter

#: Bytes of the CRC32C trailer after each block body.
_CRC_BYTES = 4


def encode_document_block(doc_id: int, raw) -> bytes:
    """Serialize one document's raw postings as a framed block."""
    writer = RecordWriter()
    writer.uint(doc_id)
    writer.uint(len(raw))
    for keyword, entries in raw.items():
        writer.bytes_field(keyword.encode("utf-8"))
        writer.uint(len(entries))
        for dewey, positions in entries:
            writer.dewey(dewey)
            writer.uint_list(list(positions))
    body = writer.getvalue()
    return encode_varint(len(body)) + body + checksum_frame(body)


def decode_document_block(body: bytes):
    """Inverse of :func:`encode_document_block` (body without the frame)."""
    reader = RecordReader(body)
    doc_id = reader.uint()
    num_keywords = reader.uint()
    raw = {}
    for _ in range(num_keywords):
        keyword = reader.bytes_field().decode("utf-8")
        count = reader.uint()
        entries = []
        for _ in range(count):
            dewey = reader.dewey()
            positions = tuple(reader.uint_list())
            entries.append((dewey, positions))
        raw[keyword] = entries
    if not reader.exhausted:
        raise StorageError("trailing bytes after run-file document block")
    return doc_id, raw


class RunWriter:
    """Append-only writer of document blocks to one run file."""

    def __init__(self, path):
        self.path = Path(path)
        self._handle: Optional[IO[bytes]] = self.path.open("wb")
        self.documents = 0
        self.bytes_written = 0

    def append(self, doc_id: int, raw) -> None:
        """Append one document's raw postings."""
        if self._handle is None:
            raise StorageError(f"run file {self.path} already closed")
        block = encode_document_block(doc_id, raw)
        self._handle.write(block)
        self.documents += 1
        self.bytes_written += len(block)

    def close(self) -> None:
        """Flush and close the run file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class RunReader:
    """Streams document blocks from a run file, one block in memory at a time."""

    def __init__(self, path):
        self.path = Path(path)

    def __iter__(self) -> Iterator[Tuple[int, dict]]:
        with self.path.open("rb") as handle:
            while True:
                length = _read_varint(handle)
                if length is None:
                    return
                body = handle.read(length)
                if len(body) != length:
                    raise StorageError(
                        f"truncated run-file block in {self.path}"
                    )
                trailer = handle.read(_CRC_BYTES)
                if len(trailer) != _CRC_BYTES:
                    raise CorruptRunError(
                        f"missing checksum trailer in {self.path}: "
                        "run file was truncated mid-block"
                    )
                if checksum_frame(body) != trailer:
                    raise CorruptRunError(
                        f"checksum mismatch in run-file block of {self.path}:"
                        " block is torn or bit-rotted"
                    )
                yield decode_document_block(body)


def _read_varint(handle) -> Optional[int]:
    """Read one LEB128 varint from a binary stream; None at clean EOF."""
    first = handle.read(1)
    if not first:
        return None
    buffer = bytearray(first)
    while buffer[-1] & 0x80:
        nxt = handle.read(1)
        if not nxt:
            raise StorageError("truncated varint in run file")
        buffer += nxt
    value, _offset = decode_varint(bytes(buffer), 0)
    return value


def verify_run(path) -> int:
    """Full-scan validation of one run file; returns its document count.

    Decodes every block (checksums verified by :class:`RunReader`), so any
    torn tail or bit flip surfaces as :class:`CorruptRunError` *before* the
    build reads the run's blocks — the gate the parallel build uses to
    decide whether a shard must be retried.
    """
    count = 0
    for _doc_id, _raw in RunReader(path):
        count += 1
    return count

