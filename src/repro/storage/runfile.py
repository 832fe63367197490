"""Spillable partial-posting run files for the parallel build (repro.build).

A worker that has extracted posting skeletons for its shard can return
them through the result pipe or *spill* them to a run file and ship only
the file path back to the parent, which reads the file once with
:func:`read_run`: that one pass checks every block and decodes it.
Spilling keeps the skeletons out of the pipe; it does not bound memory,
since the worker still returns its parsed documents and the parent reads
every block back before the fold.

Format: a run file is a sequence of **document blocks**, written in
ascending doc-id order (the order the worker processed its shard).  Each
block is length-prefixed and carries a CRC32C trailer, so corruption (a
crashed worker's half-written tail, injected bit flips) is detected when
the run is read — as :class:`~repro.errors.CorruptRunError` — rather than
silently folded into the index:

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
from typing import IO, List, Optional, Tuple

from ..errors import CorruptRunError, DeweyError, StorageError
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
    """Inverse of :func:`encode_document_block` (body without the frame).

    Malformed bodies raise :class:`~repro.errors.StorageError` (or the
    varint codec's :class:`~repro.errors.DeweyError`), never a bare
    decoding error.
    """
    reader = RecordReader(body)
    doc_id = reader.uint()
    num_keywords = reader.uint()
    raw = {}
    for _ in range(num_keywords):
        try:
            keyword = reader.bytes_field().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageError(f"run-file keyword is not UTF-8: {exc}") from None
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


def read_run(path) -> List[Tuple[int, dict]]:
    """Read one run file, check every block and decode it, in one pass.

    Returns ``(doc_id, raw postings)`` per block in file order.  The file
    is read with one ``read_bytes``; each block's CRC32C is checked right
    before its body is decoded, so reading a run is checking it.  Every
    framing failure — a bad length prefix, a short body, a missing
    trailer, a checksum mismatch — raises :class:`CorruptRunError`.
    """
    data = Path(path).read_bytes()
    blocks = []
    offset = 0
    while offset < len(data):
        try:
            length, start = decode_varint(data, offset)
        except DeweyError as exc:
            raise CorruptRunError(
                f"bad block length prefix in {path}: {exc}"
            ) from exc
        end = start + length
        trailer = data[end:end + _CRC_BYTES]
        if len(trailer) != _CRC_BYTES:
            raise CorruptRunError(f"run file {path} was truncated mid-block")
        body = data[start:end]
        if checksum_frame(body) != trailer:
            raise CorruptRunError(
                f"checksum mismatch in run-file block of {path}:"
                " block is torn or bit-rotted"
            )
        blocks.append(decode_document_block(body))
        offset = end + _CRC_BYTES
    return blocks
