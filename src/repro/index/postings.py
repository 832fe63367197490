"""Posting records: the entries of every inverted-list flavour.

A posting ties a keyword occurrence set to one element (paper Figure 4):
the element's Dewey ID, its ElemRank, and ``posList`` — the sorted global
word positions at which the keyword occurs.  The Dewey-family indexes (DIL,
RDIL, HDIL) store postings only for elements that *directly* contain the
keyword; the naive baselines additionally store a posting for every
ancestor, with the descendants' positions merged in — precisely the
replication that inflates their space in Table 1.

The binary layout is ``dewey || float32 rank || delta-varint posList``,
measured identically across all index flavours so the Table 1 comparison is
apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import DeweyError, StorageError
from ..storage.records import FLOAT32, put_uint_list, read_uint_list
from ..xmlmodel.dewey import DeweyId, _trusted, varint_tail
from ..xmlmodel.graph import CollectionGraph


@dataclass(frozen=True)
class Posting:
    """One inverted-list entry."""

    dewey: DeweyId
    elemrank: float
    positions: Tuple[int, ...]

    def encode(self) -> bytes:
        """Serialize as dewey + float32 rank + delta posList."""
        out = bytearray(self.dewey.encode())
        out += FLOAT32.pack(self.elemrank)
        put_uint_list(out, self.positions)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "Posting":
        """Inverse of :meth:`encode`, in one pass over the record.

        A truncated or malformed Dewey ID or posList raises
        :class:`~repro.errors.DeweyError`, a truncated rank
        :class:`~repro.errors.StorageError`; trailing bytes are ignored.
        """
        try:
            count = data[0]
            pos = 1
            if count > 0x7F:
                count, pos = varint_tail(data, pos, count)
            if count == 0:
                raise DeweyError("encoded Dewey ID has zero components")
            components = []
            for _ in range(count):
                value = data[pos]
                pos += 1
                if value > 0x7F:
                    value, pos = varint_tail(data, pos, value)
                components.append(value)
            if pos + 4 > len(data):
                raise StorageError("truncated float32 field")
            elemrank = _unpack_float32(data, pos)[0]
            count = data[pos + 4]
            pos += 5
            if count > 0x7F:
                count, pos = varint_tail(data, pos, count)
            positions = []
            current = 0
            for _ in range(count):
                value = data[pos]
                pos += 1
                if value > 0x7F:
                    value, pos = varint_tail(data, pos, value)
                current += value
                positions.append(current)
        except IndexError:
            raise DeweyError("truncated varint") from None
        return cls(_trusted(tuple(components)), elemrank, tuple(positions))

    @classmethod
    def decode_payload(cls, dewey: DeweyId, payload: bytes) -> "Posting":
        """Decode a posting whose Dewey ID is stored separately (B+-trees)."""
        if len(payload) < 4:
            raise StorageError("truncated float32 field")
        positions, _ = read_uint_list(payload, 4)
        return cls(dewey, _unpack_float32(payload, 0)[0], tuple(positions))

    def encode_payload(self) -> bytes:
        """Encode rank + posList only (the Dewey ID is the B+-tree key)."""
        out = bytearray(FLOAT32.pack(self.elemrank))
        put_uint_list(out, self.positions)
        return bytes(out)


_unpack_float32 = FLOAT32.unpack_from

#: keyword -> postings sorted by Dewey ID.
PostingMap = Dict[str, List[Posting]]

#: keyword -> (dewey, positions) pairs: a posting skeleton before scores
#: are attached.  This is the unit the parallel build pipeline ships
#: between processes — it depends only on one document's content, never on
#: the global link graph, which is what makes shard outputs order
#: independent: any sharding yields the same per-document blocks.
RawPostingMap = Dict[str, List[Tuple[DeweyId, Tuple[int, ...]]]]


def extract_document_raw_postings(document) -> RawPostingMap:
    """Per-keyword (dewey, positions) skeletons for *one* document.

    Pre-order traversal visits elements in Dewey order, so each keyword's
    list comes out sorted by ID with no extra sort; keyword insertion order
    is first-occurrence order within the document.  Pure per-document
    computation: safe to run in any worker process, in any order.
    """
    raw: RawPostingMap = {}
    for element in document.iter_elements():
        by_word: Dict[str, List[int]] = {}
        for word, position in element.direct_words():
            by_word.setdefault(word, []).append(position)
        if not by_word:
            continue
        for word, positions in by_word.items():
            positions.sort()
            raw.setdefault(word, []).append((element.dewey, tuple(positions)))
    return raw


def merge_raw_postings(
    blocks: Iterable[Tuple[int, RawPostingMap]]
) -> RawPostingMap:
    """Fold ``(doc_id, skeletons)`` blocks into one map, in the order given.

    Callers pass the blocks in ascending doc-id order; concatenation in
    that order reproduces exactly what a single pass over the whole
    collection would produce (Dewey IDs of different documents never
    interleave), so any shard partition folds to the same result.  The
    fold does not sort: a mis-ordered fold must show in the built pages.
    """
    merged: RawPostingMap = {}
    for _doc_id, raw in blocks:
        for word, entries in raw.items():
            merged.setdefault(word, []).extend(entries)
    return merged


def document_blocks(
    documents: Iterable, blocks: Optional[Dict[int, RawPostingMap]] = None
) -> Iterator[Tuple[int, RawPostingMap]]:
    """``(doc_id, skeletons)`` for each document, in the order given.

    A document whose block is in ``blocks`` (the parallel build's output)
    has it popped, so the block is freed once folded; any other document
    is extracted here.  Either way each document is extracted once.
    """
    for document in documents:
        raw = blocks.pop(document.doc_id, None) if blocks else None
        if raw is None:
            raw = extract_document_raw_postings(document)
        yield document.doc_id, raw


def attach_scores(
    raw: RawPostingMap,
    elemranks: Dict[DeweyId, float],
    score_overrides=None,
) -> PostingMap:
    """Turn posting skeletons into scored postings.

    Scores need the *global* link graph (ElemRank) or corpus statistics
    (tf-idf), so this runs once after the fold — never inside a worker.
    ``score_overrides`` optionally maps ``(dewey components, keyword)`` to a
    per-keyword score (e.g. tf-idf weights); where present it replaces the
    element's ElemRank in the posting — the hook Section 4 describes for
    "other ways of ranking XML elements".
    """
    postings: PostingMap = {}
    for word, entries in raw.items():
        scored: List[Posting] = []
        for dewey, positions in entries:
            score = elemranks.get(dewey, 0.0)
            if score_overrides is not None:
                score = score_overrides.get((dewey.components, word), score)
            scored.append(Posting(dewey, score, positions))
        postings[word] = scored
    return postings


def extract_direct_postings(
    graph: CollectionGraph,
    elemranks: Dict[DeweyId, float],
    score_overrides=None,
    blocks: Optional[Dict[int, RawPostingMap]] = None,
) -> PostingMap:
    """Build per-keyword postings for elements that *directly* contain them.

    The one fold of every build: the graph's documents in ascending doc-id
    order (the first Dewey component, so each keyword's list comes out
    Dewey-sorted with no extra sort), each taking its block from
    ``blocks`` or being extracted in-process (:func:`document_blocks`),
    followed by score attachment.  Keeping one fold is what lets
    ``build(workers=k)`` promise byte-identical output for every ``k``.
    """
    return attach_scores(
        merge_raw_postings(document_blocks(graph.iter_documents(), blocks)),
        elemranks,
        score_overrides,
    )


def rank_order(postings: List[Posting]) -> List[Posting]:
    """Order postings by descending ElemRank, Dewey ID as the tiebreak."""
    return sorted(postings, key=lambda p: (-p.elemrank, p.dewey.components))
