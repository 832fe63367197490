"""Deterministic k-way merge of shard outputs into one posting map.

Each shard yields a stream of ``(doc_id, raw postings)`` blocks in
ascending doc-id order — from memory, or from a spilled run file when the
build spills.  Shards partition the document space, so a heap over the
head block of every stream enumerates the whole corpus in ascending doc-id
order; folding the blocks in that order reproduces, key for key and entry
for entry, what one sequential pass over the collection produces.

The fold is :func:`~repro.index.postings.merge_raw_postings`, the one the
sequential build uses: list concatenation per keyword, first-occurrence
keyword order, in the order the heap yields.  That order is a pure
function of the doc-id partition, so the merged map — and everything
bulk-loaded from it — is byte-identical no matter how many shards or which
worker finished first.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Tuple

from ..index.postings import RawPostingMap, merge_raw_postings
from ..storage.runfile import RunReader
from .worker import ShardResult


def shard_block_stream(result: ShardResult) -> Iterator[Tuple[int, RawPostingMap]]:
    """One shard's (doc_id, raw postings) blocks, ascending by doc id."""
    if result.run_path is not None:
        return iter(RunReader(result.run_path))
    return iter(result.raw_postings)


def merge_block_streams(
    streams: Iterable[Iterator[Tuple[int, RawPostingMap]]]
) -> Iterator[Tuple[int, RawPostingMap]]:
    """Heap-merge per-shard block streams into global ascending doc order."""
    iterators = list(streams)
    heap = []
    for index, iterator in enumerate(iterators):
        head = next(iterator, None)
        if head is not None:
            heap.append((head[0], index, head[1]))
    heapq.heapify(heap)
    while heap:
        doc_id, index, raw = heapq.heappop(heap)
        yield doc_id, raw
        head = next(iterators[index], None)
        if head is not None:
            heapq.heappush(heap, (head[0], index, head[1]))


def merge_shard_results(results: List[ShardResult]) -> RawPostingMap:
    """The full deterministic merge: streams → global order → one map."""
    ordered = sorted(results, key=lambda result: result.shard_id)
    return merge_raw_postings(
        merge_block_streams(shard_block_stream(result) for result in ordered)
    )
