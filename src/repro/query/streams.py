"""Decoded posting streams over on-disk inverted lists.

The merge algorithms consume postings through a peek/next interface.  This
module is where a stored list becomes that stream: the one decode site
(:func:`decode_cursor`), the cache-aware opener (:func:`open_stream`), and
:class:`PostingStream` itself, which filters tombstoned documents
(document-granularity deletes, Section 4.5) and stands in, empty, for
keywords missing from the index (a conjunctive query with an unindexed
keyword simply has an exhausted stream).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Set

from ..errors import QueryError
from ..index.postings import Posting
from ..obs.profile import active_profile
from ..storage.listfile import ListCursor


def decode_cursor(cursor: Optional[ListCursor]) -> Iterator[Posting]:
    """Decode a list cursor's records, lazily, in list order.

    The only place list records become :class:`Posting` values, so the only
    place they are counted into ``postings_decoded`` — whether the consumer
    is a query's stream or the posting-list cache's loader.
    """
    if cursor is None:
        return
    profile = active_profile()
    while not cursor.eof:
        if profile is not None:
            profile.postings_decoded += 1
        yield Posting.decode(cursor.next())


class PostingStream:
    """Peekable stream of the live :class:`Posting` values of one list."""

    def __init__(
        self,
        postings: Optional[Iterable[Posting]],
        deleted_docs: Optional[Set[int]] = None,
    ):
        self._iterator: Iterator[Posting] = iter(postings or ())
        self._deleted = deleted_docs or set()
        self._head: Optional[Posting] = None
        # The active profile is captured once at construction (streams
        # are built inside the profiled query) so the per-posting cost
        # of profiling-off is a single None check.
        self._profile = active_profile()
        self._advance()

    @classmethod
    def from_cursor(
        cls, cursor: Optional[ListCursor], deleted_docs: Optional[Set[int]] = None
    ) -> "PostingStream":
        """Stream a stored list (None: the keyword has no list)."""
        return cls(decode_cursor(cursor), deleted_docs)

    @classmethod
    def from_decoded(
        cls,
        postings: Iterable[Posting],
        deleted_docs: Optional[Set[int]] = None,
    ) -> "PostingStream":
        """The constructor under the name external callers use."""
        return cls(postings, deleted_docs)

    def _advance(self) -> None:
        profile = self._profile
        for posting in self._iterator:
            if profile is not None:
                profile.postings_scanned += 1
            if posting.dewey.doc_id in self._deleted:
                continue
            self._head = posting
            return
        self._head = None

    @property
    def eof(self) -> bool:
        return self._head is None

    def peek(self) -> Posting:
        """Head posting without consuming it."""
        if self._head is None:
            raise QueryError("peek past end of posting stream")
        return self._head

    def next(self) -> Posting:
        """Consume and return the head posting."""
        posting = self.peek()
        self._advance()
        return posting


def open_stream(
    index,
    which: str,
    open_cursor: Callable[[str], Optional[ListCursor]],
    keyword: str,
    cache=None,
) -> PostingStream:
    """One keyword's list as a stream, through the posting-list cache if any.

    ``which`` names the list within the index ("full" / "ranked") for the
    cache key; ``cache`` is the serving layer's
    :class:`repro.service.cache.GenerationalLRU` of decoded lists.  A cached
    list is decoded once and every later query iterates the shared
    ``Posting`` objects; tombstones are still filtered per stream, so deletes
    that post-date the cached decode are honoured.

    The loader is deliberately deadline-free: a partially drained list must
    never land in the generational cache (later queries would silently see a
    truncated index), so it runs to completion and the *consumer* of the
    stream polls the deadline instead.
    """
    if cache is None:
        return PostingStream.from_cursor(open_cursor(keyword), index.deleted_docs)
    # The cache's own counters are cumulative across every query and thread;
    # this query's hit or miss is whether its loader actually ran.
    loaded = []

    def load() -> List[Posting]:
        loaded.append(True)
        return list(decode_cursor(open_cursor(keyword)))

    postings = cache.get_or_load((index.kind, which, keyword), load)
    profile = active_profile()
    if profile is not None:
        if loaded:
            profile.list_cache_misses += 1
        else:
            profile.list_cache_hits += 1
    return PostingStream(postings, index.deleted_docs)


def smallest_head_index(
    streams: List[PostingStream], profile=None
) -> Optional[int]:
    """Index of the live stream whose head has the smallest Dewey ID.

    ``profile`` is the caller's already-captured
    :class:`~repro.obs.profile.QueryProfile` (or None): the merge loop
    calls this once per output posting, so the thread-local lookup is
    hoisted to the caller rather than paid here.
    """
    best: Optional[int] = None
    comparisons = 0
    for i, stream in enumerate(streams):
        if stream.eof:
            continue
        if best is None:
            best = i
            continue
        comparisons += 1
        if stream.peek().dewey < streams[best].peek().dewey:
            best = i
    if profile is not None:
        profile.dewey_comparisons += comparisons
    return best
