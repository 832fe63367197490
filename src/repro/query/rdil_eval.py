"""RDIL query processing (paper Section 4.3.2, Figure 7).

Round-robin over the query keywords' rank-ordered inverted lists; for each
entry read, a chain of B+-tree probes computes the *longest common prefix*
of its Dewey ID that contains every query keyword — the deepest candidate
ancestor along that branch.  The candidate is then *qualified* with B+-tree
subtree range scans plus the same Dewey-stack merge DIL uses, which ignores
the posLists and ranks of sub-elements that already contain all keywords
(Figure 7 line 20) and so enforces the Section 2.2 result semantics.

Termination follows the Threshold Algorithm [Fagin et al., PODS 2001]: the
threshold is the sum of the ElemRanks at the current scan position of every
list.  Decay and proximity are bounded by 1, so the threshold *overestimates*
the rank of any unseen result; once the heap holds m results at or above the
threshold, the top-m is provably final.

The loop is factored as :class:`RankedProbeLoop` so HDIL can drive the same
machinery over its truncated rank-ordered heads with a progress monitor
attached (Section 4.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..config import RankingParams
from ..errors import QueryError
from ..index.postings import Posting
from ..index.rdil import RDILIndex
from ..obs.profile import active_profile
from ..storage.btree import BTree
from ..xmlmodel.dewey import DeweyId, _trusted
from .merge import conjunctive_merge, single_keyword_top_m
from .results import Accept, QueryResult, ResultHeap, validate_query
from .streams import PostingStream

#: Turns a B+-tree (key, payload) pair into a Posting.  RDIL trees store the
#: payload without the key; HDIL's external leaves store full records.
TreeEntryDecoder = Callable[[DeweyId, bytes], Posting]


@dataclass
class ProbeLoopState:
    """Progress snapshot handed to the HDIL monitor after every step."""

    entries_read: int = 0
    probes: int = 0
    threshold: float = float("inf")
    results_above_threshold: int = 0
    heap: Optional[ResultHeap] = None


class RankedProbeLoop:
    """The Figure 7 loop over arbitrary ranked streams + Dewey B+-trees."""

    def __init__(
        self,
        streams: List[PostingStream],
        btrees: List[BTree],
        entry_decoder: TreeEntryDecoder,
        params: RankingParams,
        deleted_docs: Set[int],
        truncated_streams: bool = False,
        weights: Optional[List[float]] = None,
    ):
        if len(streams) != len(btrees):
            raise QueryError("one B+-tree per keyword stream is required")
        if weights is not None and len(weights) != len(streams):
            raise QueryError("one weight per keyword stream is required")
        self.streams = streams
        self.btrees = btrees
        self.entry_decoder = entry_decoder
        self.params = params
        self.deleted_docs = deleted_docs
        self.n = len(streams)
        self.weights = list(weights) if weights is not None else [1.0] * self.n
        # When a stream is a truncated rank-ordered *head* (HDIL), entries
        # beyond its end still exist in the full list; their ElemRank is
        # bounded by the last head entry, so the threshold term floors at
        # that value instead of dropping to zero on exhaustion.
        self.truncated_streams = truncated_streams
        # ElemRank at the current scan position of each list (TA threshold).
        self.current_ranks = [
            (stream.peek().elemrank if not stream.eof else 0.0)
            for stream in streams
        ]
        self.state = ProbeLoopState()
        self._processed: Set[Tuple[int, ...]] = set()
        # Captured once: the loop is constructed inside the profiled
        # query, so per-entry/per-probe accounting is one None check.
        self._profile = active_profile()

    def run(
        self,
        m: int,
        monitor: Optional[Callable[[ProbeLoopState], bool]] = None,
        exhaustion_is_complete: bool = True,
        deadline=None,
        accept: Accept = None,
    ) -> Tuple[List[QueryResult], bool]:
        """Run to TA-completion, stream exhaustion, or monitor abort.

        Returns ``(results, completed)`` — ``completed`` is False when the
        monitor aborted or the (truncated) streams ran dry before the TA
        stop condition held, meaning the caller must fall back to DIL.

        ``deadline`` is an optional ``poll() -> bool`` object checked once
        per loop step.  Expiry reports ``completed=True`` even though the
        top-m is only partial: the caller must *not* fall back to a full
        DIL scan (that would blow the budget further) but return what was
        found, flagged degraded via the deadline's ``expired`` state.

        ``accept`` gates the heap, so the TA stop rule holds m *accepted*
        results against the threshold and the top-m stays exact.
        """
        heap = ResultHeap(m, accept)
        self.state.heap = heap
        streams = self.streams
        robin = 0
        while True:
            if deadline is not None and deadline.poll():
                return heap.results(), True
            threshold = self._threshold()
            self.state.threshold = threshold
            if heap.full and heap.kth_rank() >= threshold:
                return heap.results(), True
            source = self._next_live_stream(robin)
            if source is None:
                # Every stream is exhausted.  Full lists have shown every
                # entry; truncated heads leave the rest to the caller.
                if exhaustion_is_complete or not self.truncated_streams:
                    return heap.results(), True
                return heap.results(), False
            robin = source + 1
            stream = streams[source]
            posting = stream.next()
            self.state.entries_read += 1
            if self._profile is not None:
                self._profile.rdil_entries_read += 1
            if not stream.eof:
                self.current_ranks[source] = stream.peek().elemrank
            elif self.truncated_streams:
                self.current_ranks[source] = posting.elemrank
            else:
                self.current_ranks[source] = 0.0
            self._probe(posting, heap, deadline)
            if monitor is not None:
                self._update_state(heap)
                if not monitor(self.state):
                    return heap.results(), False

    # -- loop pieces ----------------------------------------------------------------

    def _next_live_stream(self, start: int) -> Optional[int]:
        for offset in range(self.n):
            index = (start + offset) % self.n
            if not self.streams[index].eof:
                return index
        return None

    def _threshold(self) -> float:
        return sum(map(mul, self.weights, self.current_ranks))

    def _update_state(self, heap: ResultHeap) -> None:
        """What the monitor reads after a step (only a monitored loop
        keeps it current: nothing else reads it mid-run)."""
        threshold = self._threshold()
        self.state.threshold = threshold
        self.state.results_above_threshold = heap.count_at_least(threshold)

    def _probe(self, posting: Posting, heap: ResultHeap, deadline=None) -> None:
        """Compute the lcp candidate for one entry and qualify it."""
        lcp = posting.dewey
        probes = 0
        for tree in self.btrees:
            probes += 1
            shared = tree.longest_common_prefix(lcp)
            if shared == 0:
                lcp = None
                break
            if shared < len(lcp):
                lcp = _trusted(lcp.components[:shared])
        self.state.probes += probes
        if self._profile is not None:
            self._profile.rdil_probes += probes
        if lcp is None or lcp.components in self._processed:
            return
        self._processed.add(lcp.components)
        result = self._qualify(lcp, deadline)
        if result is not None:
            heap.add(result)

    def _qualify(self, lcp: DeweyId, deadline=None) -> Optional[QueryResult]:
        """Check whether ``lcp`` is a genuine Section 2.2 result.

        Range-scans every keyword's subtree under ``lcp`` and replays the
        Dewey-stack merge, which excludes occurrences under sub-elements
        that already contain all keywords.  Returns the result for ``lcp``
        itself, or None when the candidate fails (e.g. all of one keyword's
        occurrences sit inside a more specific result).

        Qualification is unbounded in the candidate's subtree size (a
        root-level lcp can cover a whole document), so the deadline is
        forwarded into the merge — on expiry the candidate is abandoned,
        which only loses results the caller already reports as partial.
        """
        subtree_streams: List[PostingStream] = []
        for j in range(self.n):
            postings = [
                self.entry_decoder(key, payload)
                for key, payload in self.btrees[j].scan_subtree(lcp)
            ]
            if self._profile is not None:
                self._profile.postings_decoded += len(postings)
            stream = PostingStream(postings, self.deleted_docs)
            if stream.eof:
                return None
            subtree_streams.append(stream)
        for result in conjunctive_merge(
            subtree_streams, self.params, self.weights, deadline=deadline
        ):
            if result.dewey == lcp:
                return result
        return None


class RDILEvaluator:
    """Evaluates conjunctive keyword queries against a :class:`RDILIndex`."""

    def __init__(self, index: RDILIndex, params: Optional[RankingParams] = None):
        self.index = index
        self.params = params or RankingParams()

    def evaluate(
        self,
        keywords: Sequence[str],
        m: int = 10,
        weights: Optional[Sequence[float]] = None,
        deadline=None,
        span=None,
        accept: Accept = None,
    ) -> List[QueryResult]:
        """Top-m conjunctive results via TA over ranked lists.

        ``span`` is accepted for interface parity with the other
        evaluators; RDIL's I/O shows up on the caller's evaluate span.
        """
        validate_query(keywords, m, weights)
        self.index._require_built()

        if any(not self.index.has_keyword(k) for k in keywords):
            return []
        streams = [
            PostingStream.from_cursor(
                self.index.ranked_cursor(keyword), self.index.deleted_docs
            )
            for keyword in keywords
        ]
        if len(keywords) == 1:
            # The first m live entries of the ranked list are the top-m.
            return single_keyword_top_m(
                streams[0],
                m,
                weights[0] if weights else 1.0,
                deadline,
                rank_ordered=True,
                accept=accept,
            )
        btrees = [self.index.btree(keyword) for keyword in keywords]
        loop = RankedProbeLoop(
            streams,
            btrees,
            entry_decoder=Posting.decode_payload,
            params=self.params,
            deleted_docs=self.index.deleted_docs,
            weights=list(weights) if weights else None,
        )
        results, _completed = loop.run(
            m, exhaustion_is_complete=True, deadline=deadline, accept=accept
        )
        return results
