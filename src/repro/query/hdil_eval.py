"""HDIL adaptive query processing (paper Section 4.4.2).

Start in RDIL mode over the small rank-ordered heads, periodically estimate
RDIL's remaining time, and switch to a DIL scan of the full Dewey-ordered
lists when RDIL looks like losing.  Following the paper:

* after ``r`` results have risen above the threshold in ``t`` simulated
  milliseconds, RDIL's remaining time is estimated as ``(m - r) * t / r``;
* DIL's expected time is computed *a priori* from the lists' page counts
  (one sequential pass: a seek per list plus a transfer per page), which is
  possible "because it mainly depends on the number of query keywords, and
  the size of each query keyword inverted list";
* while ``r = 0`` the ratio estimate is undefined; we keep RDIL running
  until its sunk cost alone exceeds DIL's full expected cost — permissive
  enough that correlated queries (which surface results quickly) stay in
  RDIL mode, matching Figure 10.

RDIL mode also ends when a truncated ranked head is exhausted before the
Threshold Algorithm stop condition holds — the head no longer bounds unseen
ranks, so only a full DIL pass can guarantee the top-m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..config import HDILParams, RankingParams
from ..index.hdil import HDILIndex, decode_leaf_entry
from ..obs import NOOP_SPAN
from .merge import conjunctive_merge, single_keyword_top_m
from .rdil_eval import ProbeLoopState, RankedProbeLoop
from .results import Accept, QueryResult, ResultHeap, validate_query
from .streams import PostingStream, open_stream


@dataclass
class HDILTrace:
    """Diagnostics of one HDIL evaluation (which mode won, and why)."""

    started_in_rdil: bool = True
    switched_to_dil: bool = False
    switch_reason: str = ""
    rdil_entries_read: int = 0
    rdil_cost_ms: float = 0.0
    dil_expected_ms: float = 0.0


class HDILEvaluator:
    """Evaluates conjunctive keyword queries against an :class:`HDILIndex`."""

    def __init__(
        self,
        index: HDILIndex,
        params: Optional[RankingParams] = None,
        hdil_params: Optional[HDILParams] = None,
    ):
        self.index = index
        self.params = params or RankingParams()
        self.hdil_params = hdil_params or index.params
        self.last_trace = HDILTrace()
        #: optional decoded-posting-list cache attached by repro.service
        self.list_cache = None

    def _full_stream(self, keyword: str) -> PostingStream:
        return open_stream(
            self.index, "full", self.index.full_cursor, keyword, self.list_cache
        )

    def _ranked_stream(self, keyword: str) -> PostingStream:
        return open_stream(
            self.index, "ranked", self.index.ranked_cursor, keyword,
            self.list_cache,
        )

    def evaluate(
        self,
        keywords: Sequence[str],
        m: int = 10,
        weights: Optional[Sequence[float]] = None,
        deadline=None,
        span=None,
        accept: Accept = None,
    ) -> List[QueryResult]:
        """Top-m conjunctive results via adaptive RDIL-then-DIL.

        ``accept`` gates the top-m heap of whichever phase answers, so
        every switch rule counts accepted results only."""
        validate_query(keywords, m, weights)
        self.index._require_built()
        self.last_trace = HDILTrace()
        span = span or NOOP_SPAN

        if any(not self.index.has_keyword(k) for k in keywords):
            return []
        if len(keywords) == 1:
            scale = weights[0] if weights else 1.0
            return self._evaluate_single(keywords[0], m, scale, deadline, accept)

        dil_expected = self._expected_dil_cost_ms(keywords)
        self.last_trace.dil_expected_ms = dil_expected

        with span.child("rdil_probe", keywords=len(keywords)) as rdil_span:
            results = self._evaluate_rdil_mode(
                keywords, m, weights, deadline, rdil_span, accept
            )
        if results is not None:
            return results
        with span.child("dil_scan", keywords=len(keywords)) as dil_span:
            before = (
                self.index.disk.stats.snapshot()
                if dil_span.recording
                else None
            )
            results = self._evaluate_dil_mode(
                keywords, m, weights, deadline, accept
            )
            if before is not None:
                dil_span.attach_io(
                    self.index.disk.stats.delta_since(before)
                )
        return results

    def _evaluate_rdil_mode(
        self,
        keywords: Sequence[str],
        m: int,
        weights: Optional[Sequence[float]],
        deadline,
        span=NOOP_SPAN,
        accept: Accept = None,
    ) -> Optional[List[QueryResult]]:
        """The RDIL probe phase; None means "switch to a full DIL scan"."""
        dil_expected = self.last_trace.dil_expected_ms

        streams = [self._ranked_stream(keyword) for keyword in keywords]
        btrees = [self.index.btree(keyword) for keyword in keywords]
        if any(tree is None for tree in btrees):
            span.event("no_btree")
            return None

        loop = RankedProbeLoop(
            streams,
            btrees,
            entry_decoder=decode_leaf_entry,
            params=self.params,
            deleted_docs=self.index.deleted_docs,
            truncated_streams=True,
            weights=list(weights) if weights else None,
        )
        start_stats = self.index.disk.stats.snapshot()
        interval = self.hdil_params.monitor_interval
        # State for the threshold-slope estimator: (entries, threshold)
        # samples at the last two monitor points.
        slope_samples: List[tuple] = []

        def estimate_paper(state: ProbeLoopState, elapsed: float) -> Optional[str]:
            """Section 4.4.2: remaining = (m - r) * t / r."""
            r = state.results_above_threshold
            if r > 0:
                estimated_remaining = (m - r) * elapsed / r
                if estimated_remaining > dil_expected:
                    return (
                        f"estimated remaining {estimated_remaining:.1f}ms "
                        f"> DIL expected {dil_expected:.1f}ms"
                    )
            elif elapsed > dil_expected:
                return (
                    f"no results above threshold after {elapsed:.1f}ms "
                    f"(DIL expected {dil_expected:.1f}ms)"
                )
            return None

        def estimate_slope(state: ProbeLoopState, elapsed: float) -> Optional[str]:
            """Extrapolate threshold decay: RDIL stops once the threshold
            falls to the m-th result's rank, so the per-entry decay rate
            predicts the remaining entries (and hence cost) directly."""
            slope_samples.append((state.entries_read, state.threshold))
            if len(slope_samples) < 2:
                return estimate_paper(state, elapsed)
            (entries0, threshold0), (entries1, threshold1) = slope_samples[-2:]
            decay_per_entry = (threshold0 - threshold1) / max(
                1, entries1 - entries0
            )
            heap = state.heap
            target = heap.kth_rank() if heap is not None else float("-inf")
            if target == float("-inf"):
                # No full heap yet: fall back to the sunk-cost guard.
                return estimate_paper(state, elapsed)
            if decay_per_entry <= 0:
                # Threshold is not falling: RDIL will not terminate soon.
                if elapsed > dil_expected:
                    return (
                        f"threshold stalled at {state.threshold:.4f} after "
                        f"{elapsed:.1f}ms (DIL expected {dil_expected:.1f}ms)"
                    )
                return None
            remaining_entries = (state.threshold - target) / decay_per_entry
            cost_per_entry = elapsed / max(1, state.entries_read)
            estimated_remaining = remaining_entries * cost_per_entry
            if estimated_remaining > dil_expected:
                return (
                    f"threshold-slope estimate {estimated_remaining:.1f}ms "
                    f"> DIL expected {dil_expected:.1f}ms"
                )
            return None

        estimate = (
            estimate_slope
            if self.hdil_params.estimator == "threshold-slope"
            else estimate_paper
        )

        def monitor(state: ProbeLoopState) -> bool:
            if state.entries_read % interval != 0:
                return True
            delta = self.index.disk.stats.delta_since(start_stats)
            elapsed = delta.cost_ms(self.index.disk.params)
            reason = estimate(state, elapsed)
            if reason is not None:
                self.last_trace.switch_reason = reason
                return False
            return True

        results, completed = loop.run(
            m, monitor=monitor, exhaustion_is_complete=False,
            deadline=deadline, accept=accept,
        )
        delta = self.index.disk.stats.delta_since(start_stats)
        self.last_trace.rdil_cost_ms = delta.cost_ms(self.index.disk.params)
        self.last_trace.rdil_entries_read = loop.state.entries_read
        span.set("entries_read", loop.state.entries_read)
        span.attach_io(delta)
        if completed:
            return results
        if not self.last_trace.switch_reason:
            self.last_trace.switch_reason = "ranked heads exhausted"
        self.last_trace.switched_to_dil = True
        # The switch is reported structurally (span event here, the
        # service's "degraded"/profile machinery above) — no module
        # logger: the span event is the log line.
        span.event("switch_to_dil", reason=self.last_trace.switch_reason)
        return None

    # -- DIL fallback -----------------------------------------------------------------

    def _evaluate_dil_mode(
        self,
        keywords: Sequence[str],
        m: int,
        weights: Optional[Sequence[float]] = None,
        deadline=None,
        accept: Accept = None,
    ) -> List[QueryResult]:
        streams = [self._full_stream(keyword) for keyword in keywords]
        heap = ResultHeap(m, accept)
        for result in conjunctive_merge(
            streams,
            self.params,
            list(weights) if weights else None,
            deadline=deadline,
        ):
            heap.add(result)
        return heap.results()

    def _evaluate_single(
        self, keyword: str, m: int, scale: float = 1.0, deadline=None,
        accept: Accept = None,
    ) -> List[QueryResult]:
        """One keyword: the ranked head serves the top-m directly."""
        results = single_keyword_top_m(
            self._ranked_stream(keyword), m, scale, deadline,
            rank_ordered=True, accept=accept,
        )
        if (
            len(results) == m
            or self.index.head_length(keyword) == self.index.list_length(keyword)
            or (deadline is not None and deadline.poll())
        ):
            return results
        # The truncated head could not fill m results: fall back to a full
        # scan (rare: m larger than the replicated fraction).
        self.last_trace.switched_to_dil = True
        self.last_trace.switch_reason = "ranked head shorter than m"
        return single_keyword_top_m(
            self._full_stream(keyword), m, scale, deadline, accept=accept
        )

    # -- cost estimation --------------------------------------------------------------------

    def _expected_dil_cost_ms(self, keywords: Sequence[str]) -> float:
        """A-priori DIL cost: one seek per list + one transfer per page."""
        params = self.index.disk.params
        pages = self.index.total_full_pages(keywords)
        return pages * params.transfer_cost_ms + len(keywords) * params.seek_cost_ms
