"""Index construction pipeline (paper Figure 2).

The offline pipeline is: parse documents → build the collection graph →
compute ElemRanks → extract postings → bulk-load the chosen index.  The
:class:`IndexBuilder` runs the shared front of that pipeline once and can
then materialize any of the five index flavours — each on its own simulated
disk, so Table 1's space numbers and the query-time I/O measurements are
attributed cleanly per approach.

Posting extraction is the build's one fold of per-document skeletons, in
the graph's ascending doc-id order: a document the parallel build
(repro.build) already extracted contributes its block, and every other
document is extracted here, so each document is extracted once per build.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import ElemRankParams, HDILParams, StorageParams
from ..errors import BuildError
from ..ranking.elemrank import (
    ElemRankResult,
    ElemRankVariant,
    LinkGraph,
    compute_elemrank,
)
from ..xmlmodel.dewey import DeweyId
from ..xmlmodel.graph import CollectionGraph
from .dil import DILIndex
from .hdil import HDILIndex
from .naive import NaiveIdIndex, NaiveRankIndex
from .postings import PostingMap, RawPostingMap, extract_direct_postings
from ..obs.log import default_event_log
from .rdil import RDILIndex


def _override_result(
    graph: CollectionGraph,
    overrides: Dict[DeweyId, float],
    variant: ElemRankVariant,
) -> ElemRankResult:
    """Package externally supplied ElemRanks as an :class:`ElemRankResult`.

    The dense score array follows the graph's element order so the naive
    builders (which index by element position) see the same values the
    Dewey-keyed mapping exposes."""
    import numpy as np

    missing = [
        element.dewey
        for element in graph.elements
        if element.dewey not in overrides
    ]
    if missing:
        raise BuildError(
            f"elemrank overrides missing {len(missing)} element(s), "
            f"e.g. {missing[0]} — the global-statistics exchange must "
            "cover every element of the shard"
        )
    scores = np.array(
        [overrides[element.dewey] for element in graph.elements],
        dtype=np.float64,
    )
    return ElemRankResult(
        scores=scores,
        iterations=0,
        converged=True,
        residual=0.0,
        elapsed_seconds=0.0,
        variant=variant,
    )


class IndexBuilder:
    """Shared corpus preparation + per-flavour index materialization."""

    def __init__(
        self,
        graph: CollectionGraph,
        elemrank_params: Optional[ElemRankParams] = None,
        elemrank_variant: ElemRankVariant = ElemRankVariant.E4_FINAL,
        storage_params: Optional[StorageParams] = None,
        scorer: str = "elemrank",
        drop_stopwords: bool = False,
        raw_postings: Optional[Dict[int, RawPostingMap]] = None,
        elemrank_overrides: Optional[Dict[DeweyId, float]] = None,
    ):
        """Args:
            scorer: ``"elemrank"`` (the paper's link-based score, default)
                or ``"tfidf"`` — postings then carry per-(element, keyword)
                tf-idf weights instead, the alternative ranking hook of
                Section 4.  Both are normalized so decay/proximity <= 1
                keeps the RDIL threshold an overestimate.
            drop_stopwords: exclude the standard English stopword list from
                the index (off by default — XRANK indexes tag names as
                values and words like "author" must stay searchable; the
                engine drops the same stopwords from queries when enabled).
            raw_postings: pre-extracted posting skeletons by doc id (the
                parallel build's per-document blocks, see repro.build).
                May cover any subset of the graph's documents: the fold
                pops each document's block and extracts in-process only
                the documents without one, so the map is emptied here.
            elemrank_overrides: externally computed ElemRanks keyed by
                Dewey ID, covering every element of ``graph``.  Used by
                repro.cluster's global-statistics exchange: a shard worker
                holds only its slice of the corpus, so link analysis over
                its local graph would produce scores that are not
                comparable across shards; the coordinator computes
                ElemRank once on the full collection graph and injects
                the relevant values here, skipping the local power
                iteration entirely.
        """
        if scorer not in ("elemrank", "tfidf"):
            raise ValueError(f"unknown scorer {scorer!r}")
        if not graph.finalized:
            graph.finalize()
        self.graph = graph
        self.storage_params = storage_params
        self.scorer = scorer
        if elemrank_overrides is not None:
            self.elemrank_result = _override_result(
                graph, elemrank_overrides, elemrank_variant
            )
        else:
            # ElemRank consumes the flat LinkGraph arrays, not the
            # collection graph itself: the same call works on arrays
            # assembled elsewhere, keeping graph assembly decoupled from
            # parsing.
            self.elemrank_result = compute_elemrank(
                LinkGraph.from_collection(graph),
                elemrank_params,
                elemrank_variant,
            )
        self.elemranks: Dict[DeweyId, float] = self.elemrank_result.as_mapping(
            graph
        )
        score_overrides = None
        if scorer == "tfidf":
            from ..ranking.tfidf import compute_tfidf_weights

            score_overrides = compute_tfidf_weights(graph)
        self.direct_postings: PostingMap = extract_direct_postings(
            graph, self.elemranks, score_overrides, raw_postings
        )
        self.drop_stopwords = drop_stopwords
        if drop_stopwords:
            from ..text.tokenize import STOPWORDS

            self.direct_postings = {
                keyword: postings
                for keyword, postings in self.direct_postings.items()
                if keyword not in STOPWORDS
            }
        # Build completion is a structured event, not a log line: every
        # field is queryable, and when a traced rebuild triggers the
        # build the record carries that query's trace id.
        default_event_log().emit(
            "corpus_prepared",
            documents=graph.num_documents,
            elements=len(graph.elements),
            keywords=len(self.direct_postings),
            elemrank_converged=self.elemrank_result.converged,
            elemrank_iterations=self.elemrank_result.iterations,
            scorer=scorer,
        )

    def release_postings(self) -> None:
        """Drop the scored posting map once every wanted index is built.

        The map is a build intermediate: an engine keeps its indexes and
        the ElemRanks, not a second copy of the lists they were written
        from.  The per-flavour builders need the map, so call this last.
        """
        self.__dict__.pop("direct_postings", None)

    # -- per-flavour builders -------------------------------------------------------

    def build_dil(self) -> DILIndex:
        """Bulk-build a DIL index (Section 4.2)."""
        index = DILIndex(self.storage_params)
        index.build(self.direct_postings)
        return index

    def build_rdil(self) -> RDILIndex:
        """Bulk-build an RDIL index (Section 4.3)."""
        index = RDILIndex(self.storage_params)
        index.build(self.direct_postings)
        return index

    def build_hdil(self, hdil_params: Optional[HDILParams] = None) -> HDILIndex:
        """Bulk-build an HDIL index (Section 4.4)."""
        index = HDILIndex(self.storage_params, hdil_params)
        index.build(self.direct_postings)
        return index

    def build_naive_id(self) -> NaiveIdIndex:
        """Bulk-build the Naive-ID baseline (Section 4.1)."""
        index = NaiveIdIndex(self.storage_params)
        index.build_naive(
            self.graph, self.direct_postings, self.elemrank_result.scores
        )
        return index

    def build_naive_rank(self) -> NaiveRankIndex:
        """Bulk-build the Naive-Rank baseline (Section 5.1)."""
        index = NaiveRankIndex(self.storage_params)
        index.build_naive(
            self.graph, self.direct_postings, self.elemrank_result.scores
        )
        return index

    def build_all(self) -> Dict[str, object]:
        """All five flavours, keyed by their ``kind`` string (Table 1 order)."""
        return {
            "naive-id": self.build_naive_id(),
            "naive-rank": self.build_naive_rank(),
            "dil": self.build_dil(),
            "rdil": self.build_rdil(),
            "hdil": self.build_hdil(),
        }
