"""Global ranking statistics: the cluster's correctness backbone.

XRANK's ranking (Section 2.3.2) is built on ElemRank, a link analysis
over the *whole* collection graph — containment edges plus hyperlinks
that freely cross document (and therefore shard) boundaries.  A shard
worker that computed ElemRank over only its local slice would produce
scores on a different scale from every other shard, and the
coordinator's global top-k merge would silently rank incomparable
numbers.  The same applies to the corpus sizes.

:func:`compute_global_stats` therefore runs once, at cluster build time,
over the full corpus: it takes one finalized collection graph over every
parsed document (:func:`build_full_graph`), runs the exact same
``compute_elemrank`` call the single-node engine uses, and packages the
results as a :class:`GlobalStats` value that is shipped to every shard
worker.  Workers inject the ElemRanks
into their index build (``XRankEngine.build(elemrank_overrides=...)``),
so a posting's stored score is bit-identical to what the single-node
engine would have stored — which is what makes the scatter-gather merge
exact rather than approximate.

Everything in :class:`GlobalStats` is JSON-serializable (Dewey IDs as
dotted strings), so the exchange works identically whether workers live
in the coordinator's process or behind a file handed to a separate
worker process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..config import XRankConfig
from ..errors import StatsExchangeError
from ..ranking.elemrank import ElemRankVariant, LinkGraph, compute_elemrank
from ..xmlmodel.dewey import DeweyId
from ..xmlmodel.graph import CollectionGraph
from ..xmlmodel.nodes import Document


@dataclass
class GlobalStats:
    """Collection-global statistics distributed to every shard worker."""

    #: Total documents and elements in the full corpus.
    num_documents: int = 0
    num_elements: int = 0
    #: ElemRank of every element, keyed by dotted Dewey ID.  Computed on
    #: the full collection graph; the values a single-node build would
    #: attach to its postings.
    elemranks: Dict[str, float] = field(default_factory=dict)
    #: Convergence diagnostics of the global power iteration.
    elemrank_iterations: int = 0
    elemrank_converged: bool = True

    def elemrank_mapping(self) -> Dict[DeweyId, float]:
        """The override mapping ``XRankEngine.build`` consumes."""
        return {
            DeweyId.parse(dotted): score
            for dotted, score in self.elemranks.items()
        }

    def require_coverage(self, graph: CollectionGraph) -> None:
        """Fail loudly when these stats do not cover a shard's graph."""
        missing = [
            element.dewey
            for element in graph.elements
            if str(element.dewey) not in self.elemranks
        ]
        if missing:
            raise StatsExchangeError(
                f"global stats cover {len(self.elemranks)} elements but "
                f"the shard has {len(missing)} uncovered one(s), e.g. "
                f"{missing[0]} — was the exchange run over the full corpus?"
            )

    # -- serialization (worker processes receive a JSON file) ------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_documents": self.num_documents,
            "num_elements": self.num_elements,
            "elemranks": self.elemranks,
            "elemrank_iterations": self.elemrank_iterations,
            "elemrank_converged": self.elemrank_converged,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GlobalStats":
        return cls(
            num_documents=int(data.get("num_documents", 0)),
            num_elements=int(data.get("num_elements", 0)),
            elemranks=dict(data.get("elemranks", {})),
            elemrank_iterations=int(data.get("elemrank_iterations", 0)),
            elemrank_converged=bool(data.get("elemrank_converged", True)),
        )

    def save(self, path) -> None:
        """Write the exchange payload as JSON (floats via repr: exact)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path) -> "GlobalStats":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def compute_global_stats(
    graph: CollectionGraph,
    config: Optional[XRankConfig] = None,
    variant: ElemRankVariant = ElemRankVariant.E4_FINAL,
) -> GlobalStats:
    """Run the exchange step over a finalized full-corpus graph.

    Uses the identical ``compute_elemrank`` entry point the single-node
    :class:`~repro.index.builder.IndexBuilder` calls, so the score of
    every element — down to the float bits — matches what a single-node
    build would compute.
    """
    config = config or XRankConfig()
    if not graph.finalized:
        graph.finalize()
    result = compute_elemrank(
        LinkGraph.from_collection(graph), config.elemrank, variant
    )
    mapping = result.as_mapping(graph)

    return GlobalStats(
        num_documents=graph.num_documents,
        num_elements=len(graph.elements),
        elemranks={str(dewey): score for dewey, score in mapping.items()},
        elemrank_iterations=result.iterations,
        elemrank_converged=result.converged,
    )


def build_full_graph(documents: Iterable[Document]) -> CollectionGraph:
    """One finalized graph over every parsed document of the corpus.

    The coordinator-side half of the exchange: the shard workers are
    handed these same documents, so Dewey IDs and the link structure
    agree exactly with the union of the shards.
    """
    graph = CollectionGraph()
    for document in sorted(documents, key=lambda d: d.doc_id):
        graph.add_document(document)
    graph.finalize()
    return graph
