"""The XRANK engine facade (paper Figure 2).

Wires the whole pipeline together for library users: add XML/HTML documents
(strings or parsed :class:`Document` objects), ``build()`` to run ElemRank
and load an index, then ``search()`` for ranked results.  The engine
defaults to HDIL — the paper's headline structure — but any of the five
index kinds can be selected, which the benchmark harness uses to compare
them on identical corpora.

Results come back as :class:`SearchHit` objects carrying the matched
element, its tag path, a text snippet and the ancestor chain for context
navigation (Section 2.2's UI remedy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .config import XRankConfig
from .errors import (
    DocumentNotFoundError,
    IndexNotBuiltError,
    QueryError,
    XRankError,
)
from .index.builder import IndexBuilder
from .obs import NOOP_SPAN
from .query.answer_nodes import (
    AnswerNodeFilter,
    ancestor_context,
    result_element,
)
from .query.dil_eval import DILEvaluator
from .query.disjunctive import DisjunctiveEvaluator
from .query.hdil_eval import HDILEvaluator
from .query.naive_eval import NaiveIdEvaluator, NaiveRankEvaluator
from .query.rdil_eval import RDILEvaluator
from .query.results import QueryResult
from .query.structured import PathFilter
from .ranking.elemrank import ElemRankVariant
from .text.tokenize import tokenize_query
from .xmlmodel.graph import CollectionGraph
from .xmlmodel.html import parse_html
from .xmlmodel.nodes import Document
from .xmlmodel.parser import parse_xml

def _highlight(text: str, keywords: List[str]) -> str:
    """Wrap case-insensitive whole-word keyword matches in brackets."""
    import re

    if not keywords:
        # An empty alternation would compile to r"\b()\b", which matches at
        # every word boundary and corrupts the snippet with empty brackets.
        return text
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(k) for k in keywords) + r")\b",
        re.IGNORECASE,
    )
    return pattern.sub(lambda match: f"[{match.group(0)}]", text)


#: Index kinds accepted by :meth:`XRankEngine.build`.
INDEX_KINDS = (
    "dil",
    "rdil",
    "hdil",
    "naive-id",
    "naive-rank",
    "dil-incremental",
)


@dataclass
class SearchHit:
    """One ranked search result, resolved against the document trees."""

    rank: float
    dewey: str
    tag: str
    snippet: str
    path: str
    keyword_ranks: Tuple[float, ...] = ()
    ancestors: List[Tuple[str, str]] = field(default_factory=list)

    def __str__(self) -> str:
        return f"[{self.rank:.5f}] <{self.tag}> {self.dewey}: {self.snippet}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable view (used by the HTTP serving layer)."""
        return {
            "rank": self.rank,
            "dewey": self.dewey,
            "tag": self.tag,
            "snippet": self.snippet,
            "path": self.path,
            "keyword_ranks": list(self.keyword_ranks),
            "ancestors": [list(pair) for pair in self.ancestors],
        }


class XRankEngine:
    """End-to-end ranked XML/HTML keyword search."""

    def __init__(
        self,
        config: Optional[XRankConfig] = None,
        elemrank_variant: ElemRankVariant = ElemRankVariant.E4_FINAL,
        answer_filter: Optional[AnswerNodeFilter] = None,
        scorer: str = "elemrank",
        drop_stopwords: bool = False,
    ):
        """Args:
            scorer: posting score source — ``"elemrank"`` (link analysis,
                the paper's default) or ``"tfidf"`` (the Section 4
                alternative).
            drop_stopwords: exclude English stopwords from both the index
                and queries (space saver for prose-heavy corpora; off by
                default because XRANK treats tag names as values).
        """
        self.config = config or XRankConfig()
        self.elemrank_variant = elemrank_variant
        self.answer_filter = answer_filter
        self.scorer = scorer
        self.drop_stopwords = drop_stopwords
        self.graph = CollectionGraph()
        self.builder: Optional[IndexBuilder] = None
        self._indexes: Dict[str, object] = {}
        self._evaluators: Dict[str, object] = {}
        self._next_doc_id = 0
        #: Monotone counter bumped by every corpus/index mutation.  The
        #: serving layer (repro.service) tags cache entries with it, so a
        #: stale entry is recognized without the caches being told what
        #: changed (generation-based invalidation).
        self.generation = 0
        #: Stats from the most recent repro.build pipeline run (None for
        #: purely sequential builds) and the documents it skipped.
        self.last_build_stats = None
        self.last_build_skipped: List[Tuple[str, str]] = []
        #: Fault plan applied to every index's simulated disk (chaos
        #: harness / fault tests); None disables injection.
        self._fault_plan = None

    def set_fault_plan(self, plan) -> None:
        """Attach a :class:`~repro.faults.FaultPlan` to every index disk.

        Applies to already-built indexes immediately and to every index
        built afterwards; pass ``None`` to stop injecting.
        """
        self._fault_plan = plan
        for index in self._indexes.values():
            index.disk.fault_plan = plan

    # -- corpus management -------------------------------------------------------------

    def add_xml(self, source: str, uri: str = "") -> int:
        """Parse and register an XML document; returns its document id."""
        doc_id = self._take_doc_id()
        document = parse_xml(
            source, doc_id=doc_id, uri=uri, word_table=self.graph.word_table
        )
        self.graph.add_document(document)
        self._invalidate()
        return doc_id

    def add_html(self, source: str, uri: str = "") -> int:
        """Parse and register an HTML document (flattened, root-only)."""
        doc_id = self._take_doc_id()
        document = parse_html(
            source, doc_id=doc_id, uri=uri, word_table=self.graph.word_table
        )
        self.graph.add_document(document)
        self._invalidate()
        return doc_id

    def add_document(self, document: Document) -> int:
        """Register an already parsed document (id must be unique)."""
        self.graph.add_document(document)
        self._next_doc_id = max(self._next_doc_id, document.doc_id + 1)
        self._invalidate()
        return document.doc_id

    def delete_document(self, doc_id: int) -> None:
        """Document-granularity delete (Section 4.5): tombstone everywhere.

        Queries skip the document immediately; space is reclaimed on the
        next :meth:`build`.
        """
        if doc_id not in self.graph.documents:
            raise DocumentNotFoundError(f"no document with id {doc_id}")
        self.generation += 1
        if not self._indexes:
            self.graph.remove_document(doc_id)
            return
        for index in self._indexes.values():
            index.delete_document(doc_id)

    def add_xml_incremental(self, source: str, uri: str = "") -> int:
        """Add an XML document *without* a full rebuild (Section 4.5).

        Requires ``build(kinds=[..., "dil-incremental"])`` to have run; the
        new document lands in the incremental index's delta and is
        immediately searchable through the ``"dil-incremental"`` kind.  Its
        elements carry depth-average approximate ElemRanks until the next
        full :meth:`build` (ElemRank is an offline computation, Figure 2).
        """
        self._require_built("dil-incremental")
        doc_id = self._take_doc_id()
        document = parse_xml(
            source, doc_id=doc_id, uri=uri, word_table=self.graph.word_table
        )
        self.graph.add_document(document)
        self.graph.finalize()
        self._indexes["dil-incremental"].add_documents(
            [document], reference=self.builder.elemranks
        )
        self.generation += 1
        return doc_id

    def merge_incremental(self) -> None:
        """Fold the incremental delta into its main index (compaction)."""
        self._require_built("dil-incremental")
        self._indexes["dil-incremental"].merge()
        self.generation += 1

    def replace_document(self, doc_id: int, source: str, uri: str = "") -> int:
        """Replace a document's content without a full rebuild.

        Element-granularity edits are applied by re-adding the whole edited
        document: the old version is tombstoned, the new one takes a fresh
        id and lands in the incremental delta (requires the
        ``"dil-incremental"`` kind).  Returns the new document id.
        """
        self._require_built("dil-incremental")
        if doc_id not in self.graph.documents:
            raise DocumentNotFoundError(f"no document with id {doc_id}")
        for index in self._indexes.values():
            index.delete_document(doc_id)
        return self.add_xml_incremental(source, uri=uri)

    def _take_doc_id(self) -> int:
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        return doc_id

    def _invalidate(self) -> None:
        self.builder = None
        self._indexes = {}
        self._evaluators = {}
        self.generation += 1

    # -- build --------------------------------------------------------------------------------

    def build(
        self,
        kinds: Sequence[str] = ("hdil",),
        corpus=None,
        workers: int = 1,
        spill_dir=None,
        on_parse_error: str = "raise",
        fault_plan=None,
        elemrank_overrides=None,
    ) -> None:
        """Run ElemRank and materialize the requested index kinds.

        Args:
            kinds: index flavours to materialize.
            corpus: optional documents to ingest first — an iterable of XML
                source strings, ``(source, uri)`` pairs, ``pathlib.Path``
                files, :class:`~repro.build.DocumentSpec` objects, parsed
                :class:`Document` objects, or a datasets ``Corpus``.
                Sources/paths are parsed by the build pipeline, sharded
                across ``workers`` processes (see
                :func:`~repro.build.shard.specs_from`).  Doc ids: a spec
                or a parsed document keeps its own; every other item is
                numbered in order from the next free id.  A doc id
                already in the engine, or repeated within ``corpus``,
                raises :class:`QueryError` before anything is parsed.
            workers: process count for parsing ``corpus``'s sources
                (repro.build).  ``1`` parses them inline — same code path
                per document, no pool — and any ``workers`` value produces
                byte-identical indexes (gated by ``repro check --strict``).
                Documents that are already parsed are extracted
                in-process at any worker count.
            spill_dir: when set, workers ship their posting skeletons back
                through CRC-checked run files under this directory instead
                of the result pipe.  This does not bound memory: parsed
                documents still come back through the pipe, and every
                skeleton is folded into one map.
            on_parse_error: ``"raise"`` (default) or ``"skip"`` bad
                documents when ingesting ``corpus``.  A failed ingestion
                leaves the engine's documents and built indexes as they
                were.
            fault_plan: :class:`~repro.faults.FaultPlan` driving injected
                worker crashes / run-file corruption during this build
                (the pipeline retries per shard; see repro.build).
            elemrank_overrides: externally computed ElemRanks keyed by
                :class:`~repro.xmlmodel.dewey.DeweyId`, covering every
                element of this engine's corpus.  Skips the local link
                analysis — used by repro.cluster shard workers so scores
                stay globally comparable across a partitioned corpus.
        """
        unknown = [k for k in kinds if k not in INDEX_KINDS]
        if unknown:
            raise QueryError(f"unknown index kinds: {unknown}")
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        if on_parse_error not in ("raise", "skip"):
            raise QueryError(f"unknown on_parse_error {on_parse_error!r}")

        raw_postings = None
        self.last_build_stats = None
        if corpus is not None:
            raw_postings = self._ingest_corpus(
                corpus, workers, spill_dir, on_parse_error, fault_plan
            )
        if not self.graph.documents:
            raise QueryError("cannot build an index over zero documents")
        self.graph.finalize()
        self.builder = IndexBuilder(
            self.graph,
            elemrank_params=self.config.elemrank,
            elemrank_variant=self.elemrank_variant,
            storage_params=self.config.storage,
            scorer=self.scorer,
            drop_stopwords=self.drop_stopwords,
            raw_postings=raw_postings,
            elemrank_overrides=elemrank_overrides,
        )
        self._indexes = {}
        self._evaluators = {}
        for kind in kinds:
            self._build_kind(kind)
        # Queries read the indexes; the posting map they were written from
        # is not kept (DESIGN.md, "What a built engine keeps").
        self.builder.release_postings()
        self.generation += 1

    def _ingest_corpus(
        self, corpus, workers, spill_dir, on_parse_error, fault_plan=None
    ):
        """Add a corpus through the build pipeline; returns merged raw
        postings covering the *whole* graph, or None when they must be
        extracted in-process (the graph holds documents the pipeline did
        not parse).  Sources are parsed before anything is added, so a
        failed parse leaves the engine as it was."""
        from .build.pipeline import build_corpus
        from .build.shard import specs_from

        items = getattr(corpus, "documents", corpus)
        parsed: List[Document] = []
        sources: List[object] = []
        for item in items:
            (parsed if isinstance(item, Document) else sources).append(item)
        specs = specs_from(
            sources,
            start_doc_id=max(
                [self._next_doc_id] + [d.doc_id + 1 for d in parsed]
            ),
        )
        seen = set()
        for doc_id in [d.doc_id for d in parsed] + [s.doc_id for s in specs]:
            if doc_id in self.graph.documents:
                raise QueryError(f"document id {doc_id} is already taken")
            if doc_id in seen:
                raise QueryError(f"corpus repeats document id {doc_id}")
            seen.add(doc_id)

        result = None
        if specs:
            result = build_corpus(
                specs,
                workers=workers,
                spill_dir=spill_dir,
                on_parse_error=on_parse_error,
                fault_plan=fault_plan,
            )
        had_documents = bool(self.graph.documents)
        for document in parsed:
            self.add_document(document)
        if result is None:
            return None  # pre-parsed only: the builder extracts in-process
        for document in result.documents:
            self.graph.add_document(document)
            self._next_doc_id = max(self._next_doc_id, document.doc_id + 1)
        self.generation += 1
        self.last_build_stats = result.stats
        self.last_build_skipped = list(result.skipped)
        if parsed or had_documents:
            # The pipeline's postings cover only the new sources; re-extract
            # over the final graph instead of splicing in the rest.
            return None
        return result.raw_postings

    def _build_kind(self, kind: str) -> None:
        builder = self.builder
        if kind == "dil":
            index = builder.build_dil()
        elif kind == "rdil":
            index = builder.build_rdil()
        elif kind == "hdil":
            index = builder.build_hdil(self.config.hdil)
        elif kind == "naive-id":
            index = builder.build_naive_id()
        elif kind == "dil-incremental":
            from .index.incremental import IncrementalDILIndex

            index = IncrementalDILIndex(self.config.storage)
            index.build(builder.direct_postings)
        else:
            index = builder.build_naive_rank()
        if self._fault_plan is not None:
            index.disk.fault_plan = self._fault_plan
        self._indexes[kind] = index
        self._evaluators[kind] = self._make_evaluator(kind, index)

    def _make_evaluator(self, kind: str, index):
        """Construct the conjunctive evaluator matching a built index kind.

        Split from :meth:`_build_kind` so evaluators can be recreated
        lazily — e.g. after :meth:`load`, which deliberately does not
        persist them (see ``__getstate__``)."""
        if kind == "rdil":
            return RDILEvaluator(index, self.config.ranking)
        if kind == "hdil":
            return HDILEvaluator(index, self.config.ranking, self.config.hdil)
        if kind == "naive-id":
            return NaiveIdEvaluator(index, self.config.ranking)
        if kind in ("dil", "dil-incremental"):
            return DILEvaluator(index, self.config.ranking)
        return NaiveRankEvaluator(index, self.config.ranking)

    def _conjunctive_evaluator(self, kind: str):
        if kind not in self._evaluators:
            self._evaluators[kind] = self._make_evaluator(
                kind, self._indexes[kind]
            )
        return self._evaluators[kind]

    def index(self, kind: str = "hdil"):
        """The built index of the given kind (for inspection/benchmarks)."""
        self._require_built(kind)
        return self._indexes[kind]

    def evaluator(self, kind: str = "hdil"):
        """The evaluator bound to a built index kind."""
        self._require_built(kind)
        return self._conjunctive_evaluator(kind)

    def _require_built(self, kind: str) -> None:
        if kind not in self._indexes:
            raise IndexNotBuiltError(
                f"index kind {kind!r} is not built; call build(kinds=[...])"
            )

    # -- search ---------------------------------------------------------------------------------

    def search(
        self,
        query: str,
        m: int = 10,
        kind: str = "hdil",
        with_context: bool = False,
        mode: str = "and",
        weights: Optional[Dict[str, float]] = None,
        highlight: bool = False,
        path: Optional[str] = None,
        offset: int = 0,
        deadline=None,
        span=None,
    ) -> List[SearchHit]:
        """Ranked keyword search.

        Args:
            query: free-text keywords ("XQL language").
            m: number of results.
            kind: which built index to use.
            with_context: populate each hit's ancestor chain.
            mode: ``"and"`` (conjunctive, the paper's focus) or ``"or"``
                (disjunctive — requires a Dewey-ordered index: dil/hdil).
            weights: optional per-keyword weight map; keywords missing from
                the map default to weight 1.0 (Section 2.3.2.2's weighted
                variant).
            highlight: wrap matched keywords in ``[...]`` in snippets.
            path: optional structural constraint on result elements, e.g.
                ``"paper/title"`` or ``"//section"`` (Section 7's
                structured-query integration, suffix-matched; a leading
                ``/`` anchors at the document root).
            offset: skip this many top results (pagination; page n of size
                m is ``search(..., m=m, offset=n*m)``).
            deadline: optional cooperative deadline — any object exposing
                ``poll() -> bool`` (see
                :class:`repro.service.admission.Deadline`).  The evaluator
                loops poll it and, once expired, return the partial top-m
                found so far instead of blocking; the caller can inspect
                the deadline's ``expired`` flag to mark results degraded.
            span: optional :class:`repro.obs.Span` the evaluation reports
                into (evaluator choice, per-posting-list I/O, HDIL→DIL
                switches); None means untraced.
        """
        span = span or NOOP_SPAN
        if offset < 0:
            raise QueryError("offset cannot be negative")
        self._require_built(kind)
        keywords = tokenize_query(query, drop_stopwords=self.drop_stopwords)
        if not keywords:
            raise QueryError("query contains no searchable keywords")
        weight_list: Optional[List[float]] = None
        if weights:
            weight_list = [float(weights.get(k, 1.0)) for k in keywords]

        if mode == "and":
            evaluator = self._conjunctive_evaluator(kind)
        elif mode == "or":
            evaluator = self._disjunctive_evaluator(kind)
        else:
            raise QueryError(f"unknown search mode {mode!r}")
        span.event(
            "evaluator",
            kind=kind,
            mode=mode,
            impl=type(evaluator).__name__,
            keywords=len(keywords),
        )
        # The path constraint gates the evaluator's top-m heap, so one
        # evaluation returns the top-(m + offset) matching results.
        accept = None
        if path is not None:
            accept = PathFilter(path).predicate(self.graph)
        results = evaluator.evaluate(
            keywords,
            m=m + offset,
            weights=weight_list,
            deadline=deadline,
            span=span,
            accept=accept,
        )
        trace = getattr(evaluator, "last_trace", None)
        if trace is not None and getattr(trace, "switched_to_dil", False):
            span.event(
                "hdil_fallback",
                reason=str(getattr(trace, "switch_reason", "") or ""),
            )
        results = results[offset:]
        if self.answer_filter is not None:
            results = self.answer_filter.apply(
                results, self.graph, self.config.ranking
            )[:m]
        highlight_terms = keywords if highlight else None
        return [
            self._to_hit(result, with_context, highlight_terms)
            for result in results
        ]

    def _disjunctive_evaluator(self, kind: str) -> DisjunctiveEvaluator:
        if kind not in ("dil", "hdil"):
            raise QueryError(
                "disjunctive search needs a Dewey-ordered index (dil/hdil)"
            )
        cache_key = f"or:{kind}"
        if cache_key not in self._evaluators:
            self._evaluators[cache_key] = DisjunctiveEvaluator(
                self._indexes[kind], self.config.ranking
            )
        return self._evaluators[cache_key]

    def elemrank_of(self, dewey: str) -> float:
        """ElemRank of an element by dotted Dewey ID (diagnostics)."""
        if self.builder is None:
            raise IndexNotBuiltError("build() has not been run")
        from .xmlmodel.dewey import DeweyId

        return self.builder.elemranks[DeweyId.parse(dewey)]

    def _to_hit(
        self,
        result: QueryResult,
        with_context: bool,
        highlight_terms: Optional[List[str]] = None,
    ) -> SearchHit:
        element = result_element(self.graph, result)
        if element is None:
            return SearchHit(
                rank=result.rank,
                dewey=result.identifier(),
                tag="?",
                snippet="",
                path="",
                keyword_ranks=result.keyword_ranks,
            )
        snippet = element.text_content()
        if highlight_terms:
            snippet = _highlight(snippet, highlight_terms)
        if len(snippet) > 120:
            snippet = snippet[:117] + "..."
        ancestors: List[Tuple[str, str]] = []
        if with_context:
            ancestors = [
                (str(dewey), tag)
                for dewey, tag in ancestor_context(self.graph, element.dewey)
            ]
        return SearchHit(
            rank=result.rank,
            dewey=str(element.dewey),
            tag=element.tag,
            snippet=snippet,
            path="/".join(element.tag_path()),
            keyword_ranks=result.keyword_ranks,
            ancestors=ancestors,
        )

    # -- explanations --------------------------------------------------------------------------------

    def explain(
        self, query: str, m: int = 5, kind: str = "dil"
    ) -> List[Dict[str, object]]:
        """Per-result ranking breakdowns for a conjunctive query.

        Each entry decomposes the Section 2.3.2 formula for one hit: the
        per-keyword aggregated ranks ``r̂(v, ki)`` (decay already applied),
        the smallest-window proximity factor ``p``, the relevant occurrence
        positions, and the element's own ElemRank for reference.  Requires
        a Dewey-family index (dil / hdil / dil-incremental).
        """
        self._require_built(kind)
        keywords = tokenize_query(query, drop_stopwords=self.drop_stopwords)
        if not keywords:
            raise QueryError("query contains no searchable keywords")
        results = self._conjunctive_evaluator(kind).evaluate(keywords, m=m)
        from .ranking.proximity import smallest_window

        explanations: List[Dict[str, object]] = []
        for result in results:
            element = result_element(self.graph, result)
            window = (
                smallest_window([list(pl) for pl in result.position_lists])
                if result.position_lists
                else None
            )
            explanations.append(
                {
                    "dewey": result.identifier(),
                    "tag": element.tag if element else "?",
                    "path": "/".join(element.tag_path()) if element else "",
                    "overall_rank": result.rank,
                    "keyword_ranks": dict(zip(keywords, result.keyword_ranks)),
                    "proximity": result.proximity,
                    "smallest_window": window,
                    "positions": dict(zip(keywords, result.position_lists)),
                    "element_elemrank": (
                        self.builder.elemranks.get(result.dewey)
                        if self.builder and result.dewey is not None
                        else None
                    ),
                    "decay": self.config.ranking.decay,
                }
            )
        return explanations

    # -- persistence --------------------------------------------------------------------------------

    def __getstate__(self):
        # Evaluators are a derived cache; once the serving layer has run a
        # query they hold cache handles with runtime locks, which would
        # make a served engine unpicklable.  They rebuild lazily on the
        # next search, so drop them from the snapshot.
        state = dict(self.__dict__)
        state["_evaluators"] = {}
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if self.builder is not None:
            # Snapshots written before the release still carry the map.
            self.builder.release_postings()

    def save(self, path) -> None:
        """Persist the whole engine (documents, graph, indexes) to a file.

        Everything — parsed trees, ElemRanks, all simulated-disk pages — is
        pickled, so :meth:`load` restores a fully queryable engine without
        re-parsing or re-indexing.  The pickle stream rides inside the
        versioned snapshot framing (magic, format version, config digest,
        CRC32C trailer — see :mod:`repro.durability.format`) and the file
        is replaced durably: temp -> fsync -> atomic rename -> dir fsync,
        so a crash mid-save leaves the previous file intact.
        """
        import pickle

        from .durability.format import config_digest, encode_part
        from .durability.io import atomic_write_bytes

        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(str(path), encode_part(payload, config_digest(self)))

    @classmethod
    def load(cls, path) -> "XRankEngine":
        """Restore an engine persisted by :meth:`save`.

        Validates the snapshot framing before unpickling a single byte:
        bad magic or a foreign format version raises
        :class:`~repro.errors.SnapshotVersionError`, truncation or bit
        rot raises :class:`~repro.errors.SnapshotCorruptError`.
        """
        import pickle

        from .durability.format import config_digest, decode_part
        from .errors import SnapshotVersionError

        with open(path, "rb") as handle:
            blob = handle.read()
        payload, digest = decode_part(blob, path=str(path))
        engine = pickle.loads(payload)
        if not isinstance(engine, cls):
            raise XRankError(f"{path} does not contain a pickled XRankEngine")
        if not hasattr(engine, "generation"):  # pre-serving-layer pickles
            engine.generation = 0
        if not hasattr(engine, "last_build_stats"):  # pre-repro.build pickles
            engine.last_build_stats = None
            engine.last_build_skipped = []
        if config_digest(engine) != digest:
            raise SnapshotVersionError(
                f"{path}: header config digest {digest:#010x} does not match "
                "the loaded engine's configuration — snapshot written under "
                "a different config regime"
            )
        return engine

    # -- stats -------------------------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Corpus and index statistics for display."""
        info: Dict[str, object] = {
            "documents": self.graph.num_documents,
            "indexes": sorted(self._indexes),
        }
        if self.graph.finalized:
            info["elements"] = len(self.graph.elements)
            info["hyperlink_edges"] = len(self.graph.hyperlink_edges)
        if self.builder is not None:
            info["elemrank_iterations"] = self.builder.elemrank_result.iterations
            info["keywords"] = len(self.keyword_frequencies())
        return info

    def keyword_frequencies(self) -> Dict[str, int]:
        """Every indexed keyword with the length of its longest list.

        Read from the built indexes, an incremental delta included, so a
        keyword added after the build counts too.
        """
        frequencies: Dict[str, int] = {}
        for index in self._indexes.values():
            for keyword in index.keywords():
                frequencies[keyword] = max(
                    frequencies.get(keyword, 0), index.list_length(keyword)
                )
        return frequencies
