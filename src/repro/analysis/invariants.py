"""Deep structural validators for the built index structures.

The paper's data structures carry implicit invariants that nothing
re-checks after construction: B+-tree keys are strictly increasing with
a consistent leaf chain (Section 4.3.1), inverted lists are strictly
Dewey-sorted with lossless posting encodings (Section 4.2), the three
Dewey-family indexes answer identical queries identically (Section 4.4's
point is that HDIL matches DIL/RDIL *results* while beating their
costs), and ElemRank converged to finite non-negative scores (Section
2.3).  A codec change, a bulk-load bug, or a bad incremental merge can
silently break any of them while queries keep returning *something*.

Each ``check_*`` function returns a list of
:class:`InvariantViolation`; :func:`check_engine` runs the whole battery
against every built index kind of one engine.  All checks are pure
reads — they never mutate the engine — so ``repro check --strict`` can
run them against a freshly built corpus in CI.  They decode pages from
the disk (``BTree._leaf_entries``), never from the buffer pool's decoded
frames, and :func:`check_frames` holds the frames to those decodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..index.postings import Posting
from ..query.streams import decode_cursor
from ..query.structured import is_tag_name
from ..storage.btree import BTree, _decode_internal, _decode_leaf
from ..storage.deweycodec import CODECS
from ..xmlmodel.dewey import DeweyId
from ..xmlmodel.graph import CollectionGraph

#: Rank agreement tolerance across index kinds (float32 payload rounding).
_RANK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class InvariantViolation:
    """One failed structural check."""

    check: str      # which validator fired (e.g. "btree", "posting-lists")
    location: str   # what it was looking at ("rdil btree 'xql'", ...)
    message: str

    def format(self) -> str:
        return f"[{self.check}] {self.location}: {self.message}"


# -- B+-trees --------------------------------------------------------------------


def check_btree(tree: BTree, name: str = "btree") -> List[InvariantViolation]:
    """Key ordering, separator bounds, occupancy, and leaf-chain integrity."""
    violations: List[InvariantViolation] = []

    def bad(message: str) -> None:
        violations.append(InvariantViolation("btree", name, message))

    discovered_leaves: List[int] = []

    def walk(page_id: int, level: int, low: Optional[DeweyId], high: Optional[DeweyId]) -> None:
        if level == tree.height:
            discovered_leaves.append(page_id)
            for key, _ in tree._leaf_entries(page_id):
                if low is not None and key < low:
                    bad(f"leaf key {key} below its subtree separator {low}")
                if high is not None and key >= high:
                    bad(f"leaf key {key} at/above the next separator {high}")
            return
        children = _decode_internal(tree.disk.read(page_id))
        if not children:
            bad(f"empty internal node on page {page_id}")
            return
        keys = [key for key, _ in children]
        for a, b in zip(keys, keys[1:]):
            if not a < b:
                bad(f"internal separators not strictly increasing: {a} !< {b}")
        for position, (key, child) in enumerate(children):
            child_low = key if position > 0 else low
            child_high = (
                children[position + 1][0] if position + 1 < len(children) else high
            )
            walk(child, level + 1, child_low, child_high)

    walk(tree.root_page, 1, None, None)

    if discovered_leaves != list(tree.leaf_pages):
        bad(
            f"leaf pages reachable from the root {discovered_leaves} differ "
            f"from the recorded leaf level {list(tree.leaf_pages)}"
        )

    # Sibling pointers (owned leaves only; external leaves are consecutive
    # list pages with no stored chain).
    if tree.leaf_decoder is None:
        for position, page_id in enumerate(tree.leaf_pages):
            prev_page, next_page, _ = _decode_leaf(tree.disk.read(page_id))
            want_prev = tree.leaf_pages[position - 1] if position > 0 else -1
            want_next = (
                tree.leaf_pages[position + 1]
                if position + 1 < len(tree.leaf_pages)
                else -1
            )
            if (prev_page, next_page) != (want_prev, want_next):
                bad(
                    f"leaf {page_id} chain pointers ({prev_page}, {next_page}) "
                    f"!= expected ({want_prev}, {want_next})"
                )

    # Global key order + entry accounting over the whole leaf level.
    total = 0
    previous: Optional[DeweyId] = None
    for page_id in tree.leaf_pages:
        entries = tree._leaf_entries(page_id)
        if not entries and tree.num_entries > 0 and len(tree.leaf_pages) > 1:
            bad(f"empty leaf page {page_id} in a non-empty tree")
        for key, _ in entries:
            total += 1
            if previous is not None and not previous < key:
                bad(f"leaf keys out of order: {previous} !< {key}")
            previous = key
    if total != tree.num_entries:
        bad(f"leaf level holds {total} entries, tree claims {tree.num_entries}")
    return violations


# -- decoded page frames ----------------------------------------------------------


def check_frames(engine) -> List[InvariantViolation]:
    """Every frame a buffer pool would serve equals a fresh decode of its page.

    :meth:`~repro.storage.disk.SimulatedDisk.read_decoded` serves a frame
    only for the very bytes object it was decoded from, so a frame kept
    for other bytes (a torn copy, a page rewritten since) is never served
    and is skipped here.  A leaf frame compares field by field — key
    tuples, payload spans, page bytes, leaf chain — so one equal to a
    fresh decode builds exactly the entries the decoder would.  Run it
    after queries have warmed the pools.
    """
    violations: List[InvariantViolation] = []
    for kind, index in sorted(engine._indexes.items()):
        disk = getattr(index, "disk", None)
        if disk is None:
            continue
        for page_id, decode, data, frame in disk.pooled_frames():
            page = disk.pages[page_id]
            if data is page and frame != decode(page):
                violations.append(
                    InvariantViolation(
                        "frames",
                        f"{kind} page {page_id}",
                        "pooled frame differs from a fresh decode of the page",
                    )
                )
    return violations


# -- posting lists ----------------------------------------------------------------


def check_posting_lists(
    engine, sample: int = 8
) -> List[InvariantViolation]:
    """Dewey order, codec round-trips, rank order, and head consistency.

    Checks up to ``sample`` keywords (the longest lists — they exercise
    page boundaries) per built Dewey-family index kind.
    """
    violations: List[InvariantViolation] = []
    for kind, index in sorted(engine._indexes.items()):
        if kind == "dil" or kind == "dil-incremental":
            keywords = _sampled(index, sample)
            delta = getattr(index, "delta", None)
            if delta is not None:
                # The longest lists are main's; sample the delta's too.
                delta_keywords = _sampled(delta, sample)
                keywords += [k for k in delta_keywords if k not in keywords]
                violations.extend(_check_delta_records(index, delta_keywords))
            for keyword in keywords:
                cursor = index.cursor(keyword)
                if cursor is None:
                    continue
                violations.extend(
                    _check_record_stream(
                        cursor, f"{kind} list {keyword!r}",
                        dewey_sorted=True,
                    )
                )
        elif kind == "rdil":
            for keyword in _sampled(index, sample):
                cursor = index.ranked_cursor(keyword)
                if cursor is not None:
                    violations.extend(
                        _check_record_stream(
                            cursor, f"rdil ranked list {keyword!r}",
                            rank_sorted=True,
                        )
                    )
                tree = index.btree(keyword)
                if tree is not None:
                    violations.extend(check_btree(tree, f"rdil btree {keyword!r}"))
        elif kind == "hdil":
            for keyword in _sampled(index, sample):
                cursor = index.full_cursor(keyword)
                if cursor is not None:
                    violations.extend(
                        _check_record_stream(
                            cursor, f"hdil full list {keyword!r}",
                            dewey_sorted=True,
                        )
                    )
                head = index.ranked_cursor(keyword)
                if head is not None:
                    violations.extend(
                        _check_record_stream(
                            head, f"hdil ranked head {keyword!r}",
                            rank_sorted=True,
                        )
                    )
                if index.head_length(keyword) > index.list_length(keyword):
                    violations.append(
                        InvariantViolation(
                            "posting-lists",
                            f"hdil head {keyword!r}",
                            "ranked head is longer than the full list",
                        )
                    )
                tree = index.btree(keyword)
                if tree is not None:
                    violations.extend(check_btree(tree, f"hdil btree {keyword!r}"))
    return violations


def _check_delta_records(index, keywords: Sequence[str]) -> List[InvariantViolation]:
    """An incremental delta list on disk holds exactly its kept records."""
    return [
        InvariantViolation(
            "posting-lists",
            f"dil-incremental delta list {keyword!r}",
            "on-disk records differ from the records kept in memory",
        )
        for keyword in keywords
        if list(index.delta.lists[keyword].scan())
        != index._delta_records.get(keyword)
    ]


def _sampled(index, sample: int) -> List[str]:
    keywords = sorted(index.keywords(), key=lambda k: (-index.list_length(k), k))
    return keywords[:sample]


def _check_record_stream(
    cursor,
    location: str,
    dewey_sorted: bool = False,
    rank_sorted: bool = False,
) -> List[InvariantViolation]:
    violations: List[InvariantViolation] = []

    def bad(message: str) -> None:
        violations.append(InvariantViolation("posting-lists", location, message))

    previous: Optional[Posting] = None
    while not cursor.eof:
        raw = cursor.next()
        posting = Posting.decode(raw)
        if posting.encode() != raw:
            bad(f"posting at {posting.dewey} does not round-trip its encoding")
        if not math.isfinite(posting.elemrank) or posting.elemrank < 0:
            bad(f"posting at {posting.dewey} has bad rank {posting.elemrank}")
        if any(b <= a for a, b in zip(posting.positions, posting.positions[1:])):
            bad(f"positions not strictly increasing at {posting.dewey}")
        if previous is not None:
            if dewey_sorted and not previous.dewey < posting.dewey:
                bad(
                    f"Dewey order violated: {previous.dewey} !< {posting.dewey}"
                )
            if rank_sorted and posting.elemrank > previous.elemrank + 1e-12:
                bad(
                    f"rank order violated at {posting.dewey}: "
                    f"{posting.elemrank} > {previous.elemrank}"
                )
        previous = posting
    return violations


# -- collection graph -------------------------------------------------------------


def check_graph(engine) -> List[InvariantViolation]:
    """The element table equals a full pass over the same documents.

    ``CollectionGraph.finalize`` appends an incremental add's elements and
    links instead of rebuilding; this holds every dense array, and the
    link-resolution tally, to a fresh graph over the same documents.
    """
    graph = engine.graph
    if not graph.finalized:
        return []
    fresh = CollectionGraph()
    for document in graph.documents.values():
        fresh.add_document(document)
    fresh.finalize()
    names = (
        "elements", "element_doc", "index_of", "parent_index",
        "children_count", "doc_element_count", "hyperlink_edges",
        "out_hyperlink_count", "resolution",
    )

    def table(g: CollectionGraph, name: str):
        value = getattr(g, name)
        # A dict's insertion order is part of the table.
        return list(value.items()) if isinstance(value, dict) else value

    return [
        InvariantViolation(
            "graph", name, "differs from a full pass over the same documents"
        )
        for name in names
        if table(graph, name) != table(fresh, name)
    ]


# -- Dewey codecs -----------------------------------------------------------------


def check_dewey_codecs(ids: Sequence[DeweyId]) -> List[InvariantViolation]:
    """Every codec must round-trip the (Dewey-ordered) ID list losslessly."""
    violations: List[InvariantViolation] = []
    ordered = sorted(ids)
    for name, (encode, decode) in CODECS.items():
        try:
            decoded = decode(encode(ordered))
        except Exception as exc:
            violations.append(
                InvariantViolation(
                    "dewey-codec", name, f"codec raised {type(exc).__name__}: {exc}"
                )
            )
            continue
        if decoded != ordered:
            violations.append(
                InvariantViolation(
                    "dewey-codec",
                    name,
                    f"round-trip lost data ({len(ordered)} ids in, "
                    f"{len(decoded)} out or values changed)",
                )
            )
    return violations


# -- cross-index agreement --------------------------------------------------------


def check_index_agreement(
    engine,
    queries: Optional[Sequence[Sequence[str]]] = None,
    m: int = 10,
) -> List[InvariantViolation]:
    """DIL/RDIL/HDIL must produce the same ranked answer for the same query.

    Each query is also searched under ``path=`` the tag of the reference
    kind's top hit, so the path predicate that gates every evaluator's
    top-m heap is checked inside DIL's merge, RDIL's Threshold Algorithm
    and HDIL's switch rules.

    Ranks are compared as sorted-descending vectors within a small
    tolerance (float32 payloads), not by result identity: evaluators may
    break exact rank ties differently at the top-m boundary, which is
    not an index-corruption signal.
    """
    kinds = [k for k in ("dil", "rdil", "hdil") if k in engine._indexes]
    if len(kinds) < 2:
        return []
    if queries is None:
        queries = _default_queries(engine)
    violations: List[InvariantViolation] = []
    for keywords in queries:
        query = " ".join(keywords)
        top = engine.search(query, m=1, kind=kinds[0])
        for path in [None] + [h.tag for h in top if is_tag_name(h.tag)]:
            answers: Dict[str, List[float]] = {}
            for kind in kinds:
                hits = engine.search(query, m=m, kind=kind, path=path)
                answers[kind] = sorted((h.rank for h in hits), reverse=True)
            reference_kind = kinds[0]
            reference = answers[reference_kind]
            label = f"query {query!r}" + (f" path {path!r}" if path else "")
            for kind in kinds[1:]:
                ranks = answers[kind]
                location = f"{label}: {reference_kind} vs {kind}"
                if len(ranks) != len(reference):
                    violations.append(
                        InvariantViolation(
                            "index-agreement",
                            location,
                            f"{len(reference)} results vs {len(ranks)}",
                        )
                    )
                    continue
                for a, b in zip(reference, ranks):
                    if abs(a - b) > _RANK_TOLERANCE:
                        violations.append(
                            InvariantViolation(
                                "index-agreement",
                                location,
                                f"rank vectors diverge: {a:.8f} vs {b:.8f}",
                            )
                        )
                        break
    return violations


def _default_queries(engine) -> List[List[str]]:
    """Sampled keyword sets: frequent singletons plus co-occurring pairs."""
    frequencies = engine.keyword_frequencies()
    frequent = sorted(frequencies, key=lambda k: (-frequencies[k], k))[:4]
    queries: List[List[str]] = [[keyword] for keyword in frequent]
    # Pairs that co-occur in at least one document (conjunctive queries
    # over disjoint keyword sets would just compare empty answers).
    docs = {
        keyword: {dewey.doc_id for dewey in _stored_deweys(engine, keyword)}
        for keyword in frequent
    }
    for i, first in enumerate(frequent):
        for second in frequent[i + 1 :]:
            if docs[first] & docs[second]:
                queries.append([first, second])
    return queries


#: The method that opens one keyword's stored posting list, per kind whose
#: list records are postings.
_POSTING_LISTS = (
    ("dil", "cursor"),
    ("dil-incremental", "cursor"),
    ("hdil", "full_cursor"),
    ("rdil", "ranked_cursor"),
)


def _stored_deweys(engine, keyword: str) -> List[DeweyId]:
    """The Dewey IDs of one keyword's list, decoded from the first built
    kind that stores postings (an incremental delta included)."""
    for kind, opener in _POSTING_LISTS:
        index = engine._indexes.get(kind)
        if index is not None:
            cursor = getattr(index, opener)(keyword)
            return [posting.dewey for posting in decode_cursor(cursor)]
    return []


# -- ElemRank ---------------------------------------------------------------------


def check_elemrank(engine) -> List[InvariantViolation]:
    """Convergence sanity: converged, finite residual, sane scores."""
    if engine.builder is None:
        return []
    violations: List[InvariantViolation] = []
    result = engine.builder.elemrank_result

    def bad(message: str) -> None:
        violations.append(InvariantViolation("elemrank", result.variant.value, message))

    if not result.converged:
        bad(f"did not converge in {result.iterations} iterations")
    if not math.isfinite(result.residual):
        bad(f"non-finite residual {result.residual}")
    for dewey, score in engine.builder.elemranks.items():
        if not math.isfinite(score) or score < 0:
            bad(f"score of {dewey} is {score}")
            break  # one bad score implies a systemic failure; don't spam
    return violations


# -- parallel build identity -------------------------------------------------------


def check_parallel_build(
    sources: Sequence[Tuple[str, str]],
    worker_counts: Sequence[int] = (2, 3),
    kinds: Sequence[str] = ("hdil",),
) -> List[InvariantViolation]:
    """The repro.build contract: ``build(workers=k)`` is byte-identical.

    Builds the given ``(uri, source)`` corpus once sequentially and once
    per worker count through the sharded pipeline, then requires identical
    index pages for every built kind, ElemRank tables, and top-10
    probe-query results.  A divergence means the shard merge lost
    its determinism — the exact regression this gate exists to catch.
    """
    from ..build.verify import compare_engines, default_probe_queries
    from ..engine import XRankEngine

    corpus = [(source, uri) for uri, source in sources]

    def built(workers: int) -> XRankEngine:
        engine = XRankEngine()
        engine.build(kinds=list(kinds), corpus=corpus, workers=workers)
        return engine

    violations: List[InvariantViolation] = []
    reference = built(1)
    queries = default_probe_queries(reference)
    for workers in worker_counts:
        for problem in compare_engines(
            reference, built(workers), queries, kind=kinds[0]
        ):
            violations.append(
                InvariantViolation(
                    "parallel-build",
                    f"workers={workers}",
                    problem,
                )
            )
    return violations


# -- orchestration ----------------------------------------------------------------


def check_engine(
    engine,
    queries: Optional[Sequence[Sequence[str]]] = None,
    sample: int = 8,
    m: int = 10,
) -> List[InvariantViolation]:
    """Run the full battery against one built engine."""
    violations: List[InvariantViolation] = []
    violations.extend(check_graph(engine))
    violations.extend(check_posting_lists(engine, sample=sample))
    violations.extend(check_elemrank(engine))
    violations.extend(check_index_agreement(engine, queries=queries, m=m))
    # After the agreement queries, so the pools hold probe frames.
    violations.extend(check_frames(engine))
    frequencies = engine.keyword_frequencies()
    if frequencies:
        longest = min(frequencies, key=lambda k: (-frequencies[k], k))
        violations.extend(check_dewey_codecs(_stored_deweys(engine, longest)))
    return violations
