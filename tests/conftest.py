"""Shared fixtures and the brute-force reference implementation.

The reference implementation (:func:`reference_results`) computes the paper's
Section 2.2 result semantics and Section 2.3.2 ranking directly from the
document trees — deliberately simple, quadratic code that is easy to audit.
The index/query tests compare every evaluator against it on handcrafted and
randomized corpora.
"""

from __future__ import annotations

import random
import struct
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest

from repro.config import RankingParams
from repro.datasets.dblp import generate_dblp
from repro.datasets.textgen import PlantedKeywords
from repro.engine import XRankEngine
from repro.ranking.proximity import proximity
from repro.xmlmodel.dewey import DeweyId
from repro.xmlmodel.graph import CollectionGraph
from repro.xmlmodel.nodes import Document, Element
from repro.xmlmodel.parser import parse_xml


def float32(value: float) -> float:
    """Round to float32 exactly as posting records store ElemRanks."""
    return struct.unpack("<f", struct.pack("<f", value))[0]


# ---------------------------------------------------------------------------
# Reference semantics (Section 2.2) and ranking (Section 2.3.2)
# ---------------------------------------------------------------------------

def subtree_words(element: Element) -> Set[str]:
    return {word for word, _ in element.all_words()}


def compute_r0(graph: CollectionGraph, keywords: Sequence[str]) -> Set[Tuple[int, ...]]:
    """R0: elements whose subtree contains every query keyword."""
    r0: Set[Tuple[int, ...]] = set()
    for document in graph.iter_documents():
        for element in document.iter_elements():
            words = subtree_words(element)
            if all(k in words for k in keywords):
                r0.add(element.dewey.components)
    return r0


def relevant_occurrences(
    element: Element,
    keyword: str,
    r0: Set[Tuple[int, ...]],
) -> List[Tuple[int, int]]:
    """(depth difference, position) of each relevant occurrence of keyword.

    An occurrence at descendant-or-self ``u`` is relevant for result
    candidate ``v`` unless some element strictly below ``v`` on the path to
    ``u`` (inclusive) is in R0 — those occurrences are "owned" by a more
    specific result.
    """
    out: List[Tuple[int, int]] = []

    def walk(node: Element, depth: int) -> None:
        if depth > 0 and node.dewey.components in r0:
            return
        for word, position in node.direct_words():
            if word == keyword:
                out.append((depth, position))
        for child in node.child_elements():
            walk(child, depth + 1)

    walk(element, 0)
    return out


def reference_results(
    graph: CollectionGraph,
    keywords: Sequence[str],
    elemranks: Dict[DeweyId, float],
    params: Optional[RankingParams] = None,
    deleted_docs: Optional[Set[int]] = None,
) -> Dict[Tuple[int, ...], float]:
    """All Section 2.2 results with their Section 2.3.2 overall ranks."""
    params = params or RankingParams()
    deleted = deleted_docs or set()
    live_docs = [
        d for d in graph.iter_documents() if d.doc_id not in deleted
    ]
    # R0 over live documents only.
    r0: Set[Tuple[int, ...]] = set()
    for document in live_docs:
        for element in document.iter_elements():
            words = subtree_words(element)
            if all(k in words for k in keywords):
                r0.add(element.dewey.components)

    results: Dict[Tuple[int, ...], float] = {}
    for document in live_docs:
        for element in document.iter_elements():
            per_keyword = [
                relevant_occurrences(element, k, r0) for k in keywords
            ]
            if not all(per_keyword):
                continue
            keyword_ranks: List[float] = []
            position_lists: List[List[int]] = []
            for occurrences in per_keyword:
                contributions = [
                    float32(elemranks[_element_at(element, depth, position, graph)])
                    * params.decay**depth
                    for depth, position in occurrences
                ]
                if params.aggregation == "sum":
                    keyword_ranks.append(sum(contributions))
                else:
                    keyword_ranks.append(max(contributions))
                position_lists.append(sorted(p for _, p in occurrences))
            rank = sum(keyword_ranks)
            if params.use_proximity:
                rank *= proximity(position_lists)
            results[element.dewey.components] = rank
    return results


def _element_at(
    root: Element, depth: int, position: int, graph: CollectionGraph
) -> DeweyId:
    """Dewey ID of the descendant element at ``depth`` holding ``position``."""
    if depth == 0:
        return root.dewey
    for child in root.child_elements():
        if any(p == position for _, p in child.all_words()):
            return _element_at(child, depth - 1, position, graph)
    raise AssertionError("occurrence position not found on the expected path")


# ---------------------------------------------------------------------------
# Random corpus generation for property-style comparisons
# ---------------------------------------------------------------------------

VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon"]
TAGS = ["a", "b", "c", "d"]


def random_xml(rng: random.Random, max_depth: int = 4, breadth: int = 3) -> str:
    """A random small XML document over a five-word vocabulary."""

    def element(depth: int) -> str:
        tag = rng.choice(TAGS)
        parts: List[str] = []
        for _ in range(rng.randint(0, breadth)):
            if depth < max_depth and rng.random() < 0.5:
                parts.append(element(depth + 1))
            else:
                words = " ".join(
                    rng.choice(VOCAB) for _ in range(rng.randint(1, 4))
                )
                parts.append(words)
        return f"<{tag}>{''.join(f' {p} ' for p in parts)}</{tag}>"

    return element(0)


def random_graph(
    rng: random.Random, num_docs: int = 3, max_depth: int = 4
) -> CollectionGraph:
    graph = CollectionGraph()
    for doc_id in range(num_docs):
        source = random_xml(rng, max_depth=max_depth)
        graph.add_document(parse_xml(source, doc_id=doc_id, uri=f"doc{doc_id}"))
    graph.finalize()
    return graph


# ---------------------------------------------------------------------------
# Common fixtures
# ---------------------------------------------------------------------------

FIGURE1_XML = """
<workshop date="28 July 2000">
  <title>XML and IR A SIGIR 2000 Workshop</title>
  <editors>David Carmel Yoelle Maarek Aya Soffer</editors>
  <proceedings>
    <paper id="1">
      <title>XQL and Proximal Nodes</title>
      <author>Ricardo Baeza Yates</author>
      <author>Gonzalo Navarro</author>
      <abstract>We consider the recently proposed language XQL</abstract>
      <body>
        <section name="Introduction">Searching on structured text is more important</section>
        <section name="Implementing XML Operations">
          <subsection name="Path Expressions">At first sight the XQL query language looks</subsection>
        </section>
        <cite ref="2">Querying XML in Xyleme</cite>
        <cite xlink="/paper/xmlql/">A Query Language for XML</cite>
      </body>
    </paper>
    <paper id="2">
      <title>Querying XML in Xyleme</title>
    </paper>
  </proceedings>
</workshop>
"""


@pytest.fixture(scope="session")
def figure1_document() -> Document:
    return parse_xml(FIGURE1_XML, doc_id=5)


@pytest.fixture()
def figure1_graph(figure1_document) -> CollectionGraph:
    graph = CollectionGraph()
    graph.add_document(figure1_document)
    graph.finalize()
    return graph


@pytest.fixture(scope="session")
def small_corpus_graph() -> CollectionGraph:
    """A deterministic 6-document corpus with citations, reused broadly."""
    graph = CollectionGraph()
    rng = random.Random(42)
    for doc_id in range(6):
        cites = (
            f'<cite xlink="doc{rng.randrange(doc_id)}"/>' if doc_id else ""
        )
        body = random_xml(rng, max_depth=3)
        source = (
            f'<paper id="p{doc_id}"><title>paper {rng.choice(VOCAB)} '
            f"{rng.choice(VOCAB)}</title>{body}{cites}</paper>"
        )
        graph.add_document(parse_xml(source, doc_id=doc_id, uri=f"doc{doc_id}"))
    graph.finalize()
    return graph


# ---------------------------------------------------------------------------
# Baseline for the observability tax gates (test_obs, test_obs_profile)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def tax_workload() -> Tuple[XRankEngine, List[str]]:
    """A 40-paper DBLP ``hdil`` engine and a six-query mixed workload."""
    planted = PlantedKeywords.default()
    planted.correlated_rate = 0.5
    planted.independent_rate = 0.7
    corpus = generate_dblp(num_papers=40, seed=11, planted=planted)
    engine = XRankEngine()
    for document in corpus.documents:
        engine.add_document(document)
    engine.build(kinds=["hdil"])
    queries = [" ".join(group[:2]) for group in planted.correlated_groups[:3]]
    queries += [group[0] for group in planted.correlated_groups[:2]]
    queries.append(planted.independent_keywords[0])
    return engine, queries


def min_query_ns(service, queries: Sequence[str], repetitions: int = 2) -> float:
    """Per-query ns of the fastest of three passes, after one warm-up pass.

    The minimum suppresses scheduler noise; the warm-up pass loads the
    buffer pool so every timed pass sees the same pages.
    """

    def one_pass() -> float:
        started = time.perf_counter()
        for _ in range(repetitions):
            for query in queries:
                service.search(query, m=10)
        return time.perf_counter() - started

    one_pass()
    return min(one_pass() for _ in range(3)) / (repetitions * len(queries)) * 1e9
