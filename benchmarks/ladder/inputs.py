"""Seeded inputs: corpora, query lists and the serve-mixed op schedule.

Everything here is a function of ``(seed, workload, scale)`` alone.  Each
actor draws from its own ``Random(f"{seed}:{workload}:{actor}")`` (string
seeds hash through SHA-512, so they do not depend on ``PYTHONHASHSEED``).
The program under test only ever sees what this module returns; the
manifest records a digest of it so two runs with one seed provably timed
the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets import PlantedKeywords, generate_dblp, generate_xmark
from repro.xmlmodel.serialize import document_to_xml


@dataclass(frozen=True)
class Scale:
    """Input sizes and validity floors for one run size."""

    name: str
    dblp_papers: int           # serve-mixed, cluster-http
    build_papers: int          # cold-probe, bulk-build: per-entry RDIL cost
    xmark_items: int
    xmark_auctions: int
    setup_repeats: int
    random_pairs: int          # per frequency band, cold-probe / scan-merge
    serve_pool: int
    #: serve-mixed planted pool per group: hot pairs, then cold pairs,
    #: triples, quads; last, the low-correlation pairs overall.
    serve_combos: Tuple[int, int, int, int, int]
    serve_block_ops: int       # ops per client between clock checks
    cluster_pool: int          # queries per client
    #: Floors of the validity asserts ("every timed sample is real work").
    min_postings: int
    min_probes: int
    min_query_ms: float
    min_shard_ms: float


FULL = Scale(
    name="full", dblp_papers=400, build_papers=300, xmark_items=200,
    xmark_auctions=300, setup_repeats=3, random_pairs=4, serve_pool=120,
    serve_combos=(1, 9, 10, 5, 10),
    serve_block_ops=100, cluster_pool=16,
    min_postings=200, min_probes=16, min_query_ms=1.0, min_shard_ms=10.0,
)

#: Smoke-test size: a few seconds per workload, numbers never compared.
TINY = Scale(
    name="tiny", dblp_papers=60, build_papers=40, xmark_items=30,
    xmark_auctions=40, setup_repeats=1, random_pairs=2, serve_pool=24,
    serve_combos=(1, 2, 1, 1, 2),
    serve_block_ops=40, cluster_pool=6,
    min_postings=20, min_probes=4, min_query_ms=0.05, min_shard_ms=0.05,
)


@dataclass(frozen=True)
class Query:
    """One search request as the workloads issue it."""

    text: str
    label: str
    mode: str = "and"
    path: Optional[str] = None

    def options(self) -> Dict[str, object]:
        options: Dict[str, object] = {"mode": self.mode}
        if self.path is not None:
            options["path"] = self.path
        return options


@dataclass
class Inputs:
    workload: str
    seed: int
    scale: Scale
    corpus_name: str
    sources: List[str]
    #: The generator's own parsed graph: word statistics and layer probes.
    graph: object
    planted: PlantedKeywords
    queries: List[Query]
    #: serve-mixed only: per-client op lists and the documents to add.
    schedule: List[List[Tuple[str, int]]] = field(default_factory=list)
    add_sources: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def source_bytes(self) -> int:
        return sum(len(s.encode("utf-8")) for s in self.sources)

    def corpus(self) -> List[Tuple[str, str]]:
        """(source, uri) pairs; the URIs make citation XLinks resolve."""
        if self.corpus_name == "xmark":
            return [(source, "xmark") for source in self.sources]
        return [(s, f"paper{i}") for i, s in enumerate(self.sources)]

    def manifest(self) -> Dict[str, object]:
        digest = hashlib.sha256()
        for source in self.sources:
            digest.update(source.encode("utf-8"))
            digest.update(b"\n")
        ops: Dict[str, int] = {}
        for plan in self.schedule:
            for op, _ in plan:
                ops[op] = ops.get(op, 0) + 1
        return {
            "workload": self.workload,
            "seed": self.seed,
            "scale": self.scale.name,
            "corpus": self.corpus_name,
            "corpus_sha256": digest.hexdigest(),
            "documents": len(self.sources),
            "source_bytes": self.source_bytes,
            "queries": [
                [q.label, q.text, q.mode, q.path] for q in self.queries
            ],
            "ops_per_client": ops,
            "adds_sha256": hashlib.sha256(
                json.dumps(self.add_sources).encode("utf-8")
            ).hexdigest(),
        }


def _rng(seed: int, workload: str, actor: object) -> random.Random:
    return random.Random(f"{seed}:{workload}:{actor}")


def _planted() -> PlantedKeywords:
    """The EXPERIMENTS.md plan: planted keywords frequent enough that their
    inverted lists span many pages at this corpus size."""
    planted = PlantedKeywords.default()
    planted.correlated_rate = 0.5
    planted.independent_rate = 0.7
    return planted


def _dblp(seed: int, workload: str, papers: int):
    planted = _planted()
    corpus = generate_dblp(
        papers,
        seed=_rng(seed, workload, "corpus").randrange(1 << 30),
        planted=planted,
        plant_anecdotes=True,
    )
    return corpus, planted


def keyword_bands(graph) -> Tuple[List[str], List[str]]:
    """(head, mid): the top percentile of the vocabulary by inverted-list
    length, and the band from the second percentile to the top decile.

    Ranked by the number of elements that directly contain the word — the
    length of its DIL list — because document frequency says nothing inside
    XMark's single document.  The vocabulary is Zipfian: at these corpus
    sizes head lists hold hundreds to thousands of postings, mid lists
    tens to hundreds, and below the top decile a list has under a dozen,
    which a query answers in microseconds (timer noise, not search).
    """
    lengths: Dict[str, int] = {}
    for document in graph.iter_documents():
        for element in document.iter_elements():
            for word in {w for w, _pos in element.direct_words()}:
                lengths[word] = lengths.get(word, 0) + 1
    ordered = sorted(lengths, key=lambda w: (-lengths[w], w))
    head = max(8, len(ordered) // 100)
    return ordered[:head], ordered[2 * head : max(2 * head + 8, len(ordered) // 10)]


def _paper_classes(planted, rng, groups: int, pairs, sizes=(1, 2, 3, 4)) -> List[Query]:
    """The paper's Section 5.4 query classes over one corpus.

    The planted classes cost about the same whatever the seed, and there
    are enough of each that the median operation is a high-correlation
    query and the 95th percentile a low-correlation (or, in scan-merge, a
    path-filtered) one; the random pairs, whose cost varies with the words
    drawn, are too few to move either rank far.  ``pairs`` lists
    (label, first pool, second pool, count).
    """
    queries: List[Query] = []
    for k in sizes:
        for g, group in enumerate(planted.correlated_groups[:groups]):
            queries.append(Query(" ".join(group[:k]), f"high-corr-{k}kw-g{g}"))
    low = planted.independent_keywords
    for i in range(3):
        queries.append(Query(f"{low[i]} {low[i + 1]}", f"low-corr-2kw-{i}"))
    for label, first, second, count in pairs:
        for i in range(count):
            a, b = rng.choice(first), rng.choice(second)
            while a == b:
                b = rng.choice(second)
            queries.append(Query(f"{a} {b}", f"{label}-pair-{i}"))
    return queries


def _planted_combinations(planted, rng, per_group, low_pairs=0,
                          prefix="") -> List[Query]:
    """``per_group[k]`` distinct k-keyword combinations inside every
    correlated group, plus ``low_pairs`` pairs of independent keywords.
    The class counts are fixed, so every seed draws the same statistical
    mix and only the particular words differ."""
    from itertools import combinations

    queries: List[Query] = []
    for g, group in enumerate(planted.correlated_groups):
        for k, count in sorted(per_group.items()):
            for i, words in enumerate(
                    rng.sample(list(combinations(group, k)), count)):
                queries.append(
                    Query(" ".join(words), f"{prefix}high-corr-{k}kw-g{g}-{i}"))
    low = rng.sample(
        list(combinations(planted.independent_keywords, 2)), low_pairs)
    queries += [
        Query(" ".join(words), f"low-corr-2kw-{i}")
        for i, words in enumerate(low)
    ]
    return queries


def cold_probe(seed: int, scale: Scale) -> Inputs:
    corpus, planted = _dblp(seed, "cold-probe", scale.build_papers)
    _head, mid = keyword_bands(corpus.graph)
    rng = _rng(seed, "cold-probe", "queries")
    # No head words here: RDIL answers an uncorrelated pair with one probe
    # per list entry, so two thousand-entry lists cost seconds per query.
    # No single keywords either: RDIL and HDIL read them off the first page
    # of the ranked list in 0.2 ms, which is timer noise, not search.
    queries = _paper_classes(
        planted, rng, 3, [("mid", mid, mid, scale.random_pairs)],
        sizes=(2, 3, 4))
    return Inputs(
        "cold-probe", seed, scale, "dblp", corpus.sources, corpus.graph,
        planted, queries,
    )


def scan_merge(seed: int, scale: Scale) -> Inputs:
    planted = _planted()
    corpus = generate_xmark(
        num_items=scale.xmark_items,
        num_auctions=scale.xmark_auctions,
        seed=_rng(seed, "scan-merge", "corpus").randrange(1 << 30),
        planted=planted,
        plant_anecdotes=True,
    )
    head, mid = keyword_bands(corpus.graph)
    rng = _rng(seed, "scan-merge", "queries")
    base = _paper_classes(planted, rng, 3, [
        ("head", head, head, scale.random_pairs),
        ("mid", head, mid, scale.random_pairs),
    ])
    queries = list(base)
    multi = [q for q in base if " " in q.text]
    queries += [Query(q.text, f"or-{q.label}", mode="or") for q in multi]
    # Planted text sits in <text> leaves under listitem/annotation parents.
    # One path per planted class, so each class stays a group of queries
    # of like cost; the //annotation filter is the most selective and the
    # engine's over-fetch loop makes those three the slowest operations.
    path_of = {"high-corr-2kw": "text", "high-corr-3kw": "listitem/text",
               "high-corr-4kw": "//annotation", "low-corr-2kw": "text"}
    queries += [
        Query(q.text, f"path-{q.label}", path=path_of[q.label.rsplit("-", 1)[0]])
        for q in multi if q.label.rsplit("-", 1)[0] in path_of
    ]
    # generate_xmark leaves Corpus.sources empty; the serialized document
    # is what gets hashed, fed to the engine and counted as source bytes.
    sources = [document_to_xml(d) for d in corpus.documents]
    return Inputs(
        "scan-merge", seed, scale, "xmark", sources, corpus.graph, planted,
        queries,
    )


def serve_mixed(seed: int, scale: Scale, clients: int = 2) -> Inputs:
    corpus, planted = _dblp(seed, "serve-mixed", scale.dblp_papers)
    head, mid = keyword_bands(corpus.graph)
    rng = _rng(seed, "serve-mixed", "queries")
    # The hot set leads the pool: planted pairs, the same from every group.
    queries = _planted_combinations(
        planted, rng, {2: scale.serve_combos[0]}, prefix="hot-")
    hot = len(queries)
    cold = _planted_combinations(
        planted, rng,
        {k: n for k, n in zip((2, 3, 4), scale.serve_combos[1:])},
        low_pairs=scale.serve_combos[4])
    seen = {q.text for q in queries}
    queries += [q for q in cold if q.text not in seen]
    seen = {q.text for q in queries}
    while len(queries) < scale.serve_pool:
        text = f"{rng.choice(head)} {rng.choice(mid)}"
        if text not in seen:
            seen.add(text)
            queries.append(Query(text, f"head-mid-{len(queries)}"))
    # Per block and client: 10 % adds; two thirds of the reads go to the
    # `hot` leading pool entries, the rest to the other queries.  Every add
    # empties both caches, so about nine reads share a cache generation and
    # the small hot set is what keeps the result-cache hit rate inside the
    # validity band.  With two closed-loop clients an add stalls the other
    # client's one outstanding read, so the stalled share of reads equals
    # the add share: at 10 % the 95th percentile read sits inside the
    # stalled population, at 5 % it would sit on its edge and jump from run
    # to run.  The composition of a block is fixed and only its order is
    # drawn, so every seed times the same number of adds.
    block = scale.serve_block_ops
    adds_per_block = max(1, block // 10)
    hot_per_block = (block - adds_per_block) * 2 // 3
    schedule: List[List[Tuple[str, int]]] = []
    adds = 0
    for client in range(clients):
        actor = _rng(seed, "serve-mixed", client)
        plan: List[Tuple[str, int]] = []
        for _ in range(12):
            ops: List[Tuple[str, int]] = []
            for _ in range(adds_per_block):
                ops.append(("add", adds))
                adds += 1
            ops += [("read", actor.randrange(hot))
                    for _ in range(hot_per_block)]
            ops += [("read", actor.randrange(hot, len(queries)))
                    for _ in range(block - adds_per_block - hot_per_block)]
            actor.shuffle(ops)
            plan += ops
        schedule.append(plan)
    # New documents look like the corpus (same generator, same planted
    # plan) and carry one token nothing else contains.
    extra = generate_dblp(
        adds + 1,
        seed=_rng(seed, "serve-mixed", "adds").randrange(1 << 30),
        planted=planted,
    )
    add_sources = []
    for i, source in enumerate(extra.sources):
        token = f"ryw{seed}x{i}"
        add_sources.append(
            (token, f"added{i}", source.replace("<title>", f"<title>{token} ", 1))
        )
    return Inputs(
        "serve-mixed", seed, scale, "dblp", corpus.sources, corpus.graph,
        planted, queries, schedule=schedule, add_sources=add_sources,
    )


def cluster_http(seed: int, scale: Scale, clients: int = 2) -> Inputs:
    corpus, planted = _dblp(seed, "cluster-http", scale.dblp_papers)
    rng = _rng(seed, "cluster-http", "queries")
    # Planted keywords only, three or four per query: every shard search
    # merges lists of a few hundred postings each, 12-20 ms, well above
    # the validity floor and comparable to the wire's fixed cost.  Every text is
    # distinct because the span recorder tells concurrent requests apart
    # by their query string.
    per_group = scale.cluster_pool * clients // (
        2 * len(planted.correlated_groups))
    queries = _planted_combinations(
        planted, rng, {3: per_group, 4: per_group})
    return Inputs(
        "cluster-http", seed, scale, "dblp", corpus.sources, corpus.graph,
        planted, queries,
    )


def bulk_build(seed: int, scale: Scale) -> Inputs:
    corpus, planted = _dblp(seed, "bulk-build", scale.build_papers)
    _head, mid = keyword_bands(corpus.graph)
    rng = _rng(seed, "bulk-build", "queries")
    queries = _paper_classes(
        planted, rng, 2, [("mid", mid, mid, 2)], sizes=(2, 3, 4))
    return Inputs(
        "bulk-build", seed, scale, "dblp", corpus.sources, corpus.graph,
        planted, queries,
    )


GENERATORS = {
    "cold-probe": cold_probe,
    "scan-merge": scan_merge,
    "serve-mixed": serve_mixed,
    "cluster-http": cluster_http,
    "bulk-build": bulk_build,
}


def trivial_queries(inputs: Inputs) -> Sequence[Query]:
    """A query pool that does no real work: rare single words.  Used by the
    smoke test to show the validity asserts fire."""
    _head, mid = keyword_bands(inputs.graph)
    return [Query(word, f"trivial-{i}") for i, word in enumerate(mid[-8:])]
