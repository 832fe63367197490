"""Cluster vs single-node identity: the distribution-correctness gate.

The cluster's contract is that distribution is *invisible* in the
answers: for any shard count, a fault-free cluster returns bit-for-bit
the ranked results a single-node engine over the same corpus returns —
same Dewey IDs, same float ranks, same order, same snippets.  This
module is the one place that contract is checked, in the style of
:mod:`repro.build.verify`: it runs a seeded DBLP corpus and workload
through real HTTP workers at shard counts {1, 2, 4} and diffs every
response against the oracle.  ``repro cluster --check`` and
``repro check --strict`` both call :func:`verify_cluster_identity`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..build.shard import DocumentSpec
from ..config import XRankConfig
from ..datasets.dblp import generate_dblp
from ..datasets.workloads import random_queries
from ..engine import XRankEngine
from ..service.core import XRankService
from .local import LocalCluster
from .worker import DEFAULT_CLUSTER_KINDS

#: The battery's shard counts: trivial (1 = pure overhead check), even
#: split, and more shards than some corpora have large documents.
DEFAULT_SHARD_COUNTS = (1, 2, 4)


def default_cluster_corpus(
    num_papers: int = 36, seed: int = 23, num_queries: int = 6
) -> Tuple[List[DocumentSpec], List[str]]:
    """Seeded DBLP corpus + mixed-selectivity keyword workload."""
    corpus = generate_dblp(num_papers, seed=seed)
    specs = [
        DocumentSpec(doc_id=document.doc_id, uri=document.uri, source=source)
        for document, source in zip(corpus.documents, corpus.sources)
    ]
    queries: List[str] = []
    for band in ("high", "medium"):
        workload = random_queries(
            corpus.graph,
            num_keywords=2,
            num_queries=max(1, num_queries // 2),
            selectivity_band=band,
            seed=seed * 7 + len(band),
        )
        queries.extend(" ".join(keywords) for keywords in workload)
    return specs, queries


def single_node_oracle(
    specs: Sequence[DocumentSpec],
    kinds: Sequence[str] = DEFAULT_CLUSTER_KINDS,
    config: Optional[XRankConfig] = None,
) -> XRankService:
    """One engine over the whole corpus, parsed exactly as workers parse.

    Built by ``engine.build(corpus=specs)``, which parses through the same
    ``parse_spec`` the cluster uses (same doc ids, same URIs), and the
    normal full-graph ElemRank path — the answers every cluster topology
    must reproduce.
    """
    engine = XRankEngine(config=config)
    engine.build(kinds=kinds, corpus=specs)
    return XRankService(engine, kinds=kinds)


def compare_responses(
    oracle_payload: dict, cluster_payload: dict, context: str
) -> List[str]:
    """Bit-for-bit comparison of two serialized ``results`` lists."""
    problems: List[str] = []
    oracle_hits = oracle_payload["results"]
    cluster_hits = cluster_payload["results"]
    if len(oracle_hits) != len(cluster_hits):
        return [
            f"{context}: {len(oracle_hits)} oracle hits vs "
            f"{len(cluster_hits)} cluster hits"
        ]
    for position, (expected, actual) in enumerate(
        zip(oracle_hits, cluster_hits)
    ):
        if expected != actual:
            keys = [
                key
                for key in expected
                if expected.get(key) != actual.get(key)
            ]
            problems.append(
                f"{context}: hit {position} differs on {keys} "
                f"(oracle {expected.get('dewey')}@{expected.get('rank')!r}, "
                f"cluster {actual.get('dewey')}@{actual.get('rank')!r})"
            )
            break
    return problems


def verify_cluster_identity(
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    replicas: int = 1,
    kinds: Sequence[str] = DEFAULT_CLUSTER_KINDS,
    m: int = 10,
    num_papers: int = 36,
    seed: int = 23,
    specs: Optional[Sequence[DocumentSpec]] = None,
    queries: Optional[Sequence[str]] = None,
    config: Optional[XRankConfig] = None,
) -> List[str]:
    """Run the full identity battery; an empty list means identical.

    For every shard count and index kind, every workload query's cluster
    response must equal the single-node oracle's — including a paging
    probe (``offset=m//2``) and an OR-mode probe, and the fault-free
    cluster must never flag ``degraded`` or report missing shards.
    """
    if specs is None or queries is None:
        default_specs, default_queries = default_cluster_corpus(
            num_papers, seed
        )
        specs = specs if specs is not None else default_specs
        queries = queries if queries is not None else default_queries
    oracle = single_node_oracle(specs, kinds=kinds, config=config)

    problems: List[str] = []
    for num_shards in shard_counts:
        with LocalCluster(
            specs,
            num_shards=num_shards,
            replicas=replicas,
            kinds=kinds,
            config=config,
        ) as cluster:
            for kind in kinds:
                for number, query in enumerate(queries):
                    probes = [dict(m=m, kind=kind)]
                    if number == 0:
                        probes.append(dict(m=m, kind=kind, offset=m // 2))
                        probes.append(dict(m=m, kind=kind, mode="or"))
                    for options in probes:
                        context = (
                            f"shards={num_shards} kind={kind} "
                            f"query={query!r} options={options}"
                        )
                        expected = oracle.search(query, **options).to_dict()
                        actual = cluster.search(query, **options).to_dict()
                        if actual["degraded"]:
                            problems.append(
                                f"{context}: fault-free cluster flagged "
                                "degraded"
                            )
                        if actual["cluster"]["missing_shards"]:
                            problems.append(
                                f"{context}: fault-free cluster missing "
                                f"shards {actual['cluster']['missing_shards']}"
                            )
                        problems.extend(
                            compare_responses(expected, actual, context)
                        )
                        if len(problems) >= 10:
                            problems.append(
                                "... (further differences suppressed)"
                            )
                            return problems
    return problems
