"""repro.cluster — distributed sharded serving with exact global top-k.

The cluster layer scales serving horizontally without changing a single
answer: documents are partitioned across shard workers by the parallel
build's deterministic LPT plan, ranking statistics that are global by
nature (ElemRank over the full collection graph, corpus counts) are
computed once and shipped to every worker at build time
(:mod:`~repro.cluster.stats`), and a coordinator scatter-gathers
per-shard top-k lists into the global answer under the canonical
``(-rank, Dewey)`` total order (:mod:`~repro.cluster.merge`) — provably,
and verifiably (:mod:`~repro.cluster.verify`), bit-for-bit identical to
a single-node engine.  Replica groups plus per-replica circuit breakers
give failover (:mod:`~repro.cluster.coordinator`); when a whole shard is
gone, answers degrade *loudly* (flagged, missing shards named) rather
than silently shrinking (:mod:`~repro.cluster.chaos` enforces this
against an oracle under seeded kill storms).
"""

from .coordinator import (
    ClusterCoordinator,
    ClusterSearchResponse,
    ReplicaEndpoint,
)
from .local import LocalCluster
from .merge import hit_order_key, merge_hits
from .stats import GlobalStats, build_full_graph, compute_global_stats
from .verify import verify_cluster_identity
from .worker import ShardWorker, build_shard_engine

__all__ = [
    "ClusterCoordinator",
    "ClusterSearchResponse",
    "GlobalStats",
    "LocalCluster",
    "ReplicaEndpoint",
    "ShardWorker",
    "build_full_graph",
    "build_shard_engine",
    "compute_global_stats",
    "hit_order_key",
    "merge_hits",
    "verify_cluster_identity",
]
