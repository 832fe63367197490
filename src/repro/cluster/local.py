"""An in-process cluster: real HTTP workers + coordinator, one call away.

:class:`LocalCluster` is the deployment harness the identity battery,
the failover tests, the chaos runs and the ``repro cluster`` CLI all
share.  It runs the full production path — LPT shard plan, global
statistics exchange, per-shard engine builds with injected ElemRanks,
one real HTTP server per replica on an ephemeral port, scatter-gather
coordinator over real :class:`~repro.service.client.ServiceClient`
RPCs — inside one process, so a 4-shard × 2-replica cluster boots in a
test in well under a second and there is no mock transport whose
behaviour could drift from production's.

Replicas of a shard share the (read-only, immutable once built) engine
object by default; pass ``independent_engines=True`` to round-trip each
extra replica through an engine snapshot instead, which is exactly the
bring-up path a separate worker process uses.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..build.shard import DocumentSpec, parse_spec, shard_specs, specs_from
from ..config import XRankConfig
from ..errors import ClusterError
from .coordinator import ClusterCoordinator, ReplicaEndpoint
from .stats import GlobalStats, build_full_graph, compute_global_stats
from .worker import DEFAULT_CLUSTER_KINDS, ShardWorker, build_shard_engine


class LocalCluster:
    """A started-on-demand sharded/replicated cluster in one process."""

    def __init__(
        self,
        specs: Sequence[DocumentSpec],
        num_shards: int = 2,
        replicas: int = 1,
        kinds: Sequence[str] = DEFAULT_CLUSTER_KINDS,
        config: Optional[XRankConfig] = None,
        independent_engines: bool = False,
        coordinator_options: Optional[Dict[str, object]] = None,
        worker_options: Optional[Dict[str, object]] = None,
        snapshot_root: Optional[str] = None,
    ):
        """Args:
            worker_options: extra keyword arguments for every
                :class:`~repro.cluster.worker.ShardWorker` (e.g.
                ``{"profile": True}`` to collect per-query cost profiles
                on each replica); also applied to replicas resurrected
                via :meth:`restart_from_snapshot`.
            snapshot_root: enable the restart–rejoin path — each shard
                gets a generational :class:`~repro.durability.
                SnapshotStore` under this directory, seeded with one
                committed generation at build time, and
                :meth:`restart_from_snapshot` can then resurrect a
                replica from disk instead of from the in-process engine.
        """
        if replicas < 1:
            raise ClusterError(f"replicas must be >= 1, got {replicas}")
        self.specs = list(specs)
        if not self.specs:
            raise ClusterError("cannot build a cluster over an empty corpus")
        self.kinds = tuple(kinds)
        self.config = config
        self.replicas = replicas
        self.coordinator_options = dict(coordinator_options or {})
        self.worker_options = dict(worker_options or {})
        self.snapshot_root = Path(snapshot_root) if snapshot_root else None
        self.stores: Dict[int, object] = {}
        self.rejoins = 0

        # 1. Shard plan: the same deterministic LPT partition the parallel
        #    build uses (doc ids were assigned before sharding).
        self.shard_plan: List[List[DocumentSpec]] = [
            shard for shard in shard_specs(self.specs, num_shards) if shard
        ]
        self.num_shards = len(self.shard_plan)

        # 2. Parse each spec once, run the global-statistics exchange over
        #    the full corpus, and drop the full graph: only its documents
        #    live on, handed to their shards (a graph never mutates them).
        #    The documents share one string per distinct word.
        word_table: Dict[str, str] = {}
        documents = [parse_spec(spec, word_table) for spec in self.specs]
        self.stats: GlobalStats = compute_global_stats(
            build_full_graph(documents), config
        )
        by_id = {document.doc_id: document for document in documents}

        # 3. Per-shard engines with injected global ElemRanks.
        self.workers: List[List[ShardWorker]] = []
        for shard_id, shard in enumerate(self.shard_plan):
            engine = build_shard_engine(
                [by_id[spec.doc_id] for spec in shard],
                self.stats,
                kinds=self.kinds,
                config=config,
            )
            if self.snapshot_root is not None:
                from ..durability import SnapshotStore

                store = SnapshotStore(self.snapshot_root / f"shard-{shard_id}")
                store.save(engine)
                self.stores[shard_id] = store
            shard_store = self.stores.get(shard_id)
            group: List[ShardWorker] = [
                ShardWorker(
                    engine,
                    shard_id=shard_id,
                    replica_id=0,
                    snapshot_store=shard_store,
                    **self.worker_options,
                )
            ]
            for replica_id in range(1, replicas):
                if independent_engines:
                    with tempfile.TemporaryDirectory() as scratch:
                        snapshot = Path(scratch) / "engine"
                        engine.save(snapshot)
                        group.append(
                            ShardWorker.from_snapshot(
                                snapshot,
                                shard_id=shard_id,
                                replica_id=replica_id,
                                **self.worker_options,
                            )
                        )
                else:
                    group.append(
                        ShardWorker(
                            engine,
                            shard_id=shard_id,
                            replica_id=replica_id,
                            snapshot_store=shard_store,
                            **self.worker_options,
                        )
                    )
            self.workers.append(group)
        self.coordinator: Optional[ClusterCoordinator] = None

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Sequence, **options) -> "LocalCluster":
        """Build from any corpus items :func:`~repro.build.shard.specs_from`
        takes: XML strings, ``(source, uri)`` pairs, paths or specs."""
        return cls(specs_from(sources), **options)

    @classmethod
    def from_corpus(cls, corpus, **options) -> "LocalCluster":
        """Build from a generated :class:`~repro.datasets.dblp.Corpus`.

        Reuses each document's URI so cross-document citation links
        resolve in the full-corpus graph exactly as the generator's own
        graph resolved them.
        """
        specs = [
            DocumentSpec(
                doc_id=document.doc_id, uri=document.uri, source=source
            )
            for document, source in zip(corpus.documents, corpus.sources)
        ]
        return cls(specs, **options)

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "LocalCluster":
        """Start every replica's HTTP server and wire up the coordinator."""
        for group in self.workers:
            for worker in group:
                worker.start()
        self.coordinator = ClusterCoordinator(
            [
                [self._endpoint(worker) for worker in group]
                for group in self.workers
            ],
            default_kind=(
                "hdil" if "hdil" in self.kinds else self.kinds[-1]
            ),
            **self.coordinator_options,
        )
        return self

    def stop(self) -> None:
        for group in self.workers:
            for worker in group:
                if worker.running:
                    worker.stop()
        self.coordinator = None

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- failure injection (failover tests, chaos, CLI demos) ------------------------

    def worker(self, shard_id: int, replica_id: int) -> ShardWorker:
        for candidate in self.workers[shard_id]:
            if candidate.replica_id == replica_id:
                return candidate
        raise ClusterError(f"no replica {replica_id} in shard {shard_id}")

    def kill(self, shard_id: int, replica_id: int) -> None:
        """Drop one replica's listener, as a crashed process would."""
        self.worker(shard_id, replica_id).kill()

    def restart(self, shard_id: int, replica_id: int) -> ReplicaEndpoint:
        """Bring a killed replica back (new ephemeral port) and announce
        its new address to the coordinator."""
        worker = self.worker(shard_id, replica_id)
        worker.start()
        endpoint = self._endpoint(worker)
        if self.coordinator is not None:
            self.coordinator.replace_endpoint(endpoint)
        return endpoint

    def restart_from_snapshot(
        self, shard_id: int, replica_id: int, span=None
    ) -> ReplicaEndpoint:
        """Resurrect a replica from its shard's snapshot store.

        The hard-crash restart path: unlike :meth:`restart` (which
        reuses the still-in-memory engine, i.e. a listener blip), this
        discards the old worker object entirely and goes through the
        full crash→recover→re-verify→re-register cycle —
        :meth:`~repro.cluster.worker.ShardWorker.rejoin_from_store`
        recovers the newest intact generation, re-checks global-stats
        coverage, and the fresh worker's new endpoint is announced to
        the coordinator.
        """
        if self.snapshot_root is None:
            raise ClusterError(
                "cluster was built without snapshot_root; "
                "there is nothing on disk to rejoin from"
            )
        old = self.worker(shard_id, replica_id)
        if old.running:
            old.kill()
        worker = ShardWorker.rejoin_from_store(
            self.stores[shard_id],
            shard_id=shard_id,
            replica_id=replica_id,
            stats=self.stats,
            span=span,
            **self.worker_options,
        )
        group = self.workers[shard_id]
        group[group.index(old)] = worker
        worker.start()
        self.rejoins += 1
        endpoint = self._endpoint(worker)
        if self.coordinator is not None:
            self.coordinator.replace_endpoint(endpoint)
        return endpoint

    # -- queries ---------------------------------------------------------------------

    def search(self, query: str, **options):
        if self.coordinator is None:
            raise ClusterError("cluster is not started")
        return self.coordinator.search(query, **options)

    def profile_snapshot(self) -> Dict[str, object]:
        """The coordinator-merged cluster-wide cost profile."""
        if self.coordinator is None:
            raise ClusterError("cluster is not started")
        return self.coordinator.profile_snapshot()

    # -- introspection ---------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        return {
            "shards": self.num_shards,
            "replicas": self.replicas,
            "documents": self.stats.num_documents,
            "elements": self.stats.num_elements,
            "kinds": list(self.kinds),
            "elemrank_iterations": self.stats.elemrank_iterations,
            "elemrank_converged": self.stats.elemrank_converged,
            "shard_sizes": [len(shard) for shard in self.shard_plan],
            "workers": [
                [worker.describe() for worker in group]
                for group in self.workers
            ],
            "rejoins": self.rejoins,
            "snapshot_stores": {
                str(shard_id): store.counters()
                for shard_id, store in sorted(self.stores.items())
            },
        }

    @staticmethod
    def _endpoint(worker: ShardWorker) -> ReplicaEndpoint:
        return ReplicaEndpoint(
            shard_id=worker.shard_id,
            replica_id=worker.replica_id,
            host=worker.host,
            port=worker.port,
        )
