"""Seeded chaos for the cluster: replica kills + RPC faults vs an oracle.

Same philosophy as the single-node harness (:mod:`repro.chaos`): build a
fault-free single-node oracle, run the same seeded workload through a
cluster while injecting failures, and classify every answer.  The
failure vocabulary here is the distributed one — replica processes dying
mid-workload, replicas coming back (sometimes the easy way, sometimes by
recovering their shard from its snapshot store and rejoining), RPCs
failing in flight — and the
invariant is the same hard line: **zero silent wrong answers**.  Every
cluster response is either bit-identical to the oracle (``match``),
honestly flagged (``degraded`` with named missing shards), or a typed
error; ``mismatch`` (wrong yet unflagged) and ``untyped_error`` break
the run.

Determinism: the kill/restart schedule and every RPC-fault decision are
pure functions of the seed.  Queries run one at a time; within a query
the scatter is concurrent, but fault decisions are drawn from
*per-replica* seeded streams and each replica is consulted at most once
per query, so thread interleaving cannot reorder any stream.  Reports
carry no wall-clock data and serialize bit-for-bit reproducibly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import ServiceHTTPError
from ..harness import CanonicalReport, Verdicts
from ..service.client import ServiceClient
from .coordinator import ReplicaEndpoint
from .local import LocalCluster
from .verify import default_cluster_corpus, single_node_oracle


class RPCFaultInjector:
    """Per-replica seeded fault streams for in-flight RPC failures."""

    def __init__(self, seed: int, rate: float):
        self.seed = seed
        self.rate = rate
        self._streams: Dict[str, random.Random] = {}
        self.injected = 0

    def should_fail(self, replica_name: str) -> bool:
        if self.rate <= 0:
            return False
        stream = self._streams.get(replica_name)
        if stream is None:
            # Stable per-replica stream: independent of the order in
            # which replicas first appear.
            stream = random.Random(f"{self.seed}:{replica_name}")
            self._streams[replica_name] = stream
        if stream.random() < self.rate:
            self.injected += 1
            return True
        return False


class FaultableClient:
    """A :class:`ServiceClient` wrapper that can lose RPCs on purpose.

    Only ``search`` is interposed — that is the coordinator's only
    query-path RPC — and an injected fault surfaces as the same typed
    :class:`~repro.errors.ServiceHTTPError` (status 0) a vanished server
    produces, so the coordinator's failover path cannot tell drills from
    real failures.
    """

    def __init__(
        self,
        endpoint: ReplicaEndpoint,
        injector: RPCFaultInjector,
        timeout: float = 5.0,
    ):
        self.endpoint = endpoint
        self.injector = injector
        self._inner = ServiceClient(
            endpoint.host, endpoint.port, timeout=timeout, max_retries=0
        )

    def search(self, query: str, deadline_ms=None, trace_ctx=None, **options):
        if self.injector.should_fail(self.endpoint.name):
            raise ServiceHTTPError(
                0,
                {
                    "error": "injected rpc fault (chaos)",
                    "type": "InjectedRPCFault",
                },
            )
        return self._inner.search(
            query, deadline_ms=deadline_ms, trace_ctx=trace_ctx, **options
        )

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


@dataclass
class ClusterChaosReport(CanonicalReport):
    """Deterministic result of one cluster chaos run (no wall clock)."""

    seed: int = 0
    shards: int = 0
    replicas: int = 0
    kind: str = "hdil"
    documents: int = 0
    queries: int = 0
    kill_rate: float = 0.0
    rpc_fault_rate: float = 0.0
    outcomes: Dict[str, int] = field(default_factory=dict)
    violations: List[Dict[str, object]] = field(default_factory=list)
    kills: int = 0
    restarts: int = 0
    rejoins: int = 0
    snapshot_recoveries: int = 0
    snapshot_fallbacks: int = 0
    rpc_faults_injected: int = 0
    failovers: int = 0
    breaker_trips: int = 0
    degraded_with_missing_shards: int = 0
    ok: bool = True


def run_cluster_chaos(
    seed: int = 1337,
    num_queries: int = 30,
    num_papers: int = 30,
    shards: int = 2,
    replicas: int = 2,
    kind: str = "hdil",
    m: int = 10,
    kill_rate: float = 0.15,
    restart_rate: float = 0.3,
    rpc_fault_rate: float = 0.05,
    rejoin_rate: float = 0.5,
) -> ClusterChaosReport:
    """One seeded storm of replica kills and RPC faults vs the oracle.

    Before each query the scheduler may (seeded) kill a running replica
    or restart a dead one; during each query every RPC may (seeded,
    per-replica stream) fail in flight.  Answers are classified against
    the fault-free single-node oracle; ``report.ok`` is False iff a
    silent wrong answer or an untyped error occurred.

    Revivals split (seeded, ``rejoin_rate``) between a fresh replica
    process forked from the worker's in-memory image and the full crash
    path — the worker object is discarded and
    :meth:`LocalCluster.restart_from_snapshot` recovers the shard from
    its on-disk snapshot store, re-verifies global-stats coverage, and
    re-registers with the coordinator.  A
    rejoined replica's answers flow through the same oracle
    classification, so a recovery that resurrected wrong state would
    surface as a ``mismatch`` violation.
    """
    import tempfile
    specs, queries = default_cluster_corpus(num_papers, seed=seed % 1000 + 3)
    if num_queries > len(queries):
        queries = [
            queries[index % len(queries)] for index in range(num_queries)
        ]
    else:
        queries = list(queries[:num_queries])

    oracle = single_node_oracle(specs)
    injector = RPCFaultInjector(seed=seed, rate=rpc_fault_rate)
    scheduler = random.Random(seed * 7919 + 13)

    verdicts = Verdicts()
    report = ClusterChaosReport(
        seed=seed,
        shards=shards,
        replicas=replicas,
        kind=kind,
        documents=len(specs),
        queries=len(queries),
        kill_rate=kill_rate,
        rpc_fault_rate=rpc_fault_rate,
        outcomes=verdicts.outcomes,
        violations=verdicts.violations,
    )

    snapshot_scratch = tempfile.TemporaryDirectory(prefix="repro-chaos-snap-")
    cluster = LocalCluster(
        specs,
        num_shards=shards,
        replicas=replicas,
        coordinator_options={
            "client_factory": lambda endpoint: FaultableClient(
                endpoint, injector
            ),
            # Small, deterministic breaker so storms actually trip it.
            "breaker_threshold": 2,
            "breaker_cooldown": 4,
        },
        snapshot_root=snapshot_scratch.name,
    )
    dead: List[tuple] = []
    with snapshot_scratch, cluster:
        alive = [
            (group_id, worker.replica_id)
            for group_id, group in enumerate(cluster.workers)
            for worker in group
        ]
        for number, query in enumerate(queries):
            # -- seeded failure schedule (before each query) ----------------
            if alive and len(alive) > shards and scheduler.random() < kill_rate:
                # Never kill the last replica of every shard at once;
                # beyond that, any replica is fair game — including the
                # last one of a *single* shard (that is what degraded
                # answers are for).
                victim = alive.pop(scheduler.randrange(len(alive)))
                cluster.kill(*victim)
                dead.append(victim)
                report.kills += 1
            if dead and scheduler.random() < restart_rate:
                revived = dead.pop(scheduler.randrange(len(dead)))
                if scheduler.random() < rejoin_rate:
                    # Full crash path: recover the shard from disk.
                    cluster.restart_from_snapshot(*revived)
                    report.rejoins += 1
                else:
                    cluster.restart(*revived)
                alive.append(revived)
                report.restarts += 1

            # -- the query, classified against the oracle -------------------
            def ask():
                response = cluster.search(
                    query, m=m, kind=kind, deadline_ms=None
                ).to_dict()
                if response["degraded"] and response["cluster"]["missing_shards"]:
                    report.degraded_with_missing_shards += 1
                return response["degraded"], response["results"]

            verdicts.judge(
                ask,
                oracle.search(query, m=m, kind=kind).to_dict()["results"],
                query_number=number,
                query=query,
            )
        coordinator = cluster.coordinator
        report.failovers = coordinator.failovers
        report.breaker_trips = coordinator.breaker.trips
        for store in cluster.stores.values():
            counters = store.counters()
            report.snapshot_recoveries += counters["recoveries"]
            report.snapshot_fallbacks += counters["fallbacks"]
    report.rpc_faults_injected = injector.injected
    report.ok = verdicts.ok
    return report
