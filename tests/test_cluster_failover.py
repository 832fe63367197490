"""Replica failover, degraded answers, deadline propagation, snapshots."""

from __future__ import annotations

import pytest

from repro.cluster.coordinator import ClusterCoordinator, ReplicaEndpoint
from repro.build.shard import parse_spec, specs_from
from repro.cluster.local import LocalCluster
from repro.cluster.stats import build_full_graph, compute_global_stats
from repro.cluster.worker import ShardWorker, build_shard_engine
from repro.errors import (
    ClusterError,
    ServiceHTTPError,
    ShardUnavailableError,
)
from repro.service.client import ServiceClient

CORPUS = [
    "<doc><p>alpha beta shared one</p></doc>",
    "<doc><p>gamma shared two</p></doc>",
    "<doc><p>alpha delta three</p></doc>",
    "<doc><p>epsilon shared four</p></doc>",
    "<doc><p>alpha closing five</p></doc>",
    "<doc><p>zeta shared six</p></doc>",
]


@pytest.fixture()
def cluster():
    with LocalCluster.from_sources(
        CORPUS,
        num_shards=2,
        replicas=2,
        coordinator_options={"breaker_threshold": 2, "breaker_cooldown": 3},
    ) as running:
        yield running


class TestFailover:
    def test_replica_kill_is_invisible(self, cluster):
        before = cluster.search("shared", m=6).to_dict()["results"]
        cluster.kill(0, 0)
        after = cluster.search("shared", m=6, deadline_ms=5000).to_dict()
        assert after["results"] == before
        assert after["degraded"] is False
        assert cluster.coordinator.failovers >= 1

    def test_served_by_reports_failover_target(self, cluster):
        cluster.kill(1, 0)
        response = cluster.search("shared", m=6)
        assert response.served_by[1] == 1
        assert response.served_by[0] == 0

    def test_breaker_trips_after_consecutive_failures(self, cluster):
        cluster.kill(0, 0)
        for _ in range(3):
            cluster.search("shared", m=4)
        assert cluster.coordinator.breaker.is_open("shard0/replica0")

    def test_restart_recovers_full_service(self, cluster):
        expected = cluster.search("alpha", m=6).to_dict()["results"]
        cluster.kill(0, 0)
        cluster.kill(0, 1)
        degraded = cluster.search("alpha", m=6)
        assert degraded.degraded is True
        cluster.restart(0, 0)
        # Walk the breaker's query-counted cooldown off.
        for _ in range(6):
            recovered = cluster.search("alpha", m=6)
        assert recovered.to_dict()["results"] == expected
        assert recovered.degraded is False


class TestDegradedAnswers:
    def test_whole_shard_down_flags_degraded_with_missing_shard(
        self, cluster
    ):
        cluster.kill(1, 0)
        cluster.kill(1, 1)
        response = cluster.search("shared", m=6)
        assert response.degraded is True
        assert response.missing_shards == [1]
        payload = response.to_dict()
        assert payload["cluster"]["missing_shards"] == [1]
        assert payload["cluster"]["shards_answered"] == 1
        # The surviving shard's results still come back.
        assert payload["results"]

    def test_partial_results_are_the_surviving_shards_answer(self, cluster):
        full = cluster.search("shared", m=6).to_dict()["results"]
        cluster.kill(1, 0)
        cluster.kill(1, 1)
        partial = cluster.search("shared", m=6).to_dict()["results"]
        surviving_docs = {
            spec.doc_id for spec in cluster.shard_plan[0]
        }
        assert partial == [
            hit
            for hit in full
            if int(hit["dewey"].split(".")[0]) in surviving_docs
        ]

    def test_allow_partial_false_raises_typed_error(self):
        with LocalCluster.from_sources(
            CORPUS,
            num_shards=2,
            replicas=1,
            coordinator_options={"allow_partial": False},
        ) as cluster:
            cluster.kill(0, 0)
            with pytest.raises(ShardUnavailableError):
                cluster.search("shared", m=4)

    def test_request_errors_are_not_failed_over(self, cluster):
        # A bad request (unknown kind) would fail identically on every
        # replica: it must propagate, not burn the breaker.
        with pytest.raises(ServiceHTTPError) as excinfo:
            cluster.search("shared", m=4, kind="nonsense")
        assert excinfo.value.status == 400
        assert cluster.coordinator.failovers == 0


class TestDeadlinePropagation:
    def test_remaining_budget_reaches_workers(self, cluster):
        captured = []
        original = ServiceClient.search

        def spy(self, query, **options):
            captured.append(options.get("deadline_ms"))
            return original(self, query, **options)

        ServiceClient.search = spy
        try:
            cluster.search("shared", m=4, deadline_ms=5000)
        finally:
            ServiceClient.search = original
        assert captured, "no RPCs were issued"
        assert all(
            budget is not None and 0 <= budget <= 5000 for budget in captured
        )

    def test_no_deadline_means_no_limit(self, cluster):
        response = cluster.search("shared", m=4)
        assert response.degraded is False

    def test_expired_deadline_degrades_instead_of_hanging(self, cluster):
        response = cluster.search("shared", m=4, deadline_ms=0.0)
        assert response.degraded is True
        assert set(response.missing_shards) == {0, 1}
        assert response.to_dict()["results"] == []


class TestWorkerSnapshots:
    def test_replica_bring_up_from_snapshot(self, tmp_path):
        documents = [parse_spec(spec) for spec in specs_from(CORPUS)]
        stats = compute_global_stats(build_full_graph(documents))
        engine = build_shard_engine(documents[:3], stats)
        primary = ShardWorker(engine, shard_id=0).start()
        snapshot = tmp_path / "shard0.xrank"
        primary.snapshot(snapshot)
        replica = ShardWorker.from_snapshot(
            snapshot, shard_id=0, replica_id=1
        ).start()
        try:
            a = ServiceClient("127.0.0.1", primary.port).search(
                "alpha", m=5, deadline_ms=5000
            )
            b = ServiceClient("127.0.0.1", replica.port).search(
                "alpha", m=5, deadline_ms=5000
            )
            assert a["results"] == b["results"]
        finally:
            primary.stop()
            replica.stop()

    def test_port_raises_when_not_running(self):
        documents = [parse_spec(spec) for spec in specs_from(CORPUS[:2])]
        stats = compute_global_stats(build_full_graph(documents))
        worker = ShardWorker(build_shard_engine(documents, stats), shard_id=0)
        with pytest.raises(ClusterError):
            _ = worker.port


class TestCoordinatorSurface:
    def test_add_xml_is_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.coordinator.add_xml("<doc><p>new</p></doc>")

    def test_healthz_reflects_open_breakers(self, cluster):
        assert cluster.coordinator.healthz()["status"] == "ok"
        cluster.kill(0, 0)
        for _ in range(3):
            cluster.search("shared", m=4)
        health = cluster.coordinator.healthz()
        assert health["status"] == "degraded"
        assert "shard0/replica0" in health["open_breakers"]

    def test_stats_counts_queries_and_topology(self, cluster):
        cluster.search("shared", m=4)
        stats = cluster.coordinator.stats()
        assert stats["cluster"]["queries"] == 1
        assert stats["topology"] == [
            ["shard0/replica0", "shard0/replica1"],
            ["shard1/replica0", "shard1/replica1"],
        ]

    def test_empty_group_rejected(self):
        with pytest.raises(ClusterError):
            ClusterCoordinator([[]])

    def test_replace_endpoint_updates_group(self, cluster):
        endpoint = ReplicaEndpoint(
            shard_id=0, replica_id=0, host="127.0.0.1", port=1
        )
        cluster.coordinator.replace_endpoint(endpoint)
        assert cluster.coordinator.shard_groups[0][0].port == 1


class TestRestartFromSnapshot:
    """The hard-crash rejoin path: a killed replica comes back from the
    shard's on-disk snapshot store, not the in-memory engine."""

    def test_rejoin_serves_identical_answers(self, tmp_path):
        with LocalCluster.from_sources(
            CORPUS, num_shards=2, replicas=2,
            snapshot_root=str(tmp_path / "snaps"),
        ) as cluster:
            before = cluster.search("shared", m=5).hits
            cluster.kill(0, 1)
            cluster.restart_from_snapshot(0, 1)
            after = cluster.search("shared", m=5).hits
            assert after == before
            described = cluster.describe()
            assert described["rejoins"] == 1
            stores = described["snapshot_stores"]
            assert stores["0"]["recoveries"] == 1
            assert stores["0"]["writes"] == 1

    def test_rejoined_worker_is_queryable_directly(self, tmp_path):
        with LocalCluster.from_sources(
            CORPUS, num_shards=1, replicas=2,
            snapshot_root=str(tmp_path / "snaps"),
        ) as cluster:
            endpoint = cluster.restart_from_snapshot(0, 0)
            client = ServiceClient(endpoint.host, endpoint.port)
            answer = client.search("alpha", m=5, deadline_ms=5000)
            assert answer["results"]

    def test_rejoin_without_snapshot_root_is_typed(self):
        with LocalCluster.from_sources(CORPUS, num_shards=1) as cluster:
            with pytest.raises(ClusterError, match="snapshot_root"):
                cluster.restart_from_snapshot(0, 0)
