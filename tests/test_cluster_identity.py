"""The cluster's acceptance bar: sharded answers == single-node answers.

Bit-for-bit: same Dewey IDs, same float ranks, same order, same
snippets, at every shard count, through the real HTTP scatter-gather
path.
"""

from __future__ import annotations

import pytest

from repro.cluster.local import LocalCluster
from repro.cluster.verify import (
    default_cluster_corpus,
    single_node_oracle,
    verify_cluster_identity,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def corpus():
    return default_cluster_corpus(num_papers=18, seed=23)


@pytest.fixture(scope="module")
def oracle(corpus):
    specs, _queries = corpus
    return single_node_oracle(specs)


class TestIdentityBattery:
    def test_battery_shards_1_2_4(self):
        problems = verify_cluster_identity(
            shard_counts=(1, 2, 4), num_papers=18, m=8
        )
        assert problems == []

    def test_battery_with_replicas(self):
        problems = verify_cluster_identity(
            shard_counts=(2,), replicas=2, num_papers=14, m=6
        )
        assert problems == []


class TestIdentityDetails:
    def test_ranks_identical_to_float_bits(self, corpus, oracle):
        specs, queries = corpus
        with LocalCluster(specs, num_shards=3) as cluster:
            for query in queries[:3]:
                expected = oracle.search(query, m=10, kind="hdil").to_dict()
                actual = cluster.search(query, m=10, kind="hdil").to_dict()
                assert [h["rank"] for h in actual["results"]] == [
                    h["rank"] for h in expected["results"]
                ]
                assert actual["results"] == expected["results"]

    def test_or_mode_and_offset_identical(self, corpus, oracle):
        specs, queries = corpus
        with LocalCluster(specs, num_shards=3) as cluster:
            query = queries[0]
            for options in (
                dict(m=8, mode="or"),
                dict(m=5, offset=4),
                dict(m=5, offset=4, mode="or"),
            ):
                expected = oracle.search(query, **options).to_dict()
                actual = cluster.search(query, **options).to_dict()
                assert actual["results"] == expected["results"], options

    def test_fault_free_cluster_never_degrades(self, corpus):
        specs, queries = corpus
        with LocalCluster(specs, num_shards=2) as cluster:
            for query in queries:
                response = cluster.search(query, m=5)
                assert response.degraded is False
                assert response.missing_shards == []

    def test_snapshot_restored_replicas_identical(
        self, corpus, oracle, tmp_path
    ):
        # Replica bring-up via snapshot recovery must not change answers:
        # every replica, each restored from its shard's store, answers
        # every query exactly as the single-node oracle does.
        specs, queries = corpus
        with LocalCluster(
            specs,
            num_shards=2,
            replicas=2,
            snapshot_root=str(tmp_path),
        ) as cluster:
            for group in cluster.workers:
                for worker in list(group):
                    cluster.restart_from_snapshot(
                        worker.shard_id, worker.replica_id
                    )
            assert cluster.rejoins == 4
            for replica_id in range(2):
                # Crash every other replica, so each query is answered by
                # replica ``replica_id`` of every shard.
                for shard_id in range(cluster.num_shards):
                    cluster.kill(shard_id, 1 - replica_id)
                for query in queries:
                    expected = oracle.search(query, m=8).to_dict()["results"]
                    actual = cluster.search(query, m=8, deadline_ms=30000)
                    assert actual.degraded is False
                    assert actual.to_dict()["results"] == expected, query
                for shard_id in range(cluster.num_shards):
                    cluster.restart(shard_id, 1 - replica_id)
