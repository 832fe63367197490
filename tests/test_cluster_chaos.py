"""Cluster chaos harness: deterministic, honest, zero silent wrong answers."""

from __future__ import annotations

import json

import pytest

from repro.cluster.chaos import RPCFaultInjector, run_cluster_chaos
from repro.harness import OUTCOMES

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def report():
    return run_cluster_chaos(
        seed=11, num_queries=10, num_papers=10, shards=2, replicas=2
    )


class TestInjectorDeterminism:
    def test_per_replica_streams_are_independent(self):
        a = RPCFaultInjector(seed=3, rate=0.5)
        b = RPCFaultInjector(seed=3, rate=0.5)
        names = ["shard0/replica0", "shard0/replica1", "shard1/replica0"]
        # Consulting replicas in a different order must not change any
        # replica's own fault stream (thread scheduling independence).
        seq_a = [a.should_fail(n) for n in names for _ in range(5)]
        seq_b = [
            b.should_fail(n)
            for _ in range(5)
            for n in reversed(names)
        ]
        assert sorted(seq_a) == sorted(seq_b)
        counts_a = {n: sum(a.should_fail(n) for _ in range(20)) for n in names}
        counts_b = {n: sum(b.should_fail(n) for _ in range(20)) for n in names}
        assert counts_a == counts_b

    def test_zero_rate_never_fires(self):
        injector = RPCFaultInjector(seed=1, rate=0.0)
        assert not any(
            injector.should_fail("shard0/replica0") for _ in range(50)
        )
        assert injector.injected == 0


class TestChaosRun:
    def test_no_silent_wrong_answers(self, report):
        assert report.ok is True
        assert report.outcomes.get("mismatch", 0) == 0
        assert report.outcomes.get("untyped_error", 0) == 0
        assert report.violations == []

    def test_every_query_is_accounted_for(self, report):
        assert set(report.outcomes) <= set(OUTCOMES)
        assert sum(report.outcomes.values()) == report.queries == 10

    def test_faults_were_actually_injected(self, report):
        # A chaos run that never hurts anything proves nothing.
        assert report.kills + report.rpc_faults_injected > 0

    def test_report_is_bit_for_bit_deterministic(self, report):
        again = run_cluster_chaos(
            seed=11, num_queries=10, num_papers=10, shards=2, replicas=2
        )
        assert again.to_json() == report.to_json()

    def test_report_json_has_no_wall_clock(self, report):
        payload = json.loads(report.to_json())
        assert "seed" in payload and "outcomes" in payload
        for key in payload:
            assert "time" not in key and "latency" not in key

    def test_canonical_keys_are_pinned(self, report):
        # The shared serializer cannot add or drop a key silently.
        assert set(json.loads(report.to_json())) == {
            "seed",
            "shards",
            "replicas",
            "kind",
            "documents",
            "queries",
            "kill_rate",
            "rpc_fault_rate",
            "outcomes",
            "violations",
            "kills",
            "restarts",
            "rejoins",
            "snapshot_recoveries",
            "snapshot_fallbacks",
            "rpc_faults_injected",
            "failovers",
            "breaker_trips",
            "degraded_with_missing_shards",
            "ok",
        }
