"""Cross-process trace stitching through a real local cluster: one query
must yield one tree spanning coordinator, scatter, RPCs, and workers —
and replica failures mid-query must show up *in* that tree."""

from __future__ import annotations

import pytest

from repro.cluster.local import LocalCluster
from repro.obs import Tracer, render_trace, validate_trace
from repro.obs.render import traces_canonical_json
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
def traced_cluster():
    with LocalCluster.from_sources(
        CORPUS,
        num_shards=2,
        replicas=2,
        coordinator_options={
            "tracer": Tracer(sample="always"),
            "breaker_threshold": 2,
            "breaker_cooldown": 3,
        },
    ) as running:
        yield running


def spans_by_name(root):
    found = {}

    def walk(span):
        found.setdefault(span.name, []).append(span)
        for child in span.children:
            walk(child)

    walk(root)
    return found


class TestStitchedTrace:
    def test_one_query_yields_one_stitched_valid_tree(self, traced_cluster):
        traced_cluster.search("shared", m=6)
        (root,) = traced_cluster.coordinator.tracer.buffer.traces()
        assert validate_trace(root) == [], render_trace(root)
        assert root.name == "cluster.search"

        named = spans_by_name(root)
        (scatter,) = named["scatter"]
        assert scatter.attrs["parallel"] is True
        assert len(named["shard.rpc"]) == 2  # one per shard group
        # Every RPC grafted the worker's own span tree back in: the
        # remote service.search segments are part of *this* trace.
        assert len(named["service.search"]) == 2
        for remote_root in named["service.search"]:
            assert remote_root.remote
            assert remote_root.trace_id == root.trace_id
        assert len(named["merge"]) == 1

    def test_workers_only_trace_when_the_coordinator_asks(
        self, traced_cluster
    ):
        traced_cluster.search("shared", m=6)
        (root,) = traced_cluster.coordinator.tracer.buffer.traces()
        for group in traced_cluster.workers:
            # Workers run with sampling off, so ordinary traffic is never
            # traced — but the forwarded context force-samples the
            # request, and the serving replica retains its own segment
            # too (its /traces endpoint stays useful on its own).  The
            # other replica of the group never saw the query.  Each
            # replica is its own process, so its buffer is read over
            # /traces.
            group_segments = []
            for worker in group:
                client = ServiceClient(worker.host, worker.port)
                try:
                    retained = client.traces()
                finally:
                    client.close()
                assert retained["tracer"]["sample"] == "never"
                group_segments.extend(retained["traces"])
            assert [s["trace_id"] for s in group_segments] == [root.trace_id]

    def test_canonical_structure_is_stable_across_fresh_clusters(self):
        documents = []
        for _ in range(2):
            with LocalCluster.from_sources(
                CORPUS,
                num_shards=2,
                replicas=2,
                coordinator_options={"tracer": Tracer(sample="always")},
            ) as cluster:
                for query in ("shared", "alpha beta"):
                    cluster.search(query, m=6)
                documents.append(
                    traces_canonical_json(
                        cluster.coordinator.tracer.buffer.traces()
                    )
                )
        assert documents[0] == documents[1]


class TestFailureVisibility:
    def test_replica_kill_surfaces_as_failover_span_events(
        self, traced_cluster
    ):
        traced_cluster.kill(0, 0)
        response = traced_cluster.search("shared", m=6, deadline_ms=5000)
        assert response.degraded is False  # replica 1 answered

        (root,) = traced_cluster.coordinator.tracer.buffer.traces()
        assert validate_trace(root) == [], render_trace(root)
        named = spans_by_name(root)
        rpc_events = [
            event["name"]
            for span in named["rpc"]
            for event in span.events
        ]
        shard_events = [
            event["name"]
            for span in named["shard.rpc"]
            for event in span.events
        ]
        # The dead replica's RPC failed, the coordinator failed over, and
        # both facts are visible in the trace — not just in counters.
        assert "rpc_error" in rpc_events
        assert "failover" in shard_events
        # The failover's successful retry still grafted a worker tree.
        assert len(named["service.search"]) == 2

    def test_whole_shard_down_marks_the_trace_degraded(self, traced_cluster):
        traced_cluster.kill(1, 0)
        traced_cluster.kill(1, 1)
        response = traced_cluster.search("shared", m=6)
        assert response.degraded is True

        root = traced_cluster.coordinator.tracer.buffer.traces()[-1]
        assert validate_trace(root) == [], render_trace(root)
        named = spans_by_name(root)
        root_events = {event["name"] for event in root.events}
        assert "missing_shard" in root_events
        assert "degraded" in root_events
        # Only the surviving shard contributed a remote segment.
        assert len(named["service.search"]) == 1

    def test_breaker_skip_is_visible_after_trips(self, traced_cluster):
        traced_cluster.kill(0, 0)
        for _ in range(3):
            traced_cluster.search("shared", m=4)
        root = traced_cluster.coordinator.tracer.buffer.traces()[-1]
        named = spans_by_name(root)
        events = [
            event["name"]
            for span in named["shard.rpc"]
            for event in span.events
        ]
        assert "breaker_skip" in events

    def test_missing_shards_total_reaches_coordinator_stats(
        self, traced_cluster
    ):
        traced_cluster.kill(0, 0)
        traced_cluster.kill(0, 1)
        traced_cluster.search("shared", m=6)
        counters = traced_cluster.coordinator.stats()["cluster"]
        assert counters["missing_shards_total"] >= 1
        assert counters["degraded_total"] >= 1
