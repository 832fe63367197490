"""ServiceClient keep-alive pooling: reuse, stale fallback, opt-out."""

from __future__ import annotations

import threading

import pytest

from repro.engine import XRankEngine
from repro.service.client import ServiceClient
from repro.service.core import XRankService
from repro.service.server import make_server

DOC = "<doc><title>alpha pool</title><p>alpha beta gamma</p></doc>"


def start_server(port=0):
    engine = XRankEngine()
    engine.add_xml(DOC, uri="doc0")
    engine.build(kinds=["hdil"])
    server = make_server(XRankService(engine), host="127.0.0.1", port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def stop_server(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def served():
    server, thread = start_server()
    try:
        yield server
    finally:
        stop_server(server, thread)


class TestKeepAlivePool:
    def test_sequential_requests_reuse_the_connection(self, served):
        client = ServiceClient("127.0.0.1", served.server_address[1])
        try:
            for _ in range(4):
                assert client.search("alpha", m=3)["results"]
            assert client.pool_reuses >= 3
        finally:
            client.close()

    def test_close_drains_the_idle_pool(self, served):
        client = ServiceClient("127.0.0.1", served.server_address[1])
        client.healthz()
        assert client._pool
        client.close()
        assert client._pool == []

    def test_stale_pooled_connection_falls_back_transparently(self):
        # A plain bounced server would keep serving established
        # keep-alive sockets from its handler threads; ShardWorker.kill
        # ends the replica's process and with it those sockets, which is
        # exactly the staleness a pooled client must absorb.
        from repro.cluster.worker import ShardWorker

        engine = XRankEngine()
        engine.add_xml(DOC, uri="doc0")
        engine.build(kinds=["hdil"])
        worker = ShardWorker(engine, shard_id=0).start()
        port = worker.port
        client = ServiceClient("127.0.0.1", port, max_retries=0)
        try:
            before = client.search("alpha", m=3)
            worker.kill()
            worker = ShardWorker(engine, shard_id=0, port=port).start()
            after = client.search("alpha", m=3)
            assert after["results"] == before["results"]
            # The fresh-connection fallback — not the retry budget
            # (max_retries=0) — absorbed the stale socket.
            assert client.stale_retries >= 1
        finally:
            client.close()
            worker.stop()

    def test_pool_bounded_by_pool_size(self, served):
        client = ServiceClient(
            "127.0.0.1", served.server_address[1], pool_size=1
        )
        try:
            client.healthz()
            client.healthz()
            assert len(client._pool) <= 1
        finally:
            client.close()
