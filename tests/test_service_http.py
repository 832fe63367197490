"""End-to-end tests over the JSON/HTTP layer: a real ThreadingHTTPServer
on an ephemeral port, exercised through the bundled ServiceClient."""

from __future__ import annotations

import threading

import pytest

from repro.cli import main
from repro.engine import XRankEngine
from repro.errors import ServiceHTTPError
from repro.service.client import ServiceClient
from repro.service.core import XRankService
from repro.service.server import make_server

DOC = """
<workshop><title>XML and IR</title><proceedings>
<paper><title>XQL and Proximal Nodes</title>
<body><subsection>the XQL query language looks promising</subsection></body>
</paper></proceedings></workshop>
"""


@pytest.fixture()
def served_client():
    engine = XRankEngine()
    engine.add_xml(DOC, uri="doc0")
    engine.build(kinds=["hdil"])
    service = XRankService(engine)
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_address[1], timeout=10.0)
    try:
        yield client, service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHTTPEndpoints:
    def test_healthz(self, served_client):
        client, _ = served_client
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["documents"] == 1
        assert health["kinds"] == ["hdil"]

    def test_search_get_roundtrip(self, served_client):
        client, _ = served_client
        payload = client.search("xql language", m=5)
        assert payload["query"] == "xql language"
        assert payload["degraded"] is False
        assert payload["results"]
        top = payload["results"][0]
        assert set(top) >= {"rank", "dewey", "tag", "path"}
        assert top["rank"] > 0

    def test_search_served_from_cache_second_time(self, served_client):
        client, _ = served_client
        first = client.search("xql language", m=5)
        second = client.search("xql language", m=5)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["results"] == first["results"]

    def test_search_with_highlight_and_context(self, served_client):
        client, _ = served_client
        payload = client.search("xql", m=3, highlight=True, context=True)
        hit = payload["results"][0]
        assert "[xql]" in hit["snippet"].lower()
        assert hit["ancestors"]

    def test_missing_query_is_400(self, served_client):
        client, _ = served_client
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("GET", "/search")
        assert excinfo.value.status == 400

    def test_unknown_path_is_404(self, served_client):
        client, _ = served_client
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_kind_is_400(self, served_client):
        client, _ = served_client
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.search("xql", kind="rdil")  # not built in this fixture
        assert excinfo.value.status == 400
        assert "rdil" in str(excinfo.value.payload.get("error", ""))

    def test_add_then_search_sees_new_document(self, served_client):
        client, _ = served_client
        outcome = client.add_xml(
            "<paper><title>federated xql shipping</title></paper>",
            uri="doc1",
        )
        assert outcome["documents"] == 2
        payload = client.search("shipping", m=5)
        assert payload["results"]

    def test_add_without_xml_is_400(self, served_client):
        client, _ = served_client
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("POST", "/add", {"uri": "x"})
        assert excinfo.value.status == 400

    def test_invalid_json_body_is_400(self, served_client):
        client, service = served_client
        import http.client

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10.0
        )
        try:
            connection.request(
                "POST", "/add", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_deadline_ms_zero_degrades_over_http(self, served_client):
        client, service = served_client
        service.clear_caches()
        payload = client.search("xql language", m=5, deadline_ms=0.0)
        assert payload["degraded"] is True
        assert isinstance(payload["results"], list)

    def test_stats_endpoint_reflects_traffic(self, served_client):
        client, _ = served_client
        client.search("xql language", m=5)
        stats = client.stats()
        assert stats["service"]["searches"] >= 1
        assert "results" in stats["caches"]
        assert "page_reads" in stats["io"]
        assert stats["engine"]["documents"] >= 1


class TestServeCheck:
    def test_cli_serve_check_smoke(self, capsys):
        assert main(["serve", "--check"]) == 0
        out = capsys.readouterr().out
        assert "serve check ok" in out


def test_accepted_sockets_disable_nagle(served_client, monkeypatch):
    import socket

    from repro.service import server as server_module

    seen = []
    setup = server_module._Handler.setup

    def recording_setup(handler):
        setup(handler)
        seen.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )

    monkeypatch.setattr(server_module._Handler, "setup", recording_setup)
    client, _ = served_client
    client.close()
    assert client.healthz()["status"] == "ok"
    assert seen and all(seen)
