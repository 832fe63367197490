"""Stdlib-only threaded JSON-over-HTTP front end for the service.

Endpoints:

* ``GET/POST /search`` — ranked keyword search.  GET takes query
  parameters (``q``, ``m``, ``kind``, ``mode``, ``offset``,
  ``deadline_ms``, ``highlight``, ``context``); POST takes the same
  fields as a JSON object.  Responses carry ``results`` plus the serving
  metadata (``degraded``, ``cached``, ``latency_ms``, ``generation``).
* ``POST /add`` — JSON ``{"xml": "<doc>...</doc>", "uri": "..."}``;
  the document is searchable when the response returns.
* ``GET /stats`` — serving metrics, cache counters, I/O totals and
  engine statistics.
* ``GET /metrics`` — the same figures in Prometheus text exposition
  format (QPS, latency percentiles, per-stage histograms, cache hit
  rate, breaker state, ``degraded_total``) for scrapers; works against
  workers and cluster coordinators alike (a coordinator additionally
  exposes ``missing_shards_total``).
* ``GET /traces`` — the tracer's retained span trees as full JSON
  (ids, durations, I/O deltas); the fetch path behind
  ``repro trace --url``.  404 when the service has no tracer.
* ``GET /profile`` — the per-query cost-profile registry (deterministic
  counters aggregated by evaluator/query shape/result bucket); the
  fetch path behind ``repro profile --url``.  Reports
  ``{"enabled": false}`` when the service was built without profiling.
* ``GET /events`` — the service's structured event log as JSON records
  (admission rejects, breaker transitions, degraded answers), each
  carrying the trace id of the query that caused it.
* ``GET /healthz`` — cheap liveness probe.

Error mapping: malformed requests → 400, unknown paths → 404, admission
overflow → 503 (clients should back off), storage faults that exhausted
the service's retry/fallback machinery → 500 with ``retryable: true``,
anything else → 500.  Every error path returns a JSON body naming the
error and its type — the handler never lets an exception escape to
``BaseHTTPRequestHandler``, which would close the connection without a
response and leave clients with an untyped socket error instead of the
server's diagnosis.  Each request runs on its own thread
(``ThreadingHTTPServer``); actual concurrency control happens in the
service's reader-writer lock and admission gate, not in the HTTP layer.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import FaultError, ServiceOverloadedError, XRankError
from ..obs.render import to_dict as trace_to_dict
from ..obs.trace import TraceContext
from .core import XRankService


class XRankHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`XRankService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: XRankService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = "xrank-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Send each response as soon as it is written (TCP_NODELAY on the
    # accepted socket) instead of holding small segments for Nagle.
    disable_nagle_algorithm = True

    @property
    def service(self) -> XRankService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        # Per-request access lines go nowhere: anything worth keeping is
        # recorded structurally (metrics, spans, the service event log),
        # and BaseHTTPRequestHandler's default stderr chatter would race
        # with benchmark output.
        pass

    # -- request routing ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._introspect(self.service.healthz)
        elif parsed.path == "/stats":
            self._introspect(self.service.stats)
        elif parsed.path == "/metrics":
            self._metrics()
        elif parsed.path == "/traces":
            self._traces()
        elif parsed.path == "/profile":
            self._introspect(self.service.profile_snapshot)
        elif parsed.path == "/events":
            self._events()
        elif parsed.path == "/search":
            params = {
                key: values[0]
                for key, values in parse_qs(parsed.query).items()
            }
            self._run_search(params)
        else:
            self._send_json(404, {"error": f"unknown path {parsed.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        body = self._read_json_body()
        if body is None:
            return
        if parsed.path == "/search":
            self._run_search(body)
        elif parsed.path == "/add":
            self._run_add(body)
        else:
            self._send_json(404, {"error": f"unknown path {parsed.path!r}"})

    # -- handlers -----------------------------------------------------------------

    def _run_search(self, params: Dict[str, object]) -> None:
        query = params.get("q") or params.get("query")
        if not query:
            self._send_json(400, {"error": "missing query parameter 'q'"})
            return
        try:
            response = self.service.search(
                str(query),
                m=int(params.get("m", 10)),
                kind=_optional_str(params.get("kind")),
                mode=str(params.get("mode", "and")),
                offset=int(params.get("offset", 0)),
                highlight=_truthy(params.get("highlight")),
                with_context=_truthy(params.get("context")),
                deadline_ms=_optional_float(params.get("deadline_ms")),
                trace_ctx=TraceContext.from_headers(self.headers),
            )
        except ServiceOverloadedError as exc:
            self._send_json(503, {"error": str(exc)})
            return
        except FaultError as exc:
            # Storage fault that survived retry + fallback: the server is
            # unhealthy, not the request.
            self._send_json(500, _error_payload(exc, retryable=True))
            return
        except (ValueError, XRankError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 — see module docstring
            self._send_json(500, _error_payload(exc))
            return
        self._send_json(200, response.to_dict())

    def _run_add(self, body: Dict[str, object]) -> None:
        source = body.get("xml")
        if not source:
            self._send_json(400, {"error": "missing field 'xml'"})
            return
        try:
            outcome = self.service.add_xml(
                str(source), uri=str(body.get("uri", ""))
            )
        except FaultError as exc:
            self._send_json(500, _error_payload(exc, retryable=True))
            return
        except XRankError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 — see module docstring
            self._send_json(500, _error_payload(exc))
            return
        self._send_json(200, outcome)

    def _metrics(self) -> None:
        """GET /metrics: the /stats payload in Prometheus text format."""
        from .promfmt import render_prometheus

        try:
            body = render_prometheus(self.service.stats())
        except Exception as exc:  # noqa: BLE001 — see module docstring
            self._send_json(500, _error_payload(exc))
            return
        data = body.encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _traces(self) -> None:
        """GET /traces: the tracer's retained span trees (full JSON)."""
        tracer = getattr(self.service, "tracer", None)
        if tracer is None:
            self._send_json(404, {"error": "no tracer on this service"})
            return
        try:
            payload = {
                "tracer": tracer.stats(),
                "traces": [
                    trace_to_dict(root) for root in tracer.buffer.traces()
                ],
            }
        except Exception as exc:  # noqa: BLE001 — see module docstring
            self._send_json(500, _error_payload(exc))
            return
        self._send_json(200, payload)

    def _events(self) -> None:
        """GET /events: the structured event log as JSON records."""
        try:
            events = self.service.events
            payload = {
                "stats": events.stats(),
                "events": events.events(),
            }
        except Exception as exc:  # noqa: BLE001 — see module docstring
            self._send_json(500, _error_payload(exc))
            return
        self._send_json(200, payload)

    def _introspect(self, probe) -> None:
        try:
            payload = probe()
        except Exception as exc:  # noqa: BLE001 — see module docstring
            self._send_json(500, _error_payload(exc))
            return
        self._send_json(200, payload)

    # -- plumbing ------------------------------------------------------------------

    def _read_json_body(self) -> Optional[Dict[str, object]]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"invalid JSON body: {exc}"})
            return None
        if not isinstance(body, dict):
            self._send_json(400, {"error": "JSON body must be an object"})
            return None
        return body

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        try:
            data = json.dumps(payload).encode("utf-8")
        except (TypeError, ValueError):
            status = 500
            data = b'{"error": "unserializable response"}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def make_server(
    service: XRankService, host: str = "127.0.0.1", port: int = 0
) -> XRankHTTPServer:
    """Bind (port 0 = ephemeral) without starting the accept loop.

    The caller runs ``serve_forever()`` — typically on a thread for
    tests/benchmarks, or on the main thread for ``repro serve``.
    """
    return XRankHTTPServer((host, port), service)


def run(service: XRankService, host: str = "127.0.0.1", port: int = 8712) -> None:
    """Serve until interrupted (the ``repro serve`` entry point)."""
    server = make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    # The startup banner is operator-facing CLI output, not telemetry.
    print(f"xrank serving on http://{bound_host}:{bound_port}")  # repro: ignore[structured-log]
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()


def _error_payload(exc: BaseException, retryable: bool = False) -> Dict[str, object]:
    """JSON body for a 500: message + exception type (+ retry hint)."""
    payload: Dict[str, object] = {
        "error": str(exc) or type(exc).__name__,
        "type": type(exc).__name__,
    }
    if retryable:
        payload["retryable"] = True
    return payload


def _truthy(value) -> bool:
    if isinstance(value, bool):
        return value
    if value is None:
        return False
    return str(value).lower() in ("1", "true", "yes", "on")


def _optional_str(value) -> Optional[str]:
    return None if value is None else str(value)


def _optional_float(value) -> Optional[float]:
    return None if value is None else float(value)
