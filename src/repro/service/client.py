"""A small JSON-over-HTTP client for the XRANK service.

Used by the load-generating benchmark and the ``repro serve --check``
smoke test; also convenient interactively::

    from repro.service.client import ServiceClient

    client = ServiceClient("127.0.0.1", 8712)
    client.search("xql language", m=5)["results"]

Connections are pooled and kept alive across requests (the server
speaks HTTP/1.1 with Content-Length framing): a call checks an idle
connection out of the pool — or opens one on a pool miss — and checks it
back in after draining the response, so one client instance may be
shared freely across load-generator threads without a TCP handshake per
request.  A pooled connection that went stale while idle (server
restart, half-closed socket) is detected on use and the call falls back
to a single fresh per-request connection, not counted against the retry
budget.
Non-2xx responses raise :class:`repro.errors.ServiceHTTPError` carrying
the status code and decoded error payload — the body is *always* read
and surfaced, so a degraded or fault response stays inspectable.

Transient failures — dropped connections, timeouts, 503 overload, 500s
the server marks ``retryable`` — are retried with exponential backoff
and jitter, but only while the client's **error budget** lasts: every
retry spends one unit (successes slowly earn it back), and once the
budget is gone retries stop with
:class:`~repro.errors.RetryBudgetExhaustedError` so a broken backend
fails fast instead of multiplying latency across every caller.
"""

from __future__ import annotations

import json
import random
import time
from http.client import HTTPConnection, HTTPException
from typing import Dict, Optional
from urllib.parse import urlencode

from ..errors import RetryBudgetExhaustedError, ServiceHTTPError
from .concurrency import GuardedLock


class ServiceClient:
    """Thread-safe client for one service endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8712,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        error_budget: int = 32,
        retry_seed: int = 0,
        sleep=time.sleep,
        pool_size: int = 8,
    ):
        """Args:
            max_retries: retry attempts per request for transient failures.
            backoff_base_s / backoff_cap_s: exponential backoff envelope;
                each delay is jittered to half-to-full of the envelope so
                synchronized clients do not stampede the recovering server.
            error_budget: shared pool of retries across the client's
                lifetime; each retry spends one, each success earns one
                back (capped at the initial budget).
            retry_seed: seeds the jitter RNG (determinism for tests).
            sleep: injectable clock for tests (defaults to time.sleep).
            pool_size: idle keep-alive connections kept for reuse; excess
                connections are closed on check-in.
        """
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.error_budget = error_budget
        self._budget_lock = GuardedLock("client.budget")
        self._budget = error_budget  # guarded by: self._budget_lock
        self._rng = random.Random(retry_seed)
        self._sleep = sleep
        #: Retries performed over the client's lifetime (diagnostics).
        self.retries = 0  # guarded by: self._budget_lock
        self.pool_size = pool_size
        self._pool_lock = GuardedLock("client.pool")
        self._pool: list = []  # guarded by: self._pool_lock
        #: Keep-alive reuse counters (diagnostics / tests).
        self.pool_reuses = 0  # guarded by: self._pool_lock
        self.stale_retries = 0  # guarded by: self._pool_lock

    # -- endpoints ---------------------------------------------------------------

    def search(
        self,
        query: str,
        m: int = 10,
        kind: Optional[str] = None,
        mode: str = "and",
        offset: int = 0,
        highlight: bool = False,
        context: bool = False,
        deadline_ms: Optional[float] = None,
        trace_ctx=None,
    ) -> Dict[str, object]:
        """Ranked search; returns the decoded /search JSON payload.

        ``trace_ctx`` (an :class:`repro.obs.TraceContext`) propagates the
        caller's trace over the wire as request headers, so the server's
        span tree can be stitched under the caller's RPC span.
        """
        params: Dict[str, object] = {"q": query, "m": m, "mode": mode}
        if kind is not None:
            params["kind"] = kind
        if offset:
            params["offset"] = offset
        if highlight:
            params["highlight"] = "true"
        if context:
            params["context"] = "true"
        if deadline_ms is not None:
            params["deadline_ms"] = deadline_ms
        headers = trace_ctx.to_headers() if trace_ctx is not None else None
        return self._request(
            "GET", f"/search?{urlencode(params)}", headers=headers
        )

    def add_xml(self, xml: str, uri: str = "") -> Dict[str, object]:
        """Add a document; returns the /add JSON payload (doc_id, ...)."""
        return self._request("POST", "/add", {"xml": xml, "uri": uri})

    def stats(self) -> Dict[str, object]:
        """The /stats payload (metrics, caches, I/O, engine)."""
        return self._request("GET", "/stats")

    def healthz(self) -> Dict[str, object]:
        """The /healthz payload."""
        return self._request("GET", "/healthz")

    def traces(self) -> Dict[str, object]:
        """The /traces payload (tracer counters + retained span trees)."""
        return self._request("GET", "/traces")

    def profile(self) -> Dict[str, object]:
        """The /profile payload (per-query cost-profile registry)."""
        return self._request("GET", "/profile")

    def events(self) -> Dict[str, object]:
        """The /events payload (structured event log records)."""
        return self._request("GET", "/events")

    # -- plumbing ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, object]:
        attempt = 0
        while True:
            try:
                payload = self._request_once(method, path, body, headers)
            except ServiceHTTPError as exc:
                if attempt >= self.max_retries or not _retryable(exc):
                    raise
            except (HTTPException, OSError) as exc:
                # Connection refused/reset, timeout, server died mid-
                # response: transport-level and worth retrying — but never
                # allowed to escape untyped.
                if attempt >= self.max_retries:
                    raise ServiceHTTPError(
                        0,
                        {
                            "error": str(exc) or type(exc).__name__,
                            "type": type(exc).__name__,
                        },
                    ) from exc
            else:
                self._earn_budget()
                return payload
            self._spend_budget()
            self._sleep(self._backoff_s(attempt))
            attempt += 1

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]],
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, object]:
        connection, reused = self._checkout()
        try:
            status, payload, reusable = self._perform(
                connection, method, path, body, headers
            )
        except (HTTPException, OSError):
            connection.close()
            if not reused:
                raise
            # A pooled connection can go stale between requests (server
            # restart, idle timeout, half-closed socket).  That is a pool
            # artifact, not a backend failure, so fall back to one fresh
            # per-request connection without touching the retry budget.
            with self._pool_lock:
                self.stale_retries += 1
            connection = self._fresh_connection()
            try:
                status, payload, reusable = self._perform(
                    connection, method, path, body, headers
                )
            except (HTTPException, OSError):
                connection.close()
                raise
        if reusable:
            self._checkin(connection)
        else:
            connection.close()
        if not 200 <= status < 300:
            raise ServiceHTTPError(status, payload)
        return payload

    def _perform(
        self,
        connection: HTTPConnection,
        method: str,
        path: str,
        body: Optional[Dict[str, object]],
        extra_headers: Optional[Dict[str, str]] = None,
    ):
        """One request/response on an open connection.

        Returns ``(status, payload, reusable)`` — the body is always
        drained first, so a non-2xx response still leaves the connection
        reusable and the error payload inspectable.
        """
        headers = dict(extra_headers) if extra_headers else {}
        encoded = None
        if body is not None:
            encoded = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=encoded, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": raw[:200].decode("utf-8", "replace")}
        return response.status, payload, not response.will_close

    # -- connection pool ------------------------------------------------------------

    def _fresh_connection(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _checkout(self):
        """An idle pooled connection if any, else a fresh one."""
        with self._pool_lock:
            if self._pool:
                self.pool_reuses += 1
                return self._pool.pop(), True
        return self._fresh_connection(), False

    def _checkin(self, connection: HTTPConnection) -> None:
        with self._pool_lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close every idle pooled connection (in-flight ones close on
        their own check-in path once the pool is full)."""
        with self._pool_lock:
            idle, self._pool = self._pool, []
        for connection in idle:
            connection.close()

    # -- retry machinery -----------------------------------------------------------

    def _backoff_s(self, attempt: int) -> float:
        """Jittered exponential delay before retry number ``attempt + 1``."""
        envelope = min(self.backoff_cap_s, self.backoff_base_s * (2 ** attempt))
        return envelope * (0.5 + 0.5 * self._rng.random())

    def _spend_budget(self) -> None:
        with self._budget_lock:
            if self._budget <= 0:
                raise RetryBudgetExhaustedError(
                    f"client retry budget ({self.error_budget}) exhausted; "
                    "backend is persistently failing"
                )
            self._budget -= 1
            self.retries += 1

    def _earn_budget(self) -> None:
        with self._budget_lock:
            if self._budget < self.error_budget:
                self._budget += 1


def _retryable(exc: ServiceHTTPError) -> bool:
    """503 always; 500 only when the server marked the fault retryable."""
    if exc.status == 503:
        return True
    if exc.status == 500 and isinstance(exc.payload, dict):
        return bool(exc.payload.get("retryable"))
    return False
