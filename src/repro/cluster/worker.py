"""Shard workers: one :class:`XRankEngine` per corpus shard, served HTTP.

A worker is the cluster's unit of capacity and of failure.  It hosts one
engine built over exactly one shard of the corpus — the shard assignment
comes from :func:`repro.build.shard.shard_specs`, the same deterministic
LPT plan the parallel build uses, so a cluster shard is byte-identical
to the corresponding parallel-build shard — wrapped in the existing
:class:`~repro.service.core.XRankService` (locks, caches, admission,
breaker) and :class:`~repro.service.server.XRankHTTPServer`.  The
coordinator talks to workers over the same ``/search`` JSON protocol any
client uses; there is no separate RPC stack to harden.

Replica bring-up rides on engine snapshots: ``ShardWorker.snapshot``
persists the built engine (indexes, incremental delta, tombstones and
all), and :meth:`ShardWorker.from_snapshot` restores a fresh replica
without re-parsing or re-ranking — the path the failover tests and the
cluster chaos harness use to resurrect killed replicas.
"""

from __future__ import annotations

import socket
import sys
import threading
from typing import Dict, Optional, Sequence

from ..config import XRankConfig
from ..engine import XRankEngine
from ..errors import ClusterError
from ..service.concurrency import GuardedLock
from ..service.core import XRankService
from ..service.server import XRankHTTPServer
from ..xmlmodel.nodes import Document
from .stats import GlobalStats

#: Index kinds a cluster worker builds by default: the headline HDIL plus
#: DIL so the per-worker circuit breaker has its fallback in place.
DEFAULT_CLUSTER_KINDS = ("dil", "hdil")


class _WorkerHTTPServer(XRankHTTPServer):
    """An :class:`XRankHTTPServer` that can sever live connections.

    ``server_close()`` only closes the *listening* socket; established
    keep-alive connections keep being serviced by their handler threads,
    so a worker stopped that way would keep answering pooled clients —
    nothing like a crashed process.  Client sockets are therefore
    tracked so :meth:`close_client_connections` can shut them down,
    giving ``ShardWorker.kill()`` crash-realistic semantics (in-flight
    and pooled connections die with the worker)."""

    def __init__(self, address, service):
        super().__init__(address, service)
        self._sockets_lock = GuardedLock("worker.sockets")
        self._client_sockets = set()  # guarded by: self._sockets_lock

    def process_request(self, request, client_address):
        with self._sockets_lock:
            self._client_sockets.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._sockets_lock:
            self._client_sockets.discard(request)
        super().shutdown_request(request)

    def close_client_connections(self) -> None:
        """Sever every established connection (handler threads clean up)."""
        with self._sockets_lock:
            sockets = list(self._client_sockets)
        for request in sockets:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closing on its own

    def handle_error(self, request, client_address):
        # Severed sockets (kill()) surface as connection resets in their
        # handler threads; that is the intended crash simulation, not an
        # error worth a traceback on stderr.
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionResetError, BrokenPipeError)):
            return
        super().handle_error(request, client_address)


def build_shard_engine(
    documents: Sequence[Document],
    stats: GlobalStats,
    kinds: Sequence[str] = DEFAULT_CLUSTER_KINDS,
    config: Optional[XRankConfig] = None,
) -> XRankEngine:
    """Build one shard's engine with globally comparable scores.

    Takes the shard's parsed documents (global doc ids preserved) and
    builds with ``elemrank_overrides`` from the global-statistics
    exchange — never shard-local link analysis.  Coverage is checked up
    front so a stale or truncated stats payload fails the build rather
    than producing silently skewed rankings.
    """
    if not documents:
        raise ClusterError("a shard must hold at least one document")
    engine = XRankEngine(config=config)
    for document in sorted(documents, key=lambda d: d.doc_id):
        engine.add_document(document)
    engine.graph.finalize()
    stats.require_coverage(engine.graph)
    engine.build(kinds=kinds, elemrank_overrides=stats.elemrank_mapping())
    return engine


class ShardWorker:
    """One shard replica: engine + service + HTTP server on its own port."""

    def __init__(
        self,
        engine: XRankEngine,
        shard_id: int,
        replica_id: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        kinds: Optional[Sequence[str]] = None,
        default_deadline_ms: Optional[float] = None,
        result_cache_size: int = 256,
        list_cache_size: int = 256,
        tracer=None,
        snapshot_store=None,
        profile: bool = False,
    ):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.engine = engine
        self.snapshot_store = snapshot_store
        self.service = XRankService(
            engine,
            kinds=tuple(kinds) if kinds else None,
            result_cache_size=result_cache_size,
            list_cache_size=list_cache_size,
            default_deadline_ms=default_deadline_ms,
            tracer=tracer,
            snapshot_store=snapshot_store,
            profile=profile,
        )
        self._host = host
        self._requested_port = port
        self._server: Optional[_WorkerHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"shard{self.shard_id}/replica{self.replica_id}"

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        if self._server is None:
            raise ClusterError(f"worker {self.name} is not running")
        return self._server.server_address[1]

    def start(self) -> "ShardWorker":
        """Bind (ephemeral port by default) and serve on a daemon thread."""
        if self._server is not None:
            return self
        self._server = _WorkerHTTPServer(
            (self._host, self._requested_port), self.service
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"xrank-{self.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the HTTP server down; the engine stays queryable in-process."""
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.close_client_connections()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5)

    def kill(self) -> None:
        """Chaos-harness alias: drop the listener like a crashed process."""
        self.stop()

    # -- snapshots (replica bring-up) ----------------------------------------------

    def snapshot(self, path) -> None:
        """Persist the built engine for replica bring-up."""
        self.engine.save(path)

    @classmethod
    def from_snapshot(
        cls,
        path,
        shard_id: int,
        replica_id: int,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_options,
    ) -> "ShardWorker":
        """Restore a replica from a snapshot written by :meth:`snapshot`."""
        engine = XRankEngine.load(path)
        return cls(
            engine,
            shard_id=shard_id,
            replica_id=replica_id,
            host=host,
            port=port,
            **service_options,
        )

    def persist(self, store=None, span=None):
        """Commit this worker's engine as the next snapshot generation."""
        store = store if store is not None else self.snapshot_store
        if store is None:
            raise ClusterError(
                f"worker {self.name} has no snapshot store to persist to"
            )
        return store.save(self.engine, span=span)

    @classmethod
    def rejoin_from_store(
        cls,
        store,
        shard_id: int,
        replica_id: int,
        stats: Optional[GlobalStats] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        span=None,
        **service_options,
    ) -> "ShardWorker":
        """Restart-after-crash: recover the shard from its snapshot store.

        The full rejoin contract, in order:

        1. recover the newest intact generation from ``store`` (falling
           back past crash wreckage — see
           :meth:`~repro.durability.SnapshotStore.recover`);
        2. re-verify the global-statistics coverage check against the
           recovered graph, so a stale snapshot that no longer covers
           the shard fails loudly (:class:`~repro.errors.
           StatsExchangeError`) instead of serving rankings that are no
           longer globally comparable;
        3. construct the replacement worker (the caller starts it and
           re-registers the endpoint with the coordinator).

        Traced as a ``worker.rejoin`` span with the recovered generation
        and whether recovery had to fall back.
        """
        from ..obs import NOOP_SPAN

        span = (span if span is not None else NOOP_SPAN).child(
            "worker.rejoin", shard=shard_id, replica=replica_id
        )
        with span:
            engine, info = store.recover(span=span)
            if stats is not None:
                stats.require_coverage(engine.graph)
                span.event("coverage_reverified")
            worker = cls(
                engine,
                shard_id=shard_id,
                replica_id=replica_id,
                host=host,
                port=port,
                snapshot_store=store,
                **service_options,
            )
            span.event("rejoined", generation=info.number)
            # The rejoin predates the worker's own event log, so the
            # recovery record lands there the moment the log exists.
            worker.service.events.emit(
                "snapshot_recovered",
                shard=shard_id,
                replica=replica_id,
                generation=info.number,
                fell_back=bool(getattr(info, "fell_back", False)),
            )
            worker.service.events.emit(
                "worker_rejoin", shard=shard_id, replica=replica_id
            )
        return worker

    # -- introspection ---------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """JSON-ready identity + corpus slice summary."""
        return {
            "shard": self.shard_id,
            "replica": self.replica_id,
            "running": self.running,
            "documents": self.engine.graph.num_documents,
            "doc_ids": sorted(self.engine.graph.documents),
            "kinds": sorted(self.engine._indexes),
        }

