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

Each running replica is a forked process.  The worker object keeps the
built engine and service as the replica's *image*: :meth:`ShardWorker.
start` forks a child that serves its copy-on-write view of that image,
so shards search in parallel instead of taking turns on one interpreter
lock, and :meth:`ShardWorker.kill` is a real crash (``SIGKILL``; the
kernel closes the replica's sockets).  In-process callers — snapshots,
:meth:`ShardWorker.persist`, measurements that time a shard search
without the wire — use the image, which never diverges from the replica
because cluster serving is read-only.  A replica whose parent process
dies exits on its own.

Replica bring-up rides on engine snapshots: ``ShardWorker.snapshot``
persists the built engine (indexes, incremental delta, tombstones and
all), and :meth:`ShardWorker.from_snapshot` restores a fresh replica
without re-parsing or re-ranking — the path the failover tests and the
cluster chaos harness use to resurrect killed replicas.
"""

from __future__ import annotations

import gc
import os
import select
import signal
import sys
from typing import Dict, Optional, Sequence

from ..config import XRankConfig
from ..engine import XRankEngine
from ..errors import ClusterError
from ..service.core import XRankService
from ..service.server import XRankHTTPServer
from ..xmlmodel.nodes import Document
from .stats import GlobalStats

#: Index kinds a cluster worker builds by default: the headline HDIL plus
#: DIL so the per-worker circuit breaker has its fallback in place.
DEFAULT_CLUSTER_KINDS = ("dil", "hdil")

#: How long :meth:`ShardWorker.start` waits for a forked replica to
#: report its port before it kills the replica and raises.
_START_TIMEOUT_S = 30.0


class _WorkerHTTPServer(XRankHTTPServer):
    """A replica process's HTTP server; it outlives no parent.

    ``serve_forever`` calls :meth:`service_actions` after every request
    and at least once per poll interval, so a replica whose parent died
    (``getppid()`` no longer names it) exits within half a second
    instead of serving a cluster that no longer exists."""

    def __init__(self, address, service, parent_pid: int):
        super().__init__(address, service)
        self._parent_pid = parent_pid

    def service_actions(self) -> None:
        if os.getppid() != self._parent_pid:
            os._exit(0)

    def handle_error(self, request, client_address):
        # A client that hangs up mid-response (a coordinator that gave up
        # or died) is not worth a traceback on the shared stderr.
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
    """One shard replica: engine + service image, served by a forked
    process on its own port."""

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
        self._pid: Optional[int] = None
        self._port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"shard{self.shard_id}/replica{self.replica_id}"

    @property
    def running(self) -> bool:
        return self._pid is not None

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        if self._pid is None:
            raise ClusterError(f"worker {self.name} is not running")
        return self._port

    @property
    def pid(self) -> int:
        """The replica process's id."""
        if self._pid is None:
            raise ClusterError(f"worker {self.name} is not running")
        return self._pid

    def start(self) -> "ShardWorker":
        """Fork the replica process and wait until it listens.

        The child binds (ephemeral port by default), reports the bound
        port over a pipe and serves until it is killed or its parent
        dies; it leaves only through ``os._exit``.
        """
        if self._pid is not None:
            return self
        if not hasattr(os, "fork"):
            raise ClusterError(
                f"worker {self.name}: a replica is a forked process and "
                "this platform has no os.fork"
            )
        parent_pid = os.getpid()
        read_fd, write_fd = os.pipe()
        # The child keeps only this thread, so it must need no lock that
        # another parent thread could hold: it serves ``self.service``,
        # which no parent thread uses while the cluster is serving.
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            self._serve_as_replica(write_fd, parent_pid)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            ready, _, _ = select.select([pipe], [], [], _START_TIMEOUT_S)
            reply = pipe.readline() if ready else b""
        reply = reply.decode("utf-8", "replace").strip()
        if not reply.isdigit():
            _reap(pid)
            raise ClusterError(
                f"worker {self.name} failed to start: "
                f"{reply or 'no port reported by the replica'}"
            )
        self._pid, self._port = pid, int(reply)
        return self

    def _serve_as_replica(self, write_fd: int, parent_pid: int) -> None:
        """The child's whole life: bind, report the port, serve, exit."""
        try:
            # The inherited image is permanent here: keeping the collector
            # off its objects keeps their pages shared with the parent.
            gc.freeze()
            try:
                server = _WorkerHTTPServer(
                    (self._host, self._requested_port),
                    self.service,
                    parent_pid,
                )
            except OSError as exc:
                os.write(write_fd, f"{exc}\n".encode("utf-8"))
                return
            os.write(write_fd, f"{server.server_address[1]}\n".encode())
            os.close(write_fd)
            server.serve_forever()
        finally:
            os._exit(0)

    def kill(self) -> None:
        """Crash the replica: ``SIGKILL`` its process, then reap it.

        In-flight and pooled connections die with it; the image stays
        queryable in-process and :meth:`start` forks a fresh replica."""
        pid, self._pid, self._port = self._pid, None, None
        if pid is not None:
            _reap(pid)

    def stop(self) -> None:
        """Stop serving; the replica process is killed and reaped."""
        self.kill()

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


def _reap(pid: int) -> None:
    """``SIGKILL`` one replica process and wait for it to exit."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # exited on its own; still a zombie until reaped
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass  # already reaped
