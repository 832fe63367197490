"""The five workloads.

Each workload is a class with the same five hooks, driven by ``run.py``:

* ``set_up`` / ``tear_down`` — the program's own set-up (index build, server
  start), repeatable so ``setup_s`` can be a median;
* ``prepare`` — the benchmark's own oracle, built once, never timed;
* ``check_pass`` — one untimed, single-threaded pass that checks every
  answer against the oracle, collects the deterministic counters, and
  raises ``ValidityError`` if the samples would not be real work;
* ``timed_pass`` — one fixed-count pass of timed operations, every answer
  checked outside the timed interval;
* ``layer_metrics`` — the workload's own per-layer numbers.

A pass always runs the same operations in the same order; ``--seconds``
only decides how many whole passes are pooled.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from statistics import median, quantiles
from typing import Dict, List, Optional, Sequence, Tuple

from repro import XRankEngine
from repro.build.shard import DocumentSpec
from repro.cluster import LocalCluster
from repro.cluster.merge import merge_hits
from repro.cluster.stats import compute_global_stats
from repro.cluster.verify import compare_responses, single_node_oracle
from repro.config import StorageParams, XRankConfig
from repro.obs.profile import QueryProfile, activate
from repro.service import XRankService
from repro.text.tokenize import tokenize_query

import hostclock
from inputs import Inputs, Query


class ValidityError(Exception):
    """The timed samples would not measure what the workload is about."""


def p95(samples: Sequence[float]) -> float:
    """95th percentile of a non-empty sample, interpolated between ranks."""
    if len(samples) < 2:
        return samples[0]
    return quantiles(samples, n=20, method="inclusive")[-1]


def signature(hits) -> List[Tuple[str, float]]:
    """What two engines must agree on: elements and ranks, in order."""
    return [(hit.dewey, hit.rank) for hit in hits]


class Tally:
    """Attempted / failed operations and the latency samples of the
    correct ones (a failed op contributes to no latency figure).

    Passes repeat the same operations, so samples are kept per operation:
    an operation's latency is its median over the passes, and the reported
    percentiles are taken over operations.  A burst on the host then moves
    one sample of many operations instead of the tail of the whole run.
    Operations that never repeat (serve-mixed's schedule) are recorded
    without a key and stand for themselves.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.timed = 0
        self.window_s = 0.0
        self.problems: List[str] = []
        self._by_op: Dict[object, List[float]] = {}
        self._pending: List[Tuple[object, float]] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, elapsed_ms: Optional[float], what: str,
               op: object = None) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(what)
            elif elapsed_ms is not None:
                self.timed += 1
                key = op if op is not None else ("once", self.timed)
                self._pending.append((key, elapsed_ms))

    def commit(self, window_s: float, factor: float = 1.0) -> None:
        """Close a pass: scale its samples and its window to the reference
        host speed.  Single-client passes correct each sample themselves
        and pass 1.0; multi-client passes are corrected as a whole."""
        for key, elapsed_ms in self._pending:
            self._by_op.setdefault(key, []).append(elapsed_ms * factor)
        self._pending = []
        self.window_s += window_s * factor

    def latencies_ms(self) -> List[float]:
        """One latency per operation: its median over the passes."""
        return [median(samples) for samples in self._by_op.values()]


class QueryCounters:
    """Deterministic per-query counters gathered by a check pass."""

    FIELDS = (
        "postings_decoded", "dewey_comparisons", "rdil_probes",
        "page_reads", "cache_hits", "results", "sim_io_ms", "switched",
        "hdil_queries",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.totals = {name: 0.0 for name in self.FIELDS}
        self.work: List[Tuple[int, int]] = []   # (postings scanned, probes)
        self.elapsed_ms: List[float] = []

    def add(self, profile, index, results: int, elapsed_ms: float,
            evaluator=None) -> None:
        self.queries += 1
        totals = self.totals
        totals["postings_decoded"] += profile.postings_decoded
        totals["dewey_comparisons"] += profile.dewey_comparisons
        totals["rdil_probes"] += profile.rdil_probes
        totals["results"] += results
        # IncrementalDILIndex has no disk of its own; its main list file is
        # where every pre-existing posting is read from.
        disk = getattr(index, "disk", None) or getattr(
            getattr(index, "main", None), "disk", None)
        if disk is not None:
            totals["page_reads"] += disk.stats.page_reads
            totals["cache_hits"] += disk.stats.cache_hits
            totals["sim_io_ms"] += disk.stats.cost_ms(disk.params)
        trace = getattr(evaluator, "last_trace", None)
        if trace is not None:
            totals["hdil_queries"] += 1
            totals["switched"] += bool(trace.switched_to_dil)
        # Scanned, not decoded: lists served from the service's posting-list
        # cache are decoded by its loader, outside the profile's count.
        self.work.append((profile.postings_scanned, profile.rdil_probes))
        self.elapsed_ms.append(elapsed_ms)

    def per_query(self, name: str) -> float:
        return self.totals[name] / max(1, self.queries)

    def metrics(self, page_size: int) -> Dict[str, float]:
        t = self.totals
        touched = t["page_reads"] + t["cache_hits"]
        return {
            "query_sim_io_ms": self.per_query("sim_io_ms"),
            "storage.page_reads_per_query": self.per_query("page_reads"),
            "storage.bytes_read_per_query":
                self.per_query("page_reads") * page_size,
            "storage.buffer_hit_rate":
                t["cache_hits"] / touched if touched else 0.0,
            "query.postings_decoded_per_query":
                self.per_query("postings_decoded"),
            "query.dewey_comparisons_per_query":
                self.per_query("dewey_comparisons"),
            "query.rdil_probes_per_query": self.per_query("rdil_probes"),
            "query.postings_per_result":
                t["postings_decoded"] / max(1.0, t["results"]),
            "query.hdil_switch_share":
                t["switched"] / t["hdil_queries"] if t["hdil_queries"] else 0.0,
        }

    def require_real_work(self, scale) -> None:
        """The median query scans postings or probes B+-trees in earnest
        and takes long enough to be more than timer noise."""
        real = sorted(
            postings >= scale.min_postings or probes >= scale.min_probes
            for postings, probes in self.work
        )
        if not real[(len(real) - 1) // 2]:
            raise ValidityError(
                f"median query scans < {scale.min_postings} postings and "
                f"issues < {scale.min_probes} B+-tree probes"
            )
        if median(self.elapsed_ms) < scale.min_query_ms:
            raise ValidityError(
                f"median uncached query takes {median(self.elapsed_ms):.3f} ms"
                f" < {scale.min_query_ms} ms"
            )


class Workload:
    """Shared plumbing; see the module docstring for the hooks."""

    name = ""
    #: The kind ``engine.search`` is asked for in the layer probes.
    probe_kind = "hdil"
    #: Metric names of the ISSUE's matrix row this workload is about.
    row: Tuple[str, ...] = ()
    config = XRankConfig()
    #: Whether multi-client passes are brought to the reference host speed.
    clock_bound = True

    def __init__(self, inputs: Inputs, scratch: str, inject: str = ""):
        self.inputs = inputs
        self.scale = inputs.scale
        self.scratch = scratch
        self.inject = inject
        self.engine: Optional[XRankEngine] = None
        self.expected: Dict[str, object] = {}
        self.own: Dict[str, float] = {}     # workload-specific metrics

    # hooks ---------------------------------------------------------------------
    def set_up(self) -> None:
        raise NotImplementedError

    def tear_down(self) -> None:
        self.engine = None

    def prepare(self) -> None:
        raise NotImplementedError

    def check_pass(self, tally: Tally) -> QueryCounters:
        raise NotImplementedError

    def timed_pass(self, tally: Tally) -> None:
        raise NotImplementedError

    def setup_done(self, setup_s: float) -> None:
        """Told the median set-up time once the repeats are over."""

    def traced_pass(self, tally: Tally) -> None:
        """The pass run under the span recorder."""
        self.timed_pass(tally)

    def finish(self) -> None:
        """After the last timed pass, before metrics are read."""

    def layer_metrics(self) -> Dict[str, float]:
        return {}

    def engines(self) -> List[XRankEngine]:
        return [self.engine] if self.engine is not None else []

    def traced_engines(self) -> List[XRankEngine]:
        """Engines whose HDIL leaf decoder the span recorder may wrap."""
        return self.engines()

    def index_bytes_per_source_byte(self) -> float:
        return sum(
            index_bytes(index)
            for engine in self.engines()
            for index in engine._indexes.values()
        ) / self.inputs.source_bytes

    # helpers -------------------------------------------------------------------
    def _expect(self, answers: Dict[str, object]) -> None:
        """Adopt the oracle's answers; ``--inject wrong-answer`` corrupts
        one so the smoke test can watch a failure surface."""
        self.expected = dict(answers)
        if self.inject == "wrong-answer":
            first = next(iter(self.expected))
            self.expected[first] = self.wrong_answer(self.expected[first])

    def wrong_answer(self, answer):
        return [("0", -1.0)]

    def _run_clients(self, jobs, tally: Tally) -> float:
        """One closed-loop client thread per job, run to completion; the
        pass is corrected to the reference host speed as a whole (a spin
        inside a client thread would time the GIL, not the clock)."""
        threads = [threading.Thread(target=job) for job in jobs]
        before = hostclock.spin_ms()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
        factor = hostclock.speed_factor(before, hostclock.spin_ms())
        if not self.clock_bound:
            factor = 1.0
        tally.commit(wall_s, factor)
        return factor

    def _build(self, kinds, **options) -> XRankEngine:
        engine = XRankEngine(config=self.config)
        engine.build(kinds=kinds, corpus=self.inputs.corpus(), **options)
        return engine


def index_bytes(index) -> int:
    """Live bytes of one index, whatever its flavour."""
    if hasattr(index, "disk"):
        return index.disk.bytes_used()
    # IncrementalDILIndex: a main DIL plus an optional delta DIL.
    return index.main.disk.bytes_used() + (
        index.delta.disk.bytes_used() if index.delta is not None else 0
    )


def profiled_search(engine, query: Query, kind: str, counters: QueryCounters,
                    cold: bool):
    """One search under a fresh profile, counted into ``counters``."""
    index = engine.index(kind)
    measured = index if hasattr(index, "disk") else index.main
    measured.reset_measurement(cold_cache=cold)
    profile = QueryProfile()
    started = time.perf_counter()
    with activate(profile):
        hits = engine.search(query.text, m=10, kind=kind, **query.options())
    elapsed_ms = (time.perf_counter() - started) * 1e3
    evaluator = engine.evaluator(kind) if query.mode == "and" else None
    counters.add(profile, index, len(hits), elapsed_ms, evaluator)
    return hits


class InProcessQueries(Workload):
    """cold-probe and scan-merge: one client calling ``engine.search``."""

    kinds: Tuple[str, ...] = ()
    oracle_kinds: Tuple[str, ...] = ()
    cold = True

    def set_up(self) -> None:
        self.engine = self._build(self.kinds, workers=1)

    def prepare(self) -> None:
        oracle = self._build(self.oracle_kinds)
        self._expect({
            q.label: self._oracle_answer(oracle, q) for q in self.inputs.queries
        })

    def _oracle_answer(self, oracle, query: Query):
        return signature(oracle.search(
            query.text, m=10, kind=self.oracle_kinds[0], **query.options()))

    def check_pass(self, tally: Tally) -> QueryCounters:
        counters = QueryCounters()
        for query in self.inputs.queries:
            for kind in self.kinds:
                hits = profiled_search(
                    self.engine, query, kind, counters, self.cold)
                ok = signature(hits) == self.expected[query.label]
                tally.record(ok, None, f"{kind} {query.label}: wrong answer")
        counters.require_real_work(self.scale)
        return counters

    def timed_pass(self, tally: Tally) -> None:
        engine, cold = self.engine, self.cold
        window_s = 0.0
        spin = hostclock.spin_ms()
        for query in self.inputs.queries:
            options = query.options()
            for kind in self.kinds:
                if cold:
                    engine.index(kind).reset_measurement(cold_cache=True)
                begun = time.perf_counter()
                hits = engine.search(query.text, m=10, kind=kind, **options)
                elapsed = time.perf_counter() - begun
                after = hostclock.spin_ms()
                factor = hostclock.speed_factor(spin, after)
                spin = after
                window_s += elapsed * factor
                tally.record(
                    signature(hits) == self.expected[query.label],
                    elapsed * factor * 1e3,
                    f"{kind} {query.label}: wrong answer",
                    op=(kind, query.label),
                )
        # One client, no think time: the window is the sum of the latencies.
        tally.commit(window_s)


class ColdProbe(InProcessQueries):
    """Ranked-access path, working set larger than the buffer pool: every
    query starts from an empty pool and is answered through B+-tree probes
    (RDIL, and HDIL until it switches)."""

    name = "cold-probe"
    kinds = ("rdil", "hdil")
    oracle_kinds = ("dil",)
    probe_kind = "hdil"
    row = ("setup_s", "query_p50_ms", "query_p95_ms", "query_throughput_qps",
           "query_sim_io_ms", "peak_rss_mb", "failed_share")

    def check_pass(self, tally: Tally) -> QueryCounters:
        counters = super().check_pass(tally)
        probing = sum(1 for _postings, probes in counters.work if probes)
        if probing < 0.8 * counters.queries:
            raise ValidityError(
                f"only {probing}/{counters.queries} queries probed a B+-tree"
            )
        return counters


class ScanMerge(InProcessQueries):
    """Sequential path, working set inside the buffer pool: DIL list scans
    and the Dewey-stack merge over one deep document, no B+-tree opened."""

    name = "scan-merge"
    kinds = ("dil",)
    oracle_kinds = ("hdil", "dil")
    probe_kind = "dil"
    cold = False
    row = ColdProbe.row
    # 16 MB of pool: the whole DIL index of the XMark document stays
    # resident, so after the check pass every page read is a pool hit.
    config = XRankConfig(storage=StorageParams(buffer_pool_pages=4096))

    def _oracle_answer(self, oracle, query: Query):
        if query.path is None:
            return super()._oracle_answer(oracle, query)
        # Path filters: every result of one full scan, filtered here by
        # tag-path suffix, instead of the engine's over-fetch-and-filter
        # loop.  (HDIL cannot play oracle here: asked for every result it
        # first exhausts its ranked heads probe by probe, seconds per query.)
        steps = query.path.lstrip("/").split("/")
        kept = []
        for result in oracle.evaluator("dil").evaluate(
                tokenize_query(query.text), m=1_000_000):
            element = oracle.graph.element_by_dewey(result.dewey)
            tags = [a.tag for a in element.ancestors()][::-1] + [element.tag]
            if tags[-len(steps):] == steps:
                kept.append((str(result.dewey), result.rank))
                if len(kept) == 10:
                    break
        return kept

    def check_pass(self, tally: Tally) -> QueryCounters:
        filling = super().check_pass(tally)    # reads each list page once
        warm = super().check_pass(tally)
        if warm.totals["rdil_probes"]:
            raise ValidityError("scan-merge issued B+-tree probes")
        if warm.totals["page_reads"]:
            raise ValidityError(
                "scan-merge working set does not fit the buffer pool: "
                f"{warm.totals['page_reads']:.0f} page reads when warm"
            )
        # I/O counters come from the pool-filling pass; the timed passes,
        # like the warm one, read no page at all.
        return filling


class ServeMixed(Workload):
    """Writes beside reads through ``XRankService``: two closed-loop clients,
    default caches, every add bumps the generation and empties both caches."""

    name = "serve-mixed"
    kinds = ("hdil", "dil-incremental")
    probe_kind = "dil-incremental"
    row = ("setup_s", "query_p50_ms", "query_p95_ms", "query_throughput_qps",
           "add_p50_ms", "peak_rss_mb", "failed_share")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.service: Optional[XRankService] = None
        self.position = [0] * len(self.inputs.schedule)
        self.add_ms: List[float] = []
        self.stalled_ms: List[float] = []
        # Raw intervals of the pass in progress, in seconds.
        self.reads: List[Tuple[float, float]] = []
        self.adds: List[Tuple[float, float]] = []

    def set_up(self) -> None:
        self.engine = self._build(self.kinds, workers=1)
        self.service = XRankService(
            self.engine, kinds=self.kinds, default_kind="dil-incremental"
        )

    def tear_down(self) -> None:
        self.service = None
        self.engine = None

    def prepare(self) -> None:
        # Adds never change the rank of an existing element (ElemRank is
        # offline), so a static DIL index over the base documents stays the
        # reference for them throughout the run.
        oracle = self._build(("dil",))
        self._expect({
            q.label: signature(oracle.search(q.text, m=10, kind="dil"))
            for q in self.inputs.queries
        })

    def check_pass(self, tally: Tally) -> QueryCounters:
        counters = QueryCounters()
        for query in self.inputs.queries:
            self.service.clear_caches()
            hits = profiled_search(
                self.engine, query, "dil-incremental", counters, cold=False)
            tally.record(
                signature(hits) == self.expected[query.label], None,
                f"{query.label}: dil-incremental differs from dil",
            )
        self.service.clear_caches()
        counters.require_real_work(self.scale)
        return counters

    def _base_hits_ok(self, query: Query, hits) -> bool:
        """Hits on pre-existing documents are a prefix of the oracle answer
        (added documents may take some of the top-m slots)."""
        base = [
            (hit.dewey, hit.rank) for hit in hits
            if int(hit.dewey.split(".", 1)[0]) < len(self.inputs.sources)
        ]
        return base == self.expected[query.label][: len(base)]

    def _client(self, ops, tally: Tally) -> None:
        service, queries = self.service, self.inputs.queries
        for op, argument in ops:
            if op == "read":
                query = queries[argument]
                begun = time.perf_counter()
                try:
                    response = service.search(
                        query.text, m=10, kind="dil-incremental")
                except Exception as exc:  # a raised op is a failed op
                    tally.record(False, None, f"read raised {exc!r}")
                    continue
                ended = time.perf_counter()
                ok = not response.degraded and self._base_hits_ok(
                    query, response.hits)
                tally.record(ok, (ended - begun) * 1e3,
                             f"{query.label}: degraded or wrong answer")
                self.reads.append((begun, ended))
            else:
                token, uri, source = self.inputs.add_sources[argument]
                begun = time.perf_counter()
                try:
                    info = service.add_xml(source, uri=uri)
                except Exception as exc:
                    tally.record(False, None, f"add raised {exc!r}")
                    continue
                ended = time.perf_counter()
                # Read-your-writes: the unique token finds the new document.
                found = service.search(token, m=5, kind="dil-incremental")
                prefix = f"{info['doc_id']}"
                ok = any(
                    hit.dewey.split(".", 1)[0] == prefix for hit in found.hits
                )
                tally.record(ok, None, f"add {uri}: not searchable afterwards")
                if ok:
                    self.adds.append((begun, ended))

    def timed_pass(self, tally: Tally) -> None:
        block = self.scale.serve_block_ops
        plans = []
        for client, plan in enumerate(self.inputs.schedule):
            start = self.position[client]
            plans.append(plan[start : start + block])
            self.position[client] = start + block
        if not any(plans):
            raise ValidityError("serve-mixed op schedule exhausted")
        self.reads, self.adds = [], []
        factor = self._run_clients(
            [lambda ops=ops: self._client(ops, tally) for ops in plans], tally)
        scale = factor * 1e3
        self.add_ms += [(end - start) * scale for start, end in self.adds]
        # Reads whose interval overlaps an add's: they waited for the
        # write lock or evaluated right after the caches were emptied.
        self.stalled_ms += [
            (end - start) * scale for start, end in self.reads
            if any(start < a_end and a_start < end
                   for a_start, a_end in self.adds)
        ]

    def finish(self) -> None:
        """After the timed passes: cache behaviour decides whether the
        median read was an evaluation or a dictionary hit."""
        results = self.service.result_cache.stats()
        rate = results["hit_rate"]
        if not 0.15 <= rate <= 0.45:
            raise ValidityError(
                f"result-cache hit rate {rate:.3f} outside [0.15, 0.45]: "
                "query_p50_ms would not be an evaluation"
            )
        if self.add_ms:
            self.own["add_p50_ms"] = median(self.add_ms)
            self.own["service.add_p95_ms"] = p95(self.add_ms)

    def layer_metrics(self) -> Dict[str, float]:
        # XRankService.stats() raises AttributeError with dil-incremental
        # built (IncrementalDILIndex has no .disk), so read the caches and
        # the metrics object directly.
        results = self.service.result_cache.stats()
        lists = self.service.list_cache.stats()
        stages = self.service.metrics.snapshot().get("stages", {})
        admission = stages.get("admission", {"count": 0, "sum_ms": 0.0})
        index = self.engine.index("dil-incremental")
        metrics = {
            "service.result_cache_hit_rate": results["hit_rate"],
            "service.list_cache_hit_rate": lists["hit_rate"],
            "service.cache_invalidations":
                float(results["invalidations"] + lists["invalidations"]),
            "service.stage_admission_ms":
                admission["sum_ms"] / max(1, admission["count"]),
            "service.read_stall_ms_during_add":
                p95(self.stalled_ms) if self.stalled_ms else 0.0,
            "index.delta_postings": float(index.delta_size),
        }
        # IncrementalDILIndex.add_documents alone, on a copy-free path: the
        # next unused add document goes straight into the index.
        from repro.xmlmodel.parser import parse_xml

        spare = self.inputs.add_sources[-1]
        document = parse_xml(
            spare[2], doc_id=self.engine._next_doc_id + 1000, uri="probe")
        _, seconds = hostclock.timed(lambda: index.add_documents(
            [document], reference=self.engine.builder.elemranks))
        metrics["index.incremental_add_ms"] = seconds * 1e3
        return metrics


class ClusterHttp(Workload):
    """The wire and the scatter-gather: a 2-shard ``LocalCluster`` over real
    sockets, worker caches off so every RPC is a real search.  Shards serve
    DIL: its cost is linear in the lists scanned, so four concurrent shard
    searches (two clients, two shards, one GIL) stay a modest multiple of
    the wire's fixed cost instead of burying it."""

    name = "cluster-http"
    kinds = ("dil",)
    probe_kind = "dil"
    clients = 2
    # More than half of a request is the ~40 ms the unset TCP_NODELAY costs,
    # a timer the host clock does not stretch; scaling it with the clock
    # made the corrected figures spread wider than the raw ones.
    clock_bound = False
    row = ("setup_s", "query_p50_ms", "query_p95_ms", "query_throughput_qps",
           "peak_rss_mb", "failed_share")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cluster: Optional[LocalCluster] = None
        self.specs = [
            DocumentSpec(doc_id=i, uri=uri, source=source)
            for i, (source, uri) in enumerate(self.inputs.corpus())
        ]

    def set_up(self) -> None:
        self.cluster = LocalCluster(
            self.specs, num_shards=2, replicas=1, kinds=self.kinds,
            config=self.config,
            worker_options={"result_cache_size": 0, "list_cache_size": 0},
        ).start()
        self.engine = self.cluster.workers[0][0].engine

    def tear_down(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
        self.cluster = None
        self.engine = None

    def engines(self) -> List[XRankEngine]:
        return [group[0].engine for group in self.cluster.workers]

    def prepare(self) -> None:
        oracle = single_node_oracle(
            self.specs, kinds=self.kinds, config=self.config)
        self._expect({
            q.label: oracle.search(q.text, m=10, kind="dil").to_dict()
            for q in self.inputs.queries
        })

    def wrong_answer(self, answer):
        return dict(answer, results=[{"dewey": "0", "rank": -1.0}])

    def _ask(self, query: Query, tally: Tally) -> None:
        begun = time.perf_counter()
        try:
            response = self.cluster.search(query.text, m=10, kind="dil")
        except Exception as exc:
            tally.record(False, None, f"{query.label} raised {exc!r}")
            return
        elapsed_ms = (time.perf_counter() - begun) * 1e3
        payload = response.to_dict()
        problems = compare_responses(
            self.expected[query.label], payload, query.label)
        ok = not (problems or payload["degraded"]
                  or payload["cluster"]["missing_shards"])
        tally.record(ok, elapsed_ms,
                     problems[0] if problems else f"{query.label}: degraded",
                     op=query.label)

    def check_pass(self, tally: Tally) -> QueryCounters:
        counters = QueryCounters()
        slowest_shard_ms = []
        for query in self.inputs.queries:
            per_shard = []
            for group in self.cluster.workers:
                worker = group[0]
                index = worker.engine.index("dil")
                index.reset_measurement(cold_cache=False)
                profile = QueryProfile()
                begun = time.perf_counter()
                with activate(profile):
                    found = worker.service.search(
                        query.text, m=10, kind="dil")
                per_shard.append((time.perf_counter() - begun) * 1e3)
                counters.add(profile, index, len(found.hits), per_shard[-1],
                             worker.engine.evaluator("dil"))
            slowest_shard_ms.append(max(per_shard))
        counters.queries = len(self.inputs.queries)
        counters.require_real_work(self.scale)
        if median(slowest_shard_ms) < self.scale.min_shard_ms:
            raise ValidityError(
                f"median in-process shard search "
                f"{median(slowest_shard_ms):.2f} ms < "
                f"{self.scale.min_shard_ms} ms: only the wire would be timed"
            )
        return counters

    def timed_pass(self, tally: Tally) -> None:
        # Disjoint query pools per client: the span recorder tells
        # concurrent requests apart by their query string.
        pools = [
            self.inputs.queries[client :: self.clients]
            for client in range(self.clients)
        ]

        def run(pool) -> None:
            for query in pool:
                self._ask(query, tally)

        self._run_clients([lambda pool=pool: run(pool) for pool in pools], tally)

    def layer_metrics(self) -> Dict[str, float]:
        scatter, merges = [], []
        timed = hostclock.timed
        for query in self.inputs.queries[:16]:
            _, whole = timed(
                lambda: self.cluster.search(query.text, m=10, kind="dil"))
            per_shard, payloads = [], []
            for group in self.cluster.workers:
                found, seconds = timed(lambda: group[0].service.search(
                    query.text, m=10, kind="dil"))
                per_shard.append(seconds)
                payloads.append(found.to_dict()["results"])
            scatter.append((whole - max(per_shard)) * 1e3)
            merges.append(timed(lambda: merge_hits(payloads, m=10))[1] * 1e6)
        _, exchange_s = timed(
            lambda: compute_global_stats(self.inputs.graph, self.config))
        coordinator = self.cluster.coordinator
        retries = sum(
            coordinator.client_for(endpoint).retries
            for group in coordinator.shard_groups for endpoint in group
        )
        return {
            "cluster.scatter_overhead_ms": median(scatter),
            "cluster.merge_us": median(merges),
            "cluster.stats_exchange_s": exchange_s,
            "cluster.failovers":
                float(coordinator.stats()["cluster"]["failovers"]),
            "cluster.rpc_retries": float(retries),
        }


class BulkBuild(Workload):
    """The write side of storage.  Set-up *is* the sequential build of all
    three kinds; the timed window restarts from a snapshot and queries the
    restored engine, and a parallel build must answer identically."""

    name = "bulk-build"
    kinds = ("dil", "rdil", "hdil")
    probe_kind = "hdil"
    row = ("setup_s", "build_docs_per_s", "build_parallel_docs_per_s",
           "index_bytes_per_source_byte", "snapshot_restart_s",
           "peak_rss_mb", "failed_share")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshot = os.path.join(self.scratch, "bulk-build.snapshot")
        self.restart_s: List[float] = []
        self.save_s: List[float] = []
        self.load_s: List[float] = []
        self.parallel_stats = None

    def set_up(self) -> None:
        self.engine = self._build(self.kinds, workers=1)

    def setup_done(self, setup_s: float) -> None:
        self.own["build_docs_per_s"] = len(self.inputs.sources) / setup_s

    def traced_engines(self) -> List[XRankEngine]:
        # The engine is pickled inside the timed pass, and a wrapped leaf
        # decoder does not pickle; here decode time stays inside the
        # storage.btree.probe spans.
        return []

    def traced_pass(self, tally: Tally) -> None:
        # Set-up ran before the recorder existed; build once more under it
        # so the engine.build boundary has a span.
        self.timed_pass(tally)
        self._build(self.kinds, workers=1)

    def _answers(self, engine) -> Dict[str, list]:
        return {
            f"{kind} {query.label}":
                signature(engine.search(query.text, m=10, kind=kind))
            for query in self.inputs.queries for kind in self.kinds
        }

    def prepare(self) -> None:
        self._expect(self._answers(self.engine))

    def check_pass(self, tally: Tally) -> QueryCounters:
        """Sequential == parallel: a ``workers=nproc`` build through
        ``repro.build`` with spilled runs answers the probe identically."""
        spill = tempfile.mkdtemp(prefix="spill-", dir=self.scratch)
        workers = max(2, os.cpu_count() or 2)
        try:
            parallel, elapsed = hostclock.timed(lambda: self._build(
                self.kinds, workers=workers, spill_dir=spill))
        finally:
            shutil.rmtree(spill, ignore_errors=True)
        self.parallel_stats = parallel.last_build_stats
        self.own["build_parallel_docs_per_s"] = (
            len(self.inputs.sources) / elapsed)
        for key, answer in self._answers(parallel).items():
            tally.record(answer == self.expected[key], None,
                         f"{key}: parallel build differs from sequential")
        counters = QueryCounters()
        for query in self.inputs.queries:
            for kind in self.kinds:
                profiled_search(self.engine, query, kind, counters, cold=True)
        return counters

    def timed_pass(self, tally: Tally) -> None:
        """save -> load -> first query -> the rest of the probe, on the
        restored engine, cold, each answer checked against the original."""
        timed = hostclock.timed
        _, save_s = timed(lambda: self.engine.save(self.snapshot))
        restored, load_s = timed(lambda: XRankEngine.load(self.snapshot))
        self.save_s.append(save_s)
        self.load_s.append(load_s)
        window_s = 0.0
        for query in self.inputs.queries:
            for kind in self.kinds:
                restored.index(kind).reset_measurement(cold_cache=True)
                hits, seconds = timed(
                    lambda: restored.search(query.text, m=10, kind=kind))
                if not window_s:
                    self.restart_s.append(load_s + seconds)
                window_s += seconds
                key = f"{kind} {query.label}"
                tally.record(signature(hits) == self.expected[key],
                             seconds * 1e3,
                             f"{key}: restored engine differs", op=key)
        tally.commit(window_s)
        self.own["snapshot_restart_s"] = median(self.restart_s)
        self.own["durability.snapshot_save_s"] = median(self.save_s)
        self.own["durability.snapshot_load_s"] = median(self.load_s)
        self.own["durability.snapshot_bytes"] = float(
            os.path.getsize(self.snapshot))

    def layer_metrics(self) -> Dict[str, float]:
        stats = self.parallel_stats
        sequential = self.own["build_docs_per_s"]
        return {
            "build.parse_s": stats.parse_seconds,
            "build.extract_s": stats.extract_seconds,
            "build.merge_s": stats.merge_seconds,
            "build.parallel_speedup":
                self.own["build_parallel_docs_per_s"] / sequential,
            "storage.runfile_spilled_bytes": float(stats.spilled_bytes),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ColdProbe, ScanMerge, ServeMixed, ClusterHttp, BulkBuild)
}
