"""Tests for the serving layer: locks, caches, admission, deadlines,
metrics, the in-process service facade, and searches racing updates."""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import INDEX_KINDS, XRankEngine, _highlight
from repro.errors import QueryError, ServiceOverloadedError
from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.service.admission import AdmissionController, Deadline
from repro.service.cache import MISS, GenerationalLRU
from repro.service.concurrency import ReadWriteLock
from repro.service.core import XRankService
from repro.service.metrics import ServiceMetrics, percentile
from repro.storage.iostats import IOStats


# ---------------------------------------------------------------------------
# Reader-writer lock
# ---------------------------------------------------------------------------

class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # all three readers in simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                time.sleep(0.05)
                order.append("write")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read():
                order.append("read")

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        w.join(timeout=5)
        r.join(timeout=5)
        assert order == ["write", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = threading.Event()

        def writer():
            writer_started.set()
            with lock.write():
                writer_done.set()

        t = threading.Thread(target=writer)
        t.start()
        writer_started.wait(timeout=5)
        time.sleep(0.02)  # let the writer reach the wait
        assert lock.state()["writers_waiting"] == 1
        lock.release_read()
        t.join(timeout=5)
        assert writer_done.is_set()
        assert lock.state() == {
            "active_readers": 0,
            "writer_active": False,
            "writers_waiting": 0,
        }


# ---------------------------------------------------------------------------
# Generational LRU cache
# ---------------------------------------------------------------------------

class TestGenerationalLRU:
    def test_hit_and_miss_counters(self):
        cache = GenerationalLRU(4)
        assert cache.get("a") is MISS
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = GenerationalLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_generation_invalidation(self):
        cache = GenerationalLRU(4)
        cache.put("a", 1)
        cache.bump()
        assert cache.get("a") is MISS
        assert cache.invalidations == 1
        cache.put("a", 2)
        assert cache.get("a") == 2

    def test_bump_to_engine_generation(self):
        cache = GenerationalLRU(4)
        cache.bump(7)
        cache.put("k", "v")
        assert cache.generation == 7
        assert cache.get("k") == "v"

    def test_capacity_zero_disables(self):
        cache = GenerationalLRU(0)
        cache.put("a", 1)
        assert cache.get("a") is MISS
        assert len(cache) == 0

    def test_get_or_load(self):
        cache = GenerationalLRU(4)
        calls = []

        def loader():
            calls.append(1)
            return "value"

        assert cache.get_or_load("k", loader) == "value"
        assert cache.get_or_load("k", loader) == "value"
        assert len(calls) == 1

    def test_cached_none_is_a_hit(self):
        cache = GenerationalLRU(4)
        cache.put("k", None)
        assert cache.get("k") is None
        assert cache.hits == 1


# ---------------------------------------------------------------------------
# Deadline + admission control
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline(None)
        assert deadline.poll() is False
        assert deadline.remaining_ms() is None

    def test_zero_budget_expires_immediately(self):
        deadline = Deadline.after_ms(0.0)
        assert deadline.poll() is True
        assert deadline.expired is True
        assert deadline.remaining_ms() == 0.0

    def test_latches(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        assert deadline.poll() is False
        now[0] = 2.0
        assert deadline.poll() is True
        now[0] = 0.0  # even if the clock ran backwards, stays expired
        assert deadline.poll() is True


class TestAdmissionController:
    def test_bounds_concurrency(self):
        admission = AdmissionController(max_concurrent=2, max_queue=10)
        admission.acquire()
        admission.acquire()
        assert admission.depth()["active"] == 2
        admission.release()
        admission.release()
        assert admission.depth()["active"] == 0

    def test_queue_overflow_rejects(self):
        admission = AdmissionController(max_concurrent=1, max_queue=0)
        admission.acquire()
        with pytest.raises(ServiceOverloadedError):
            admission.acquire()
        assert admission.depth()["rejected"] == 1
        admission.release()

    def test_queue_timeout_rejects(self):
        admission = AdmissionController(
            max_concurrent=1, max_queue=1, queue_timeout_s=0.05
        )
        admission.acquire()
        with pytest.raises(ServiceOverloadedError):
            admission.acquire()
        admission.release()

    def test_queued_request_proceeds_after_release(self):
        admission = AdmissionController(max_concurrent=1, max_queue=5)
        admission.acquire()
        acquired = threading.Event()

        def waiter():
            with admission.slot():
                acquired.set()

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.02)
        assert not acquired.is_set()
        admission.release()
        t.join(timeout=5)
        assert acquired.is_set()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_percentile_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == 25.0
        assert percentile([], 95) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_snapshot_counters(self):
        metrics = ServiceMetrics()
        metrics.record_search(10.0, cached=False, degraded=False)
        metrics.record_search(30.0, cached=True, degraded=True)
        metrics.record_add(5.0)
        metrics.record_rejection()
        snapshot = metrics.snapshot(queue_depth={"active": 0})
        assert snapshot["searches"] == 2
        assert snapshot["adds"] == 1
        assert snapshot["result_cache_hits"] == 1
        assert snapshot["result_cache_hit_rate"] == 0.5
        assert snapshot["degraded"] == 1
        assert snapshot["rejected"] == 1
        assert snapshot["p50_ms"] == 20.0
        assert snapshot["qps_60s"] > 0
        assert snapshot["queue"] == {"active": 0}


# ---------------------------------------------------------------------------
# Thread-safe IOStats (shared once the server exists)
# ---------------------------------------------------------------------------

class TestIOStatsThreadSafety:
    def test_concurrent_increments_are_exact(self):
        stats = IOStats()
        per_thread = 2000

        def hammer():
            for i in range(per_thread):
                stats.record_read(sequential=i % 2 == 0)
                stats.record_hit()
                stats.record_writes()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = 8 * per_thread
        assert stats.page_reads == total
        assert stats.sequential_reads + stats.random_reads == total
        assert stats.cache_hits == total
        assert stats.page_writes == total

    def test_snapshot_delta_and_add(self):
        stats = IOStats()
        stats.record_read(sequential=True)
        before = stats.snapshot()
        stats.record_read(sequential=False)
        delta = stats.delta_since(before)
        assert delta.page_reads == 1 and delta.random_reads == 1
        combined = before + delta
        assert combined.page_reads == stats.page_reads

    def test_pickle_roundtrip_drops_lock(self):
        import pickle

        stats = IOStats(page_reads=3, cache_hits=2)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.page_reads == 3 and clone.cache_hits == 2
        clone.record_hit()  # lock was recreated
        assert clone.cache_hits == 3


# ---------------------------------------------------------------------------
# Highlight regression (satellite fix)
# ---------------------------------------------------------------------------

class TestHighlightGuard:
    def test_empty_keywords_leave_text_unchanged(self):
        assert _highlight("some snippet text", []) == "some snippet text"

    def test_nonempty_keywords_still_highlight(self):
        assert _highlight("the xql language", ["xql"]) == "the [xql] language"


# ---------------------------------------------------------------------------
# The in-process service facade
# ---------------------------------------------------------------------------

SMALL_DOC = """
<workshop><title>XML and IR</title><proceedings>
<paper><title>XQL and Proximal Nodes</title>
<body><subsection>the XQL query language looks promising</subsection></body>
</paper></proceedings></workshop>
"""


def small_service(**kwargs) -> XRankService:
    engine = XRankEngine()
    engine.add_xml(SMALL_DOC, uri="doc0")
    engine.build(kinds=["hdil", "dil"])
    return XRankService(engine, **kwargs)


class TestXRankService:
    def test_search_returns_hits(self):
        service = small_service()
        response = service.search("xql language", m=5)
        assert response.hits
        assert response.cached is False
        assert response.degraded is False
        assert response.latency_ms >= 0.0
        assert response.kind == "hdil"

    def test_result_cache_hit_on_repeat(self):
        service = small_service()
        first = service.search("xql language", m=5)
        second = service.search("xql language", m=5)
        assert second.cached is True
        assert [h.dewey for h in second.hits] == [h.dewey for h in first.hits]
        assert service.result_cache.hits == 1

    def test_distinct_parameters_miss(self):
        service = small_service()
        service.search("xql language", m=5)
        assert service.search("xql language", m=3).cached is False
        assert service.search("xql language", m=5, kind="dil").cached is False

    def test_expired_deadline_degrades_instead_of_erroring(self):
        service = small_service(result_cache_size=0)
        response = service.search("xql language", m=5, deadline_ms=0.0)
        assert response.degraded is True
        assert isinstance(response.hits, list)
        assert service.metrics.degraded == 1

    def test_degraded_results_are_not_cached(self):
        service = small_service()
        service.search("xql language", m=5, deadline_ms=0.0)
        follow_up = service.search("xql language", m=5)
        assert follow_up.cached is False
        assert follow_up.degraded is False
        assert follow_up.hits

    def test_add_xml_invalidates_and_serves_new_document(self):
        service = small_service()
        stale = service.search("xql language", m=5)
        outcome = service.add_xml(
            "<paper><title>xql goes incremental</title></paper>", uri="doc1"
        )
        assert outcome["documents"] == 2
        fresh = service.search("xql language", m=5)
        assert fresh.cached is False  # generation bump invalidated the entry
        assert fresh.generation > stale.generation
        assert service.search("incremental", m=5).hits

    def test_incremental_path_used_when_available(self):
        engine = XRankEngine()
        engine.add_xml(SMALL_DOC, uri="doc0")
        engine.build(kinds=["dil-incremental"])
        service = XRankService(engine, default_kind="dil-incremental")
        outcome = service.add_xml(
            "<paper><title>delta xql</title></paper>", uri="doc1"
        )
        assert outcome["incremental"] is True
        assert service.search("delta", kind="dil-incremental").hits

    def test_delete_tombstones_document(self):
        service = small_service()
        service.search("xql language", m=5)
        outcome = service.delete(0)
        assert outcome["deleted"] == 0
        response = service.search("xql language", m=5)
        assert response.cached is False
        assert response.hits == []

    def test_unbuilt_engine_is_built_on_construction(self):
        engine = XRankEngine()
        engine.add_xml(SMALL_DOC, uri="doc0")
        service = XRankService(engine, kinds=("hdil",))
        assert service.search("xql", m=3).hits

    def test_bad_query_raises_query_error(self):
        service = small_service()
        with pytest.raises(QueryError):
            service.search("", m=5)
        assert service.metrics.errors == 1

    def test_stats_payload_shape(self):
        service = small_service()
        service.search("xql language", m=5)
        payload = service.stats()
        assert payload["service"]["searches"] == 1
        assert payload["caches"]["results"]["capacity"] == 256
        assert "page_reads" in payload["io"]
        assert payload["engine"]["documents"] == 1
        assert payload["healthz"] if False else True  # shape only
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["documents"] == 1

    def test_posting_list_cache_serves_hot_lists(self):
        service = small_service(result_cache_size=0)
        service.search("xql language", m=5)
        misses_after_first = service.list_cache.misses
        assert misses_after_first > 0
        service.search("xql language", m=5)
        assert service.list_cache.hits > 0
        assert service.list_cache.misses == misses_after_first

    def test_io_totals_aggregate_all_indexes(self):
        service = small_service()
        service.search("xql language", m=5, kind="hdil")
        service.search("xql language", m=5, kind="dil")
        totals = service.io_totals()
        assert totals.page_reads + totals.cache_hits > 0


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_every_kind_answers_the_index_surface(kind):
    """healthz / stats / I/O totals / a recording trace / fault-plan
    attachment all go through ``index.disk``; ``dil-incremental`` (main +
    delta) has to answer them like every other kind."""
    engine = XRankEngine()
    engine.add_xml(SMALL_DOC, uri="doc0")
    plan = FaultPlan(seed=1)
    engine.set_fault_plan(plan)  # attached by _build_kind
    engine.build(kinds=[kind])
    service = XRankService(
        engine, default_kind=kind, tracer=Tracer(sample="always")
    )
    if kind == "dil-incremental":
        service.add_xml("<paper><title>delta xql</title></paper>", uri="doc1")
        assert engine.index(kind).delta.disk is engine.index(kind).disk
    assert engine.index(kind).disk.fault_plan is plan

    assert service.search("xql language", m=5).hits
    (root,) = service.tracer.buffer.traces()
    assert root.name == "service.search"
    assert service.healthz()["kinds"] == [kind]
    assert service.stats()["io"]["page_reads"] > 0
    assert service.io_totals().page_reads > 0

    engine.set_fault_plan(None)
    assert engine.index(kind).disk.fault_plan is None


# ---------------------------------------------------------------------------
# Satellite: searches interleaved with writes must never observe a
# half-built index (the RW lock + cache invalidation under contention).
# ---------------------------------------------------------------------------

class TestConcurrentAccess:
    def test_searches_race_adds_without_errors(self):
        service = small_service()
        errors = []
        stop = threading.Event()

        def searcher(query: str):
            while not stop.is_set():
                try:
                    response = service.search(query, m=5)
                    assert isinstance(response.hits, list)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        def writer():
            try:
                for i in range(4):
                    service.add_xml(
                        f"<paper><title>xql concurrent {i}</title>"
                        f"<body>language stress</body></paper>",
                        uri=f"stress{i}",
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        searchers = [
            threading.Thread(target=searcher, args=(q,))
            for q in ("xql language", "xql", "language")
            for _ in range(2)
        ]
        writers = [threading.Thread(target=writer) for _ in range(2)]
        for t in searchers:
            t.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        stop.set()
        for t in searchers:
            t.join(timeout=60)
        assert not errors, errors
        # All eight added documents are searchable afterwards.
        final = service.search("concurrent", m=20)
        assert len(final.hits) == 8
        assert service.engine.graph.num_documents == 9

    def test_concurrent_reads_share_the_lock(self):
        service = small_service()
        service.search("xql language", m=5)  # warm caches
        results = []

        def reader():
            results.append(service.search("xql language", m=5).hits)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 8
        deweys = {tuple(h.dewey for h in hits) for hits in results}
        assert len(deweys) == 1  # every reader saw the same ranked answer
