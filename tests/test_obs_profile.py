"""Per-query cost profiling: counters, activation, aggregation, merge,
and the canonical (timing-stripped) export."""

from __future__ import annotations

import json
import threading

import pytest

from repro.engine import XRankEngine
from repro.obs.profile import (
    COUNTER_FIELDS,
    ProfileRegistry,
    QueryProfile,
    activate,
    active_profile,
    canonical_profile_dict,
    canonical_profile_json,
    merge_snapshots,
    result_bucket,
)
from repro.service.core import XRankService

DOCS = [
    "<doc><title>alpha beta</title><p>alpha gamma delta</p></doc>",
    "<doc><title>beta gamma</title><p>alpha beta beta</p></doc>",
    "<doc><title>delta</title><p>gamma gamma alpha</p></doc>",
]


def build_engine() -> XRankEngine:
    engine = XRankEngine()
    for index, doc in enumerate(DOCS):
        engine.add_xml(doc, uri=f"doc{index}")
    engine.build(kinds=["hdil", "dil"])
    return engine


class TestResultBucket:
    @pytest.mark.parametrize(
        "count,label",
        [(0, "0"), (1, "1-3"), (3, "1-3"), (4, "4-10"), (10, "4-10"),
         (11, "11-30"), (30, "11-30"), (31, "31+"), (1000, "31+")],
    )
    def test_boundaries(self, count, label):
        assert result_bucket(count) == label


class TestQueryProfile:
    def test_counters_start_at_zero_with_full_schema(self):
        profile = QueryProfile()
        counters = profile.counters()
        assert set(counters) == set(COUNTER_FIELDS)
        assert all(value == 0 for value in counters.values())
        assert profile.nonzero() == {}
        assert profile.total() == 0

    def test_nonzero_and_total_track_increments(self):
        profile = QueryProfile()
        profile.postings_scanned += 7
        profile.heap_pushes += 2
        assert profile.nonzero() == {"postings_scanned": 7, "heap_pushes": 2}
        assert profile.total() == 9

    def test_add_cpu_accumulates_per_stage(self):
        profile = QueryProfile()
        profile.add_cpu("evaluate", 100)
        profile.add_cpu("evaluate", 50)
        profile.add_cpu("merge", 10)
        assert profile.cpu_ns == {"evaluate": 150, "merge": 10}

    def test_slots_reject_unknown_counters(self):
        profile = QueryProfile()
        with pytest.raises(AttributeError):
            profile.no_such_counter = 1


class TestActivation:
    def test_activate_installs_and_restores(self):
        assert active_profile() is None
        profile = QueryProfile()
        with activate(profile):
            assert active_profile() is profile
        assert active_profile() is None

    def test_activate_none_is_a_noop_context(self):
        with activate(None) as installed:
            assert installed is None
            assert active_profile() is None

    def test_activations_nest(self):
        outer, inner = QueryProfile(), QueryProfile()
        with activate(outer):
            with activate(inner):
                assert active_profile() is inner
            assert active_profile() is outer

    def test_activation_is_thread_local(self):
        profile = QueryProfile()
        seen = []

        def other_thread():
            seen.append(active_profile())

        with activate(profile):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=10)
        assert seen == [None]

    def test_restores_even_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with activate(QueryProfile()):
                raise RuntimeError("boom")
        assert active_profile() is None


class TestProfileRegistry:
    def make_profile(self, scanned=10):
        profile = QueryProfile()
        profile.postings_scanned += scanned
        profile.add_cpu("evaluate", 1000)
        return profile

    def test_record_aggregates_same_key(self):
        registry = ProfileRegistry()
        registry.record("hdil", "ranked:2kw", 5, self.make_profile(10))
        registry.record("hdil", "ranked:2kw", 6, self.make_profile(20))
        snapshot = registry.snapshot()
        assert snapshot["queries"] == 2
        (entry,) = snapshot["profiles"]
        assert entry["queries"] == 2
        assert entry["counters"]["postings_scanned"] == 30
        assert entry["cpu_ns"] == {"evaluate": 2000}
        assert entry["results"] == "4-10"

    def test_distinct_keys_stay_distinct_and_sorted(self):
        registry = ProfileRegistry()
        registry.record("rdil", "ranked:1kw", 1, self.make_profile())
        registry.record("dil", "ranked:1kw", 1, self.make_profile())
        keys = [
            (e["evaluator"], e["shape"], e["results"])
            for e in registry.snapshot()["profiles"]
        ]
        assert keys == sorted(keys)
        assert len(keys) == 2

    def test_bounded_with_overflow_accounting(self):
        registry = ProfileRegistry(max_entries=2)
        registry.record("a", "s", 1, self.make_profile())
        registry.record("b", "s", 1, self.make_profile())
        registry.record("c", "s", 1, self.make_profile())  # new key: dropped
        registry.record("a", "s", 1, self.make_profile())  # existing: folds
        snapshot = registry.snapshot()
        assert snapshot["overflow"] == 1
        assert snapshot["queries"] == 4
        assert len(snapshot["profiles"]) == 2

    def test_clear_resets_everything(self):
        registry = ProfileRegistry()
        registry.record("hdil", "s", 1, self.make_profile())
        registry.clear()
        assert registry.snapshot() == {
            "enabled": True, "queries": 0, "overflow": 0, "profiles": [],
        }


class TestCanonicalExport:
    def snapshot(self):
        registry = ProfileRegistry()
        profile = QueryProfile()
        profile.postings_scanned += 3
        profile.add_cpu("evaluate", 123456)
        registry.record("hdil", "ranked:1kw", 2, profile)
        return registry.snapshot()

    def test_cpu_ns_is_stripped_recursively(self):
        canonical = canonical_profile_dict(self.snapshot())
        assert "cpu_ns" not in json.dumps(canonical)
        (entry,) = canonical["profiles"]
        assert entry["counters"]["postings_scanned"] == 3

    def test_json_is_byte_stable_across_differing_timings(self):
        first = self.snapshot()
        second = self.snapshot()
        # Same workload, wildly different CPU readings:
        second["profiles"][0]["cpu_ns"] = {"evaluate": 999999999}
        assert canonical_profile_json(first) == canonical_profile_json(second)

    def test_json_is_compact_and_sorted(self):
        text = canonical_profile_json(self.snapshot())
        assert ": " not in text and ", " not in text
        assert json.loads(text)["enabled"] is True


class TestMergeSnapshots:
    def snapshot_for(self, evaluator, scanned):
        registry = ProfileRegistry()
        profile = QueryProfile()
        profile.postings_scanned += scanned
        profile.add_cpu("evaluate", 500)
        registry.record(evaluator, "ranked:1kw", 1, profile)
        return registry.snapshot()

    def test_same_key_cells_sum_fieldwise(self):
        merged = merge_snapshots(
            [self.snapshot_for("hdil", 4), self.snapshot_for("hdil", 6)]
        )
        assert merged["enabled"] is True
        assert merged["queries"] == 2
        (entry,) = merged["profiles"]
        assert entry["counters"]["postings_scanned"] == 10
        assert entry["cpu_ns"] == {"evaluate": 1000}

    def test_disabled_and_empty_payloads_are_skipped(self):
        merged = merge_snapshots(
            [{"enabled": False, "queries": 9}, {}, None,
             self.snapshot_for("dil", 2)]
        )
        assert merged["queries"] == 1
        assert len(merged["profiles"]) == 1

    def test_all_disabled_yields_disabled(self):
        merged = merge_snapshots([{"enabled": False}, {}])
        assert merged["enabled"] is False
        assert merged["profiles"] == []

    def test_merge_of_one_snapshot_is_identity_on_counters(self):
        original = self.snapshot_for("hdil", 5)
        merged = merge_snapshots([original])
        assert canonical_profile_json(merged) == canonical_profile_json(
            original
        )


class TestPostingsDecoded:
    """``postings_decoded`` counts every decode, wherever it happens."""

    def test_list_cache_loader_decodes_are_counted(self):
        from repro.service.cache import GenerationalLRU

        engine = build_engine()
        keywords = ["alpha", "beta"]
        lengths = sum(engine.index("dil").list_length(k) for k in keywords)
        evaluator = engine.evaluator("dil")
        evaluator.list_cache = GenerationalLRU(8)
        cold, warm = QueryProfile(), QueryProfile()
        with activate(cold):
            first = evaluator.evaluate(keywords, m=50)
        with activate(warm):
            assert evaluator.evaluate(keywords, m=50) == first
        assert cold.postings_decoded == lengths
        assert (cold.list_cache_misses, cold.list_cache_hits) == (2, 0)
        assert warm.postings_decoded == 0
        assert (warm.list_cache_misses, warm.list_cache_hits) == (0, 2)
        assert warm.postings_scanned == cold.postings_scanned == lengths

    def test_rdil_qualification_decodes_are_counted(self):
        from repro.config import RankingParams
        from repro.index.postings import Posting
        from repro.query.rdil_eval import RankedProbeLoop
        from repro.query.streams import PostingStream, decode_cursor

        engine = XRankEngine()
        for index, doc in enumerate(DOCS):
            engine.add_xml(doc, uri=f"doc{index}")
        engine.build(kinds=["rdil"])
        rdil = engine.index("rdil")
        keywords = ["alpha", "beta"]
        tree_decodes = []

        def decoder(key, payload):
            tree_decodes.append(key)
            return Posting.decode_payload(key, payload)

        profile = QueryProfile()
        with activate(profile):
            streams = [
                PostingStream(list(decode_cursor(rdil.ranked_cursor(k))))
                for k in keywords
            ]
            ranked_decodes = profile.postings_decoded
            assert ranked_decodes == sum(rdil.list_length(k) for k in keywords)
            loop = RankedProbeLoop(
                streams, [rdil.btree(k) for k in keywords], decoder,
                RankingParams(), set(),
            )
            loop.run(5)
        assert tree_decodes
        assert profile.postings_decoded - ranked_decodes == len(tree_decodes)


class TestServiceProfiling:
    def test_search_populates_the_registry(self):
        service = XRankService(build_engine(), profile=True)
        service.search("alpha beta", m=5)
        snapshot = service.profile_snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["queries"] == 1
        (entry,) = snapshot["profiles"]
        assert entry["counters"]["postings_scanned"] > 0
        assert entry["shape"].endswith("2kw")

    def test_result_cache_hit_is_attributed(self):
        service = XRankService(build_engine(), profile=True)
        service.search("alpha", m=5)
        service.search("alpha", m=5)  # result-cache hit
        snapshot = service.profile_snapshot()
        total_hits = sum(
            e["counters"]["result_cache_hits"] for e in snapshot["profiles"]
        )
        assert total_hits == 1

    def test_disabled_service_reports_disabled(self):
        service = XRankService(build_engine())
        service.search("alpha", m=5)
        snapshot = service.profile_snapshot()
        assert snapshot == {"enabled": False, "queries": 0, "profiles": []}

    def test_profiles_are_deterministic_across_runs(self):
        def run():
            service = XRankService(build_engine(), profile=True)
            for query in ("alpha", "alpha beta", "gamma delta"):
                service.search(query, m=5)
            return canonical_profile_json(service.profile_snapshot())

        assert run() == run()
