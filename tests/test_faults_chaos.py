"""End-to-end chaos-harness tests (repro.chaos).

A tiny seeded fault storm over the full build → index → serve path.  The
subsystem's acceptance invariant is asserted directly: under injected
faults every answer is oracle-identical, flagged degraded, or a typed
error — never silently wrong — and the whole report is bit-for-bit
reproducible for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.chaos import ChaosReport, run_chaos
from repro.config import StorageParams, XRankConfig
from repro.datasets.dblp import generate_dblp
from repro.datasets.workloads import random_queries
from repro.engine import SearchHit, XRankEngine
from repro.harness import OUTCOMES, Verdicts, fingerprint
from repro.service.core import XRankService
from repro.storage.iostats import IOStats

#: Maximum simulated-I/O overhead of checksummed storage over an
#: unhardened twin at a 0% fault rate: hardening must be nearly free.
#: Simulated cost is a pure function of the I/O counters, so this gate is
#: deterministic.
MAX_ZERO_RATE_OVERHEAD = 0.03

#: One storm shared across the assertions below (building twice is the
#: expensive part; reproducibility gets its own second run).
_SCALE = dict(num_queries=10, num_papers=20, workers=2)


@pytest.fixture(scope="module")
def storm():
    return run_chaos(seed=1337, fault_rate=0.05, **_SCALE)


class TestChaosInvariant:
    def test_no_silent_wrong_answers(self, storm):
        assert storm.outcomes["mismatch"] == 0
        assert storm.outcomes["untyped_error"] == 0
        assert storm.violations == []
        assert storm.ok

    def test_every_query_classified(self, storm):
        assert set(storm.outcomes) == set(OUTCOMES)
        assert sum(storm.outcomes.values()) == storm.queries == 10

    def test_build_survived_injected_crash_and_corruption(self, storm):
        # The build plan fires one worker crash and one run-file
        # corruption; both must have been absorbed by per-shard retries.
        assert storm.build_faults["build.worker.crash"]["fires"] == 1
        assert storm.build_faults["build.runfile.corrupt"]["fires"] == 1
        assert storm.build_retries >= 2
        assert storm.documents == 20

    def test_storm_actually_fired_read_faults(self, storm):
        fired = sum(c["fires"] for c in storm.query_faults.values())
        assert fired > 0, "5% storm over 10 queries should fire something"

    def test_report_carries_io_accounting(self, storm):
        assert storm.io["page_reads"] > 0
        assert "read_errors" in storm.io
        assert "corrupt_pages" in storm.io


class TestChaosReproducibility:
    def test_same_seed_bit_identical_report(self, storm):
        again = run_chaos(seed=1337, fault_rate=0.05, **_SCALE)
        assert again.to_json() == storm.to_json()

    def test_different_seed_diverges(self, storm):
        other = run_chaos(seed=7, fault_rate=0.05, **_SCALE)
        assert other.ok
        assert other.to_json() != storm.to_json()

    def test_report_json_round_trips(self, storm):
        decoded = json.loads(storm.to_json())
        assert decoded["seed"] == 1337
        assert decoded["ok"] is True
        assert decoded["fault_rate"] == 0.05


def _unhardened_cost_ms(seed, num_papers, num_queries):
    """Simulated I/O of a calm storm's workload on a checksums-off twin.

    Same corpus, queries and uncached service as :func:`run_chaos`.
    """
    corpus = generate_dblp(num_papers=num_papers, seed=(seed % 997) + 3)
    twin = XRankEngine(
        config=XRankConfig(storage=StorageParams(checksums=False))
    )
    twin.build(kinds=("hdil", "dil"), corpus=list(corpus.sources))
    service = XRankService(
        twin,
        kinds=("hdil", "dil"),
        default_kind="hdil",
        result_cache_size=0,
        list_cache_size=0,
    )
    workload = random_queries(
        twin.graph, num_keywords=2, num_queries=num_queries, seed=seed ^ 0x5EED
    )
    for keywords in workload:
        service.search(" ".join(keywords), m=10, kind="hdil")
    return service.io_totals().cost_ms(twin.config.storage)


class TestFaultFreeStorm:
    def test_zero_rate_matches_oracle_exactly(self):
        calm = run_chaos(seed=1337, fault_rate=0.0, **_SCALE)
        assert calm.ok
        assert calm.outcomes["match"] == calm.queries
        assert calm.outcomes["degraded"] == 0
        assert calm.outcomes["typed_error"] == 0
        assert calm.io["retries"] == 0

        hardened = IOStats(**calm.io).cost_ms(StorageParams(checksums=True))
        baseline = _unhardened_cost_ms(
            1337, _SCALE["num_papers"], _SCALE["num_queries"]
        )
        assert baseline > 0
        overhead = (hardened - baseline) / baseline
        assert overhead < MAX_ZERO_RATE_OVERHEAD, (hardened, baseline)


class TestChaosReportShape:
    def test_default_report_is_ok_and_serializable(self):
        report = ChaosReport(seed=1)
        decoded = json.loads(report.to_json())
        assert decoded["queries"] == 0
        assert decoded["violations"] == []

    def test_canonical_keys_are_pinned(self, storm):
        # The shared serializer cannot add or drop a key silently.
        assert set(json.loads(storm.to_json())) == {
            "seed",
            "fault_rate",
            "kind",
            "documents",
            "queries",
            "outcomes",
            "violations",
            "build_retries",
            "build_faults",
            "query_faults",
            "io",
            "breaker_trips",
            "ok",
        }


class TestExactRanks:
    def test_rank_drift_of_1e_12_is_a_mismatch(self):
        """The faulted build is byte-identical by contract, so the oracle
        comparison is exact: no rounding may hide a drifting rank."""
        oracle = [SearchHit(rank=0.5, dewey="0.1", tag="p", snippet="", path="p")]
        drifted = [replace(oracle[0], rank=0.5 + 1e-12)]
        verdicts = Verdicts()
        outcome = verdicts.judge(
            lambda: (False, fingerprint(drifted)), fingerprint(oracle), query="q"
        )
        assert outcome == "mismatch"
        assert not verdicts.ok
        assert verdicts.violations[0]["query"] == "q"
