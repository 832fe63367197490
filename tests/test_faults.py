"""Unit tests for the fault-injection subsystem (repro.faults).

Covers the seeded plan itself (determinism, per-site stream independence,
trigger shapes), the checksummed disk under injected faults, the serving
layer's circuit breaker, the client's retry/backoff/error-budget
machinery, per-shard build retries, and the ``fault-typed-errors`` lint
rule.  The end-to-end storm lives in ``tests/test_faults_chaos.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.linter import Linter
from repro.analysis.rules import ALL_RULES
from repro.build.pipeline import build_corpus
from repro.build.shard import specs_from
from repro.config import StorageParams
from repro.errors import (
    BuildError,
    CorruptPageError,
    FaultError,
    ReadFaultError,
    RetryBudgetExhaustedError,
    ServiceHTTPError,
)
from repro.faults import (
    ALL_SITES,
    NO_FAULTS,
    READ_SITES,
    SITE_READ_BITFLIP,
    SITE_READ_ERROR,
    SITE_READ_TORN,
    SITE_RUNFILE_CORRUPT,
    SITE_WORKER_CRASH,
    FaultPlan,
    FaultReport,
    FaultSpec,
)
from repro.service.breaker import FALLBACK_KIND, CircuitBreaker
from repro.service.client import ServiceClient
from repro.storage import checksum as checksum_module
from repro.storage.checksum import checksum_frame, crc32c
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import ListDirectory


# -- FaultPlan ---------------------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        def decisions(seed):
            plan = FaultPlan.uniform(seed, 0.3, sites=READ_SITES)
            return [
                (site, plan.should_fire(site))
                for _ in range(50)
                for site in READ_SITES
            ]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_sites_are_independent_streams(self):
        # Consulting one site must not perturb another's sequence.
        solo = FaultPlan.uniform(42, 0.5, sites=(SITE_READ_ERROR,))
        solo_seq = [solo.should_fire(SITE_READ_ERROR) for _ in range(40)]

        mixed = FaultPlan.uniform(42, 0.5, sites=READ_SITES)
        mixed_seq = []
        for _ in range(40):
            mixed.should_fire(SITE_READ_TORN)
            mixed.should_fire(SITE_READ_BITFLIP)
            mixed_seq.append(mixed.should_fire(SITE_READ_ERROR))
        assert mixed_seq == solo_seq

    def test_times_caps_fires(self):
        plan = FaultPlan(1, [FaultSpec(SITE_READ_ERROR, 1.0, times=2)])
        fired = [plan.should_fire(SITE_READ_ERROR) for _ in range(10)]
        assert fired == [True, True] + [False] * 8
        assert plan.fires(SITE_READ_ERROR) == 2

    def test_skip_delays_first_fire(self):
        plan = FaultPlan(1, [FaultSpec(SITE_READ_ERROR, 1.0, skip=3)])
        fired = [plan.should_fire(SITE_READ_ERROR) for _ in range(6)]
        assert fired == [False, False, False, True, True, True]

    def test_unknown_site_never_fires(self):
        plan = FaultPlan(1, [FaultSpec(SITE_READ_ERROR, 1.0)])
        assert not plan.should_fire(SITE_WORKER_CRASH)
        assert NO_FAULTS.should_fire(SITE_READ_ERROR) is False

    def test_zero_probability_never_fires(self):
        plan = FaultPlan.uniform(9, 0.0, sites=ALL_SITES)
        assert not any(plan.should_fire(s) for s in ALL_SITES for _ in range(20))

    def test_choose_is_deterministic_and_bounded(self):
        one = FaultPlan(5, [FaultSpec(SITE_READ_BITFLIP, 1.0)])
        two = FaultPlan(5, [FaultSpec(SITE_READ_BITFLIP, 1.0)])
        picks = [one.choose(SITE_READ_BITFLIP, 100) for _ in range(20)]
        assert picks == [two.choose(SITE_READ_BITFLIP, 100) for _ in range(20)]
        assert all(0 <= p < 100 for p in picks)
        assert one.choose("no.such.site", 100) == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(SITE_READ_ERROR, probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(SITE_READ_ERROR, times=-1)

    def test_counters_and_report(self):
        plan = FaultPlan(3, [FaultSpec(SITE_READ_ERROR, 1.0, times=1)])
        plan.should_fire(SITE_READ_ERROR)
        plan.should_fire(SITE_READ_ERROR)
        counters = plan.counters()
        assert counters == {SITE_READ_ERROR: {"calls": 2, "fires": 1}}
        report = FaultReport.from_plan(plan)
        assert report.to_dict() == {"seed": 3, "sites": counters}

    def test_plan_survives_pickling(self):
        import pickle

        plan = FaultPlan(11, [FaultSpec(SITE_READ_ERROR, 1.0, times=1)])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.should_fire(SITE_READ_ERROR)  # lock restored, state kept
        assert clone.fires(SITE_READ_ERROR) == 1


# -- crc32c ------------------------------------------------------------------------


class TestChecksum:
    def test_crc32c_test_vector(self):
        # The canonical Castagnoli check value (RFC 3720 appendix B.4).
        assert crc32c(b"123456789") == 0xE3069283

    def test_crc32c_detects_single_bit_flip(self):
        data = bytearray(b"the quick brown fox")
        reference = crc32c(bytes(data))
        data[4] ^= 0x10
        assert crc32c(bytes(data)) != reference

    def test_checksum_frame_is_4_le_bytes(self):
        frame = checksum_frame(b"abc")
        assert len(frame) == 4
        assert int.from_bytes(frame, "little") == crc32c(b"abc")

    def test_long_inputs_match_the_byte_loop(self):
        """Snapshot-sized inputs take the vectorized path; its CRC must be
        the byte loop's, bit for bit, or old snapshots stop verifying."""
        table = []
        for byte in range(256):
            register = byte
            for _ in range(8):
                register = (register >> 1) ^ 0x82F63B78 if register & 1 else register >> 1
            table.append(register)

        def byte_loop(data, crc=0):
            register = crc ^ 0xFFFFFFFF
            for byte in data:
                register = table[(register ^ byte) & 0xFF] ^ (register >> 8)
            return register ^ 0xFFFFFFFF

        rng = random.Random(32)
        threshold, lanes = checksum_module._VECTOR_MIN, checksum_module._LANES
        for length in (threshold - 1, threshold, threshold + 1,
                       lanes * 97 + lanes - 1, 300_001):
            data = rng.randbytes(length)
            for start in (0, 0xDEADBEEF):
                expected = byte_loop(data, start)
                assert crc32c(data, start) == expected, length
                assert crc32c(bytearray(data), start) == expected, length
                assert crc32c(memoryview(data), start) == expected, length
            # Continuation across the two paths.
            cut = length // 3
            assert crc32c(data[cut:], crc32c(data[:cut])) == byte_loop(data)
        assert crc32c(bytes(threshold)) == byte_loop(bytes(threshold))


# -- SimulatedDisk under faults ----------------------------------------------------


class TestDiskFaults:
    def _disk(self, plan, checksums=True, read_retries=1):
        disk = SimulatedDisk(
            StorageParams(checksums=checksums, read_retries=read_retries)
        )
        disk.fault_plan = plan
        return disk

    def test_transient_read_error_retried_in_place(self):
        plan = FaultPlan(1, [FaultSpec(SITE_READ_ERROR, 1.0, times=1)])
        disk = self._disk(plan)
        pid = disk.allocate(b"payload")
        assert disk.read(pid) == b"payload"
        assert disk.stats.read_errors == 1
        assert disk.stats.retries == 1

    def test_persistent_read_error_escapes_typed(self):
        plan = FaultPlan(1, [FaultSpec(SITE_READ_ERROR, 1.0)])
        disk = self._disk(plan, read_retries=2)
        pid = disk.allocate(b"payload")
        with pytest.raises(ReadFaultError) as excinfo:
            disk.read(pid)
        assert excinfo.value.page_id == pid
        assert disk.stats.retries == 2

    def test_bitflip_detected_by_checksum_with_owner(self):
        plan = FaultPlan(2, [FaultSpec(SITE_READ_BITFLIP, 1.0, times=1)])
        disk = self._disk(plan)
        lists = ListDirectory(disk, "hdil")
        (pid,) = lists.write("keyword", [b"x" * 64]).page_ids
        # Bit rot is persistent: the retry re-reads the damaged page and
        # the checksum fails again, so the error escapes.
        with pytest.raises(CorruptPageError) as excinfo:
            disk.read(pid)
        assert excinfo.value.page_id == pid
        assert "hdil:keyword" in str(excinfo.value)
        assert disk.stats.corrupt_pages >= 1

    def test_torn_read_is_transient_under_checksums(self):
        plan = FaultPlan(3, [FaultSpec(SITE_READ_TORN, 1.0, times=1)])
        disk = self._disk(plan)
        pid = disk.allocate(b"y" * 64)
        # The torn copy fails its checksum; the stored page is intact, so
        # the in-place retry returns the real bytes.
        assert disk.read(pid) == b"y" * 64
        assert disk.stats.corrupt_pages == 1
        assert disk.stats.retries == 1

    def test_torn_read_without_checksums_is_silent(self):
        # The corruption checksums exist to catch: with them off, a torn
        # read flows truncated bytes into the caller.
        plan = FaultPlan(3, [FaultSpec(SITE_READ_TORN, 1.0, times=1)])
        disk = self._disk(plan, checksums=False)
        pid = disk.allocate(b"y" * 64)
        assert len(disk.read(pid)) < 64

    def test_faults_are_subclasses_of_fault_error(self):
        assert issubclass(ReadFaultError, FaultError)
        assert issubclass(CorruptPageError, FaultError)

    def test_owner_labels_recorded(self):
        disk = SimulatedDisk()
        lists = ListDirectory(disk, "rdil")
        (pid,) = lists.write("xml", [b"data"]).page_ids
        assert disk.owner_of(pid) == "rdil:xml"
        assert disk.owner_of(disk.allocate(b"tree page")) == ""

    def test_clean_disk_unaffected_by_no_faults(self):
        disk = self._disk(NO_FAULTS)
        pid = disk.allocate(b"stable")
        for _ in range(3):
            disk.drop_cache()
            assert disk.read(pid) == b"stable"
        assert disk.stats.retries == 0


# -- CircuitBreaker ----------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=4)
        for _ in range(2):
            breaker.record_failure("hdil")
        assert not breaker.is_open("hdil")
        breaker.record_failure("hdil")
        assert breaker.is_open("hdil")
        assert breaker.trips == 1

    def test_success_resets_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown=4)
        breaker.record_failure("hdil")
        breaker.record_success("hdil")
        breaker.record_failure("hdil")
        assert not breaker.is_open("hdil")

    def test_cooldown_counts_queries_then_half_opens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=3)
        breaker.record_failure("rdil")
        assert breaker.is_open("rdil")
        assert not breaker.allow("rdil")
        assert not breaker.allow("rdil")
        # The call that exhausts the cooldown is the half-open probe.
        assert breaker.allow("rdil")
        breaker.record_success("rdil")
        assert not breaker.is_open("rdil")
        assert breaker.allow("rdil")

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record_failure("rdil")
        assert not breaker.allow("rdil")
        assert breaker.allow("rdil")  # probe
        breaker.record_failure("rdil")
        assert breaker.is_open("rdil")
        assert breaker.trips == 2

    def test_kinds_are_isolated(self):
        breaker = CircuitBreaker(threshold=1, cooldown=8)
        breaker.record_failure("hdil")
        assert breaker.is_open("hdil")
        assert not breaker.is_open("dil")
        assert breaker.allow("dil")
        assert breaker.is_open()  # any-kind form

    def test_fallback_map_terminates_at_dil(self):
        for kind, fallback in FALLBACK_KIND.items():
            assert fallback not in FALLBACK_KIND, (kind, fallback)

    def test_state_snapshot(self):
        breaker = CircuitBreaker(threshold=2, cooldown=5)
        breaker.record_failure("hdil")
        state = breaker.state()
        assert state["threshold"] == 2
        assert state["kinds"]["hdil"] == {"state": "closed", "failures": 1}
        breaker.record_failure("hdil")
        assert breaker.state()["kinds"]["hdil"]["state"] == "open"


# -- ServiceClient retry machinery -------------------------------------------------


class _ScriptedClient(ServiceClient):
    """A client whose wire layer is a scripted list of outcomes."""

    def __init__(self, script, **kwargs):
        kwargs.setdefault("sleep", self.record_sleep)
        self.sleeps = []
        super().__init__(**kwargs)
        self._script = list(script)
        self.calls = 0

    def record_sleep(self, seconds):
        self.sleeps.append(seconds)

    def _request_once(self, method, path, body, headers=None):
        self.calls += 1
        outcome = self._script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestClientRetries:
    def test_retries_503_then_succeeds(self):
        client = _ScriptedClient(
            [ServiceHTTPError(503, {"error": "overloaded"}), {"ok": True}],
            max_retries=3,
        )
        assert client.stats() == {"ok": True}
        assert client.calls == 2
        assert client.retries == 1
        assert len(client.sleeps) == 1

    def test_retryable_500_retried_plain_500_not(self):
        client = _ScriptedClient(
            [
                ServiceHTTPError(500, {"error": "fault", "retryable": True}),
                {"ok": True},
            ]
        )
        assert client.healthz() == {"ok": True}

        client = _ScriptedClient([ServiceHTTPError(500, {"error": "bug"})])
        with pytest.raises(ServiceHTTPError):
            client.healthz()
        assert client.calls == 1

    def test_400_never_retried(self):
        client = _ScriptedClient([ServiceHTTPError(400, {"error": "bad"})])
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.search("")
        assert excinfo.value.status == 400
        assert client.calls == 1

    def test_transport_errors_surface_typed_after_retries(self):
        client = _ScriptedClient(
            [ConnectionRefusedError("refused")] * 3, max_retries=2
        )
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert client.calls == 3

    def test_backoff_is_jittered_exponential_and_seeded(self):
        script = [ServiceHTTPError(503, {})] * 4 + [{"ok": True}]
        one = _ScriptedClient(
            list(script), max_retries=4, backoff_base_s=0.1,
            backoff_cap_s=10.0, retry_seed=99,
        )
        one.healthz()
        two = _ScriptedClient(
            list(script), max_retries=4, backoff_base_s=0.1,
            backoff_cap_s=10.0, retry_seed=99,
        )
        two.healthz()
        assert one.sleeps == two.sleeps
        for attempt, delay in enumerate(one.sleeps):
            envelope = 0.1 * (2 ** attempt)
            assert envelope * 0.5 <= delay <= envelope

    def test_backoff_respects_cap(self):
        client = _ScriptedClient(
            [ServiceHTTPError(503, {})] * 8 + [{"ok": True}],
            max_retries=8, backoff_base_s=0.05, backoff_cap_s=0.2,
        )
        client.healthz()
        assert max(client.sleeps) <= 0.2

    def test_error_budget_exhaustion(self):
        client = _ScriptedClient(
            [ServiceHTTPError(503, {})] * 10, max_retries=9, error_budget=2
        )
        with pytest.raises(RetryBudgetExhaustedError):
            client.healthz()
        assert client.retries == 2

    def test_successes_earn_budget_back(self):
        script = [
            ServiceHTTPError(503, {}), {"ok": 1},   # spends 1, earns 1
            ServiceHTTPError(503, {}), {"ok": 2},   # spends 1, earns 1
            ServiceHTTPError(503, {}), {"ok": 3},
        ]
        client = _ScriptedClient(script, max_retries=1, error_budget=1)
        assert client.healthz() == {"ok": 1}
        assert client.healthz() == {"ok": 2}
        assert client.healthz() == {"ok": 3}


# -- build pipeline per-shard retry ------------------------------------------------

_SOURCES = [
    ("<doc><t>ranked keyword search</t></doc>", "a.xml"),
    ("<doc><t>xml element trees</t></doc>", "b.xml"),
    ("<doc><t>inverted list storage</t></doc>", "c.xml"),
    ("<doc><t>dewey identifiers</t></doc>", "d.xml"),
]


class TestBuildRetries:
    def _clean(self):
        return build_corpus(specs_from(_SOURCES))

    def test_inline_worker_crash_retried(self):
        plan = FaultPlan(1, [FaultSpec(SITE_WORKER_CRASH, 1.0, times=1)])
        result = build_corpus(specs_from(_SOURCES), fault_plan=plan)
        assert result.stats.retries >= 1
        assert result.raw_postings == self._clean().raw_postings

    def test_runfile_corruption_retried(self, tmp_path):
        plan = FaultPlan(2, [FaultSpec(SITE_RUNFILE_CORRUPT, 1.0, times=1)])
        result = build_corpus(
            specs_from(_SOURCES),
            spill_dir=tmp_path,
            fault_plan=plan,
        )
        assert result.stats.retries >= 1
        assert plan.fires(SITE_RUNFILE_CORRUPT) == 1
        assert result.raw_postings == self._clean().raw_postings

    def test_every_corrupted_byte_costs_the_inline_shard_a_retry(
        self, tmp_path
    ):
        # Wherever the flipped byte lands — a length prefix, a body, a
        # trailer — reading the run raises CorruptRunError and the shard
        # is retried, never a plain StorageError escaping the build.
        clean = self._clean().raw_postings
        for seed in range(200):
            plan = FaultPlan(
                seed, [FaultSpec(SITE_RUNFILE_CORRUPT, 1.0, times=1)]
            )
            result = build_corpus(
                specs_from(_SOURCES), spill_dir=tmp_path, fault_plan=plan
            )
            assert result.stats.retries >= 1, seed
            assert result.raw_postings == clean, seed

    def test_persistent_crash_fails_after_capped_attempts(self):
        plan = FaultPlan(3, [FaultSpec(SITE_WORKER_CRASH, 1.0)])
        with pytest.raises(BuildError) as excinfo:
            build_corpus(specs_from(_SOURCES), fault_plan=plan)
        assert "attempts" in str(excinfo.value)

    def test_pool_worker_crash_retried(self, tmp_path):
        plan = FaultPlan(
            4,
            [
                FaultSpec(SITE_WORKER_CRASH, 1.0, times=1),
                FaultSpec(SITE_RUNFILE_CORRUPT, 1.0, times=1),
            ],
        )
        result = build_corpus(
            specs_from(_SOURCES),
            workers=2,
            spill_dir=tmp_path,
            fault_plan=plan,
        )
        assert result.stats.retries >= 1
        assert result.raw_postings == self._clean().raw_postings


# -- fault-typed-errors lint rule --------------------------------------------------


class TestFaultTypedErrorsRule:
    STORAGE_PATH = "src/repro/storage/fixture_disk.py"

    def _lint(self, source, path=STORAGE_PATH):
        import textwrap

        return Linter(ALL_RULES).lint_source(textwrap.dedent(source), path)

    def test_builtin_raise_in_storage_fires(self):
        violations = self._lint(
            """
            def fetch(page_id):
                raise RuntimeError("read failed")
            """
        )
        assert [v.rule for v in violations] == ["fault-typed-errors"]
        assert "RuntimeError" in violations[0].message

    def test_typed_raise_is_clean(self):
        violations = self._lint(
            """
            from repro.errors import ReadFaultError

            def fetch(page_id):
                raise ReadFaultError(page_id)
            """
        )
        assert "fault-typed-errors" not in [v.rule for v in violations]

    def test_bare_reraise_is_out_of_scope(self):
        violations = self._lint(
            """
            def fetch(page_id, inner):
                try:
                    return inner(page_id)
                except ReadFaultError:
                    raise
            """
        )
        assert "fault-typed-errors" not in [v.rule for v in violations]

    def test_suppression_comment_honoured(self):
        violations = self._lint(
            """
            def validate(rate):
                if rate < 0:
                    raise ValueError(rate)  # repro: ignore[fault-typed-errors]
            """
        )
        assert "fault-typed-errors" not in [v.rule for v in violations]

    def test_rule_scoped_to_fault_bearing_packages(self):
        violations = self._lint(
            """
            def parse(value):
                raise ValueError(value)
            """,
            path="src/repro/query/fixture_eval.py",
        )
        assert "fault-typed-errors" not in [v.rule for v in violations]
