"""The ``repro stress`` harness: clean verdicts and seed determinism."""

from __future__ import annotations

import json
import threading

import pytest

from repro import stress
from repro.analysis.races import RaceDetector
from repro.stress import StressReport, run_stress


def test_component_storm_is_race_free():
    report = run_stress(seed=3, scenarios=["components"], ops_scale=0.5)
    assert report.clean, report.describe()
    scenario = report.scenarios[0]
    assert scenario.name == "components"
    assert "cache.hits" in scenario.watched_fields
    assert "metrics.searches" in scenario.watched_fields
    assert "iostats.page_reads" in scenario.watched_fields
    assert "disk.pool" in scenario.watched_fields  # frames ride on the pool
    assert scenario.operations > 0


def test_service_storm_is_race_free():
    report = run_stress(seed=5, scenarios=["service"], ops_scale=0.5)
    assert report.clean, report.describe()
    fields = report.scenarios[0].watched_fields
    assert "service.results.hits" in fields
    assert "service.metrics.searches" in fields


def test_cluster_storm_is_race_free():
    report = run_stress(seed=11, scenarios=["cluster"], ops_scale=0.5)
    assert report.clean, report.describe()
    fields = report.scenarios[0].watched_fields
    assert "coordinator.queries" in fields
    assert "coordinator.failovers" in fields


def test_same_seed_reports_are_bit_identical():
    first = run_stress(seed=42, scenarios=["components"], ops_scale=0.25)
    second = run_stress(seed=42, scenarios=["components"], ops_scale=0.25)
    assert first.to_json() == second.to_json()


def test_canonical_json_excludes_schedule_dependent_counts():
    report = run_stress(seed=1, scenarios=["components"], ops_scale=0.25)
    payload = json.loads(report.to_json())
    scenario = payload["scenarios"][0]
    # Planned facts only: nothing the OS scheduler can perturb.
    assert set(scenario) == {
        "name",
        "threads",
        "operations",
        "watched_fields",
        "races",
        "errors",
        "lock_cycles",
        "clean",
    }


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown stress scenario"):
        run_stress(scenarios=["warp-drive"])


def test_report_describe_mentions_every_scenario():
    report = StressReport(seed=9)
    report.scenarios.extend(
        run_stress(seed=9, scenarios=["components"], ops_scale=0.25).scenarios
    )
    text = report.describe()
    assert "components" in text and "seed=9" in text


def test_hung_storm_thread_makes_the_report_unclean(monkeypatch):
    """A deadlocked storm is exactly what lock tracing hunts: a thread
    still alive after the join timeout must not come back clean."""
    monkeypatch.setattr(stress, "JOIN_TIMEOUT_S", 0.05)
    detector = RaceDetector()
    release = threading.Event()
    errors = []
    try:
        stress._run_threads(detector, [lambda: release.wait(10)], errors)
        result = stress._finish("hung", 1, 1, [], detector, errors)
    finally:
        release.set()
    assert not result.clean
    assert any("still running" in error for error in result.errors)
