"""End-to-end tests for the ``repro check`` driver and CLI wiring."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.analysis.check import build_check_engine, run_check
from repro.analysis.linter import LintConfig
from repro.analysis.races import RaceDetector, selftest
from repro.cli import main

CLEAN_SOURCE = '''\
def lookup(table, key):
    """A perfectly boring function."""
    return table.get(key)
'''

DIRTY_SOURCE = '''\
def risky(items=[]):
    try:
        return items[0]
    except:
        return None
'''


@pytest.fixture()
def clean_dir(tmp_path: Path) -> Path:
    (tmp_path / "clean.py").write_text(CLEAN_SOURCE)
    return tmp_path


@pytest.fixture()
def dirty_dir(tmp_path: Path) -> Path:
    (tmp_path / "dirty.py").write_text(DIRTY_SOURCE)
    return tmp_path


def test_run_check_clean_tree_exits_zero(clean_dir):
    out = io.StringIO()
    code = run_check(paths=[str(clean_dir)], config=LintConfig(), out=out)
    assert code == 0
    assert "check: ok" in out.getvalue()


def test_run_check_reports_violations_and_exits_one(dirty_dir):
    out = io.StringIO()
    code = run_check(paths=[str(dirty_dir)], config=LintConfig(), out=out)
    assert code == 1
    text = out.getvalue()
    assert "[bare-except]" in text
    assert "[mutable-default]" in text
    assert "check: FAILED" in text


def test_run_check_honors_config_disable(dirty_dir):
    out = io.StringIO()
    config = LintConfig(disable=frozenset({"bare-except", "mutable-default"}))
    code = run_check(paths=[str(dirty_dir)], config=config, out=out)
    assert code == 0
    assert "check: ok" in out.getvalue()


def test_run_check_list_rules(clean_dir):
    out = io.StringIO()
    config = LintConfig(disable=frozenset({"wall-clock"}))
    code = run_check(
        paths=[str(clean_dir)], config=config, list_rules=True, out=out
    )
    assert code == 0
    text = out.getvalue()
    for rule_id in (
        "deadline-discipline",
        "lock-discipline",
        "cache-generation",
        "bare-except",
        "mutable-default",
        "wall-clock",
    ):
        assert rule_id in text
    assert "wall-clock (disabled)" in text
    assert "check:" not in text  # listing does not run the gates


def test_cli_check_subcommand_clean(clean_dir, capsys):
    assert main(["check", str(clean_dir)]) == 0
    assert "check: ok" in capsys.readouterr().out


def test_cli_check_subcommand_dirty(dirty_dir, capsys):
    assert main(["check", str(dirty_dir)]) == 1
    assert "check: FAILED" in capsys.readouterr().out


def test_cli_check_missing_path_is_an_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    assert "cache-generation" in capsys.readouterr().out


def test_locktrace_selftest_passes():
    assert selftest() == []


def test_race_selftest_catches_the_planted_race(monkeypatch):
    """The merged self-test's unguarded counter surfaces as a race on
    exactly the planted object and field."""
    reports = []
    real_report = RaceDetector.report

    def spy(self):
        report = real_report(self)
        reports.append(report)
        return report

    monkeypatch.setattr(RaceDetector, "report", spy)
    assert selftest() == []
    (report,) = reports
    assert report.races
    assert {(r.obj, r.attr) for r in report.races} == {("selftest", "count")}


@pytest.mark.parametrize(
    "prong, missed",
    [("cycles", "ABBA"), ("hazards", "nested read"), ("races", "unguarded counter")],
)
def test_detector_selftest_fails_when_a_prong_is_blind(monkeypatch, prong, missed):
    """Each planted defect is judged on its own: blinding one prong of
    the report must cost exactly that one self-test check."""
    real_report = RaceDetector.report

    def blinded(self):
        report = real_report(self)
        setattr(report, prong, [])
        return report

    monkeypatch.setattr(RaceDetector, "report", blinded)
    failures = selftest()
    assert len(failures) == 1 and missed in failures[0], failures


def test_check_engine_builds_all_kinds():
    engine = build_check_engine()
    for kind in ("dil", "rdil", "hdil"):
        assert engine.index(kind) is not None
    results = engine.search("xql language", m=5)
    assert results


def test_repo_tree_passes_own_gate():
    """The shipped tree must satisfy its own lint gate (CI invariant)."""
    package_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    out = io.StringIO()
    assert run_check(paths=[str(package_root)], out=out) == 0, out.getvalue()


# -- machine-readable output, annotations, suppression audit ------------------------

USED_SUPPRESSION_SOURCE = '''\
def risky(items=[]):  # repro: ignore[mutable-default]
    return list(items)
'''

UNUSED_SUPPRESSION_SOURCE = '''\
def fine(x):
    return x  # repro: ignore[bare-except]
'''


def test_run_check_writes_json_report(dirty_dir, tmp_path):
    import json

    report_path = tmp_path / "report.json"
    out = io.StringIO()
    code = run_check(
        paths=[str(dirty_dir)],
        config=LintConfig(),
        out=out,
        json_path=str(report_path),
    )
    assert code == 1
    payload = json.loads(report_path.read_text())
    assert payload["ok"] is False
    assert payload["strict"] is False
    rules = {v["rule"] for v in payload["lint"]["violations"]}
    assert {"bare-except", "mutable-default"} <= rules
    assert payload["failures"] == len(payload["lint"]["violations"])


def test_run_check_json_dash_writes_to_out(clean_dir):
    import json

    out = io.StringIO()
    code = run_check(
        paths=[str(clean_dir)], config=LintConfig(), out=out, json_path="-"
    )
    assert code == 0
    text = out.getvalue()
    payload = json.loads(text[text.index("{") : text.rindex("}") + 1])
    assert payload["ok"] is True


def test_run_check_github_annotations(dirty_dir):
    out = io.StringIO()
    run_check(
        paths=[str(dirty_dir)], config=LintConfig(), out=out, github=True
    )
    text = out.getvalue()
    assert "::error file=" in text
    assert "title=repro-check [bare-except]" in text


def test_show_suppressed_prints_silenced_findings(tmp_path):
    (tmp_path / "quiet.py").write_text(USED_SUPPRESSION_SOURCE)
    out = io.StringIO()
    code = run_check(
        paths=[str(tmp_path)],
        config=LintConfig(),
        out=out,
        show_suppressed=True,
    )
    assert code == 0  # a *used* suppression is not a failure
    text = out.getvalue()
    assert "suppressed:" in text
    assert "[mutable-default]" in text


def test_unused_suppression_fails_the_gate(tmp_path):
    (tmp_path / "stale.py").write_text(UNUSED_SUPPRESSION_SOURCE)
    out = io.StringIO()
    code = run_check(paths=[str(tmp_path)], config=LintConfig(), out=out)
    assert code == 1
    text = out.getvalue()
    assert "[unused-suppression]" in text
    assert "bare-except" in text


def test_cli_check_json_flag(clean_dir, tmp_path, capsys):
    import json

    report_path = tmp_path / "check.json"
    assert main(["check", str(clean_dir), "--json", str(report_path)]) == 0
    capsys.readouterr()
    assert json.loads(report_path.read_text())["ok"] is True


def test_cli_stress_subcommand_writes_canonical_json(tmp_path, capsys):
    import json

    report_path = tmp_path / "stress.json"
    code = main(
        [
            "stress",
            "--seed",
            "7",
            "--scenario",
            "components",
            "--ops-scale",
            "0.25",
            "--json",
            str(report_path),
        ]
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["seed"] == 7
    assert payload["clean"] is True
    assert [s["name"] for s in payload["scenarios"]] == ["components"]
    assert "components" in capsys.readouterr().out
