"""Smoke tests for the ladder benchmark (``pytest benchmarks/ladder``).

Everything runs at ``--tiny`` size in subprocesses, the way the driver runs
the benchmark; no number produced here is ever compared with another.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(HERE))

from compare import EXACT, compare  # noqa: E402

#: The ISSUE's matrix: what each workload's own row prints.
ROWS = {
    "cold-probe": "setup_s query_p50_ms query_p95_ms query_throughput_qps "
                  "query_sim_io_ms peak_rss_mb failed_share",
    "scan-merge": "setup_s query_p50_ms query_p95_ms query_throughput_qps "
                  "query_sim_io_ms peak_rss_mb failed_share",
    "serve-mixed": "setup_s query_p50_ms query_p95_ms query_throughput_qps "
                   "add_p50_ms peak_rss_mb failed_share",
    "cluster-http": "setup_s query_p50_ms query_p95_ms query_throughput_qps "
                    "peak_rss_mb failed_share",
    "bulk-build": "setup_s build_docs_per_s build_parallel_docs_per_s "
                  "index_bytes_per_source_byte snapshot_restart_s "
                  "peak_rss_mb failed_share",
}


def run(workload, out, seed=1, trace=0, inject="", results="results.jsonl"):
    command = RUN + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--tiny", "--out", str(out),
        "--results", str(Path(out) / results),
    ]
    if inject:
        command += ["--inject", inject]
    return subprocess.run(command, capture_output=True, text=True, timeout=170)


def records(out, results="results.jsonl"):
    lines = (Path(out) / results).read_text().splitlines()
    return [json.loads(line) for line in lines]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload: seed 1 twice and seed 2 once untraced, seed 1 traced."""
    out = tmp_path_factory.mktemp("ladder")
    completed = {}
    for workload in WORKLOADS:
        completed[workload] = [
            run(workload, out, seed=1, results="a.jsonl"),
            run(workload, out, seed=1, results="b.jsonl"),
            run(workload, out, seed=2, results="c.jsonl"),
            run(workload, out, seed=1, trace=1, results="traced.jsonl"),
        ]
    return out, completed


def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ladder"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_shape(runs, workload):
    _out, completed = runs
    untraced, _again, _other, traced = completed[workload]
    for process, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert process.returncode == 0, process.stderr
        lines = process.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert set(result["metrics"]) == set(expected)
        for name, cell in result["metrics"].items():
            assert set(cell) == {"value", "unit"}
            assert cell["unit"] == expected[name]
        if section == "end_to_end":
            assert all(c["value"] > 0 for c in result["metrics"].values())
        # The workload's own row: exactly the matrix, nothing borrowed.
        start = lines.index("# this workload's row") + 1
        end = next(i for i in range(start, len(lines))
                   if lines[i].startswith("#"))
        printed = [line.split()[0] for line in lines[start:end]]
        assert printed == ROWS[workload].split()
        for line in lines[start:end]:
            name, value, unit = line.split()
            float(value)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_metrics_repeat_for_a_seed_and_move_with_it(runs, workload):
    out, _completed = runs

    def exact(results):
        record = next(
            r for r in records(out, results) if r["workload"] == workload)
        merged = {**record["layers"], **record["end_to_end"]}
        return {name: merged[name] for name in EXACT if name in merged}

    first, again, other = exact("a.jsonl"), exact("b.jsonl"), exact("c.jsonl")
    assert first and json.dumps(first) == json.dumps(again)
    assert first != other
    manifests = [
        json.loads((Path(out) / f"manifest-{workload}-{seed}.json").read_text())
        for seed in (1, 2)
    ]
    assert manifests[0]["corpus_sha256"] != manifests[1]["corpus_sha256"]


def test_trace_isolates_the_layers(runs):
    out, completed = runs
    traced = {r["workload"]: r["layers"] for r in records(out, "traced.jsonl")}
    cold, scan = traced["cold-probe"], traced["scan-merge"]
    assert cold["storage.btree.probe.calls_per_query"] > 0
    assert scan["storage.btree.probe.calls_per_query"] == 0
    assert scan["query.rdil_probes_per_query"] == 0
    storage = sum(cold[f"{name}.self_ms_per_query"] for name in (
        "storage.btree.probe", "index.hdil.decode_list_page",
        "storage.disk.read"))
    everything = sum(
        v for k, v in cold.items() if k.endswith(".self_ms_per_query"))
    assert storage > 0.5 * everything
    for workload in WORKLOADS:
        assert traced[workload]["bench.trace_sum_error"] <= 0.02
        spans = [json.loads(line) for line in
                 (Path(out) / f"trace-{workload}.jsonl").read_text().splitlines()]
        assert spans and set(spans[0]) == {
            "id", "name", "start_ns", "end_ns", "parent", "request",
            "thread", "key"}
    cluster = traced["cluster-http"]
    assert cluster["service.client.request.calls_per_query"] == 2
    assert cluster["service.search.calls_per_query"] == 2


@pytest.mark.parametrize("workload", ["cold-probe", "cluster-http", "bulk-build"])
def test_wrong_answer_fails_the_run(tmp_path, workload):
    process = run(workload, tmp_path, inject="wrong-answer")
    assert process.returncode != 0
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert records(tmp_path)[0]["layers"]["failed_share"] > 0


@pytest.mark.parametrize("workload", ["cold-probe", "scan-merge", "serve-mixed",
                                      "cluster-http"])
def test_validity_asserts_fire_on_trivial_queries(tmp_path, workload):
    process = run(workload, tmp_path, inject="trivial-queries")
    assert process.returncode == 3
    assert "validity assert failed" in process.stderr
    assert not (tmp_path / "results.jsonl").exists()


def test_compare_verdicts(runs, capsys):
    out, _completed = runs
    status = compare(Path(out) / "a.jsonl", Path(out) / "b.jsonl")
    table = capsys.readouterr().out
    assert "differs" not in table and "identical" in table
    assert status in (0, 1)  # wall-clock rows are noise at this size
    # Against itself nothing can be worse.
    assert compare(Path(out) / "a.jsonl", Path(out) / "a.jsonl") == 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ladder",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    process = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload", "cold-probe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert process.returncode != 0
    assert not process.stdout.strip()
