#!/usr/bin/env python3
"""Layer-ladder benchmark runner.

One invocation = one workload, one seed, one fresh process::

    python3 benchmarks/ladder/run.py --workload cold-probe --seed 1 \
        --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` re-runs one pass under the span recorder and takes the
per-layer probes.  ``--workload all`` and ``--repeat N`` fan out into one
subprocess per run.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit status is
non-zero when an answer was wrong or a validity assert fired.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = (
    "cold-probe", "scan-merge", "serve-mixed", "cluster-http", "bulk-build",
)
EXIT_INCORRECT, EXIT_INVALID, EXIT_NO_PROGRAM = 1, 3, 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window; default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size; numbers are never compared")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for manifests, span files, results")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1, "
                             "workloads interleaved")
    parser.add_argument("--results", default=None,
                        help="append one JSON record per run to this file")
    parser.add_argument("--inject", default="",
                        choices=("", "wrong-answer", "trivial-queries"),
                        help="self-test only: force a failure")
    return parser.parse_args(argv)


# -- fan-out ----------------------------------------------------------------------


def fan_out(args) -> int:
    """One subprocess per (repeat, workload), workloads interleaved."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = args.results or os.path.join(args.out, "results.jsonl")
    worst = 0
    for repeat in range(args.repeat):
        for name in names:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed + repeat),
                "--trace", str(args.trace), "--out", args.out,
                "--results", results,
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.tiny:
                command.append("--tiny")
            if args.inject:
                command += ["--inject", args.inject]
            print(f"# {name} seed={args.seed + repeat}", flush=True)
            worst = max(worst, subprocess.run(command).returncode)
    print(f"# results appended to {results}")
    return worst


# -- one run ----------------------------------------------------------------------


def run_one(args, spec) -> int:
    import hostclock
    import inputs as inputs_module
    from workloads import WORKLOADS, Tally, ValidityError, p95

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out)
    # Everything the run or its build workers write stays under --out.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch

    spin_before = hostclock.spin_ms()
    scale = inputs_module.TINY if args.tiny else inputs_module.FULL
    begun = time.perf_counter()
    inputs = inputs_module.GENERATORS[args.workload](args.seed, scale)
    if args.inject == "trivial-queries":
        inputs.queries = list(inputs_module.trivial_queries(inputs))
    input_gen_s = time.perf_counter() - begun
    manifest = inputs.manifest()
    manifest_path = out / f"manifest-{args.workload}-{args.seed}.json"
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))

    workload = WORKLOADS[args.workload](inputs, scratch, args.inject)
    tally = Tally()
    layer_values = {"host.spin_ms_before": spin_before,
                    "bench.input_gen_s": input_gen_s}
    try:
        # The program's set-up, several times over; the last one is kept.
        setup_times = []
        for _ in range(scale.setup_repeats):
            workload.tear_down()
            setup_times.append(hostclock.timed(workload.set_up)[1])
        setup_s = median(setup_times)
        workload.setup_done(setup_s)
        # Space as built, before serve-mixed's adds grow a delta index.
        index_bytes = workload.index_bytes_per_source_byte()
        begun = time.perf_counter()
        workload.prepare()
        prepared = time.perf_counter()
        try:
            counters = workload.check_pass(tally)
            checked = time.perf_counter()
            if args.trace:
                layer_values.update(traced_run(workload, tally, out, args))
            else:
                deadline = time.perf_counter() + seconds
                while True:
                    workload.timed_pass(tally)
                    if time.perf_counter() >= deadline:
                        break
            workload.finish()
        except ValidityError as error:
            print(f"validity assert failed: {error}", file=sys.stderr)
            return EXIT_INVALID
        samples = tally.latencies_ms()
        if not samples:
            print("no correct timed query; nothing to report: "
                  + "; ".join(tally.problems), file=sys.stderr)
            return EXIT_INCORRECT
        end_to_end = {
            "setup_s": setup_s,
            "query_p50_ms": median(samples),
            "query_p95_ms": p95(samples),
            "query_throughput_qps": tally.timed / tally.window_s,
            "index_bytes_per_source_byte": index_bytes,
        }
        layer_values.update(counters.metrics(workload.config.storage.page_size))
        layer_values.update(workload.own)
        if args.trace:
            layer_values.update(workload.layer_metrics())
    finally:
        workload.tear_down()
        shutil.rmtree(scratch, ignore_errors=True)
    layer_values["host.spin_ms_after"] = hostclock.spin_ms()
    layer_values["host.speed_factor"] = median(hostclock.observed)
    layer_values["failed_share"] = tally.failed / tally.attempted
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(
        name for name in {**layer_values, **end_to_end} if name not in units)
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer_values if args.trace else end_to_end
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in chosen
    }
    correct = tally.failed == 0

    print(f"# ladder {args.workload} seed={args.seed} scale={scale.name} "
          f"trace={args.trace} corpus_sha256={manifest['corpus_sha256'][:16]} "
          f"manifest={manifest_path}")
    print(f"# untimed: inputs {input_gen_s:.2f} s, set-ups "
          f"{sum(setup_times):.2f} s, oracle {prepared - begun:.2f} s, "
          f"check pass {checked - prepared:.2f} s")
    print(f"# operations={len(samples)} samples={tally.timed} "
          f"window_s={tally.window_s:.3f} "
          f"setup_repeats={len(setup_times)} attempted={tally.attempted} "
          f"failed={tally.failed}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    for name, value in end_to_end.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("# this workload's row")
    for name in workload.row:
        value = {**layer_values, **end_to_end}.get(name)
        if value is not None:
            print(f"{name} {value:.6g} {units[name]}")
    print("# per-layer" + ("" if args.trace else
                           " (counters only; the rest needs --trace 1)"))
    for name in sorted(layer_values):
        print(f"{name} {layer_values[name]:.6g} {units[name]}")
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    if args.results:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, scale=scale.name,
                      layers=layer_values, end_to_end=end_to_end)
        with open(args.results, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else EXIT_INCORRECT


def traced_run(workload, tally, out, args):
    """One plain pass, one pass under the span recorder, then the probes."""
    import hostclock
    import layers
    from spans import DECODE_SPAN, SPAN_NAMES, SpanRecorder
    from workloads import Tally

    plain = Tally()
    workload.timed_pass(plain)
    recorder = SpanRecorder()
    recorder.install(workload.traced_engines())
    mark = len(hostclock.observed)
    try:
        workload.traced_pass(tally)
    finally:
        recorder.uninstall()
    summary = recorder.summarize()
    # Spans keep raw nanoseconds; the per-query figures derived from them
    # are brought to the reference host speed with the traced pass's factor.
    to_reference = median(hostclock.observed[mark:])
    recorder.write(out / f"trace-{args.workload}.jsonl")
    values = {
        "bench.trace_overhead_ratio":
            median(tally.latencies_ms()) / median(plain.latencies_ms()),
        "bench.trace_sum_error": summary.worst_sum_error,
    }
    for name in SPAN_NAMES:
        values[f"{name}.self_ms_per_query"] = (
            summary.self_ms_per_query(name) * to_reference)
        values[f"{name}.calls_per_query"] = summary.calls_per_query(name)
    storage_share = summary.share(
        ("storage.btree.probe", DECODE_SPAN, "storage.disk.read"))
    print(f"# trace: {summary.requests} requests, {len(recorder.spans)} spans, "
          f"self times sum to the root within "
          f"{summary.worst_sum_error * 100:.3f} %, "
          f"storage/codec share of self time {storage_share * 100:.1f} %")
    if summary.worst_sum_error > 0.02:
        raise SystemExit("span self times do not sum to their roots")

    config = workload.config
    values.update(layers.text_and_model(workload.inputs))
    built = layers.index_build(workload.inputs, config)
    values.update(built.metrics)
    values.update(layers.storage(built, args.seed))
    values.update(layers.merge(built, config))
    engine = workload.engines()[0]
    values.update(layers.evaluators(
        built, engine, workload.probe_kind, workload.inputs.queries, config))
    values.update(layers.service_layers(
        engine, workload.probe_kind, workload.inputs.queries))
    return values


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not (ROOT / "src" / "repro").is_dir():
        print("no program to measure: src/repro is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    # Set iteration order (and so a few tie-breaks and dict layouts) depends
    # on string hashing; pin it so two runs execute the same instructions.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if args.workload == "all" or args.repeat > 1:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return fan_out(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return run_one(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
