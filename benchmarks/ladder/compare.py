#!/usr/bin/env python3
"""Compare two result sets written by ``run.py --results``.

    python3 benchmarks/ladder/compare.py A.jsonl B.jsonl

One row per workload x end-to-end metric: each side's median and quartiles,
the change of B against A as a share of A's median, the bound from
``BENCHMARK.json`` and a verdict:

* ``unresolved`` — the inter-quartile spread of either side, as a share of
  its median, exceeds the bound, so the runs cannot tell;
* ``worse`` / ``better`` — B's median moved past the bound in that
  direction;
* ``unchanged`` — otherwise.

Counters that must repeat exactly for a seed (``EXACT``) are compared for
equality, seed by seed, on the seeds both sets share.  The exit status is 1
when any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]

#: Deterministic for a fixed seed: counts made by the program, sizes.
EXACT = (
    "index_bytes_per_source_byte",
    "query_sim_io_ms",
    "storage.page_reads_per_query",
    "storage.bytes_read_per_query",
    "storage.buffer_hit_rate",
    "query.postings_decoded_per_query",
    "query.dewey_comparisons_per_query",
    "query.rdil_probes_per_query",
    "query.postings_per_result",
    "query.hdil_switch_share",
    "ranking.elemrank_iterations",
    "index.dil_bytes_per_source_byte",
    "index.rdil_bytes_per_source_byte",
    "index.hdil_bytes_per_source_byte",
    "storage.btree_pages_per_probe",
    "storage.runfile_spilled_bytes",
    "durability.snapshot_bytes",
)


def load(path):
    """{workload: [record, ...]} from a results file."""
    by_workload = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def spread(values):
    """(first quartile, median, third quartile, IQR as a share of median)."""
    middle = median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, middle, q3, (q3 - q1) / middle if middle else 0.0


def verdict(a, b, better, bound):
    q1a, med_a, q3a, spread_a = spread(a)
    q1b, med_b, q3b, spread_b = spread(b)
    change = (med_b - med_a) / med_a if med_a else 0.0
    worsening = change if better == "lower" else -change
    if max(spread_a, spread_b) > bound:
        word = "unresolved"
    elif worsening > bound:
        word = "worse"
    elif worsening < -bound:
        word = "better"
    else:
        word = "unchanged"
    return (med_a, q1a, q3a, med_b, q1b, q3b, change, word)


def compare(path_a, path_b, out=None) -> int:
    out = out or sys.stdout
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    a_sets, b_sets = load(path_a), load(path_b)
    bad = 0
    header = (f"{'workload':<13}{'metric':<30}{'A median [q1, q3]':>34}"
              f"{'B median [q1, q3]':>34}{'change':>9}{'bound':>7}  verdict")
    print(header, file=out)
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs = [r for r in a_sets.get(workload, []) if not r["trace"]]
        b_runs = [r for r in b_sets.get(workload, []) if not r["trace"]]
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [r["end_to_end"][name] for r in a_runs],
                [r["end_to_end"][name] for r in b_runs],
                metric["better"], metric["bound"],
            )
            med_a, q1a, q3a, med_b, q1b, q3b, change, word = row
            bad += word == "worse"
            print(
                f"{workload:<13}{name:<30}"
                f"{med_a:>12.5g} [{q1a:>8.5g}, {q3a:>8.5g}]"
                f"{med_b:>12.5g} [{q1b:>8.5g}, {q3b:>8.5g}]"
                f"{change * 100:>8.2f}%{metric['bound'] * 100:>6.0f}%  {word}",
                file=out,
            )
        failed_a = sum(r["failed"] for r in a_runs)
        failed_b = sum(r["failed"] for r in b_runs)
        print(f"{workload:<13}{'failed ops':<30}{failed_a:>34}{failed_b:>34}"
              f"{'':>16}  {'worse' if failed_b > failed_a else 'unchanged'}",
              file=out)
        bad += failed_b > failed_a

        # Exact counters: every run of a side, traced or not, on a shared
        # seed must agree with every run of the other side.
        for name in EXACT:
            seeds = {}
            for side, sets in (("a", a_sets), ("b", b_sets)):
                for record in sets.get(workload, []):
                    value = {**record["layers"], **record["end_to_end"]}.get(name)
                    if value is not None:
                        seeds.setdefault(record["seed"], {}).setdefault(
                            side, set()).add(value)
            shared = [s for s in seeds.values() if len(s) == 2]
            if not shared:
                continue
            same = all(len(s["a"] | s["b"]) == 1 for s in shared)
            bad += not same
            print(f"{workload:<13}{name:<30}{'':>34}{'':>34}"
                  f"{len(shared):>6} seeds{'':>4}  "
                  f"{'identical' if same else 'differs'}", file=out)
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
