"""The chaos harness: seeded fault storms over build → index → serve.

``run_chaos`` builds the same corpus twice — once fault-free (the
**oracle**) and once through the full hardened path: parallel build with
injected worker crashes and run-file corruption, checksummed storage
with injected read errors / torn reads / bit rot / stalls, and the
serving layer's retry + circuit-breaker machinery.  Every query is then
classified against the oracle by the shared verdict
(:class:`~repro.harness.Verdicts`):

* ``match`` — exact ``(dewey, rank)`` list identical to the fault-free
  engine's (the faulted build is byte-identical by contract, so no
  rounding is allowed);
* ``degraded`` — flagged degraded (deadline, fallback kind, fault note);
* ``typed_error`` — a :class:`~repro.errors.ReproError` subclass escaped;
* ``mismatch`` — **silent wrong answer** (undegraded, unflagged, wrong);
* ``untyped_error`` — a non-repro exception escaped.

The harness's invariant — the acceptance bar of the fault subsystem —
is that the last two buckets stay at zero under any seed and rate.

Determinism: everything that reaches the report is a pure function of
``(seed, fault_rate, scale)``.  Queries run sequentially, caches are
disabled, fault decisions come from per-site seeded streams, the
breaker's cooldown is query-counted, and the report carries **no wall
clock data** — two invocations with the same arguments must serialize
bit-for-bit identically (the CI ``chaos-smoke`` job diffs them).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .config import StorageParams, XRankConfig
from .datasets import generate_dblp, random_queries
from .engine import XRankEngine
from .faults import (
    READ_SITES,
    SITE_READ_SLOW,
    SITE_RUNFILE_CORRUPT,
    SITE_WORKER_CRASH,
    FaultPlan,
    FaultSpec,
)
from .harness import CanonicalReport, Verdicts, fingerprint
from .service.core import XRankService


@dataclass
class ChaosReport(CanonicalReport):
    """Deterministic result of one chaos run (no wall-clock data)."""

    seed: int = 0
    fault_rate: float = 0.0
    kind: str = "hdil"
    documents: int = 0
    queries: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: Queries whose outcome broke the invariant, with diagnostics.
    violations: List[Dict[str, object]] = field(default_factory=list)
    build_retries: int = 0
    build_faults: Dict[str, Dict[str, int]] = field(default_factory=dict)
    query_faults: Dict[str, Dict[str, int]] = field(default_factory=dict)
    io: Dict[str, object] = field(default_factory=dict)
    breaker_trips: int = 0
    ok: bool = True


def run_chaos(
    seed: int = 1337,
    fault_rate: float = 0.05,
    num_queries: int = 40,
    num_papers: int = 60,
    kind: str = "hdil",
    workers: int = 2,
    spill_dir: Optional[str] = None,
) -> ChaosReport:
    """One seeded fault storm; see the module docstring for semantics.

    Args:
        seed: drives corpus choice of queries and every fault decision.
        fault_rate: per-read probability for each storage fault site.
        num_queries / num_papers: storm scale (``--tiny`` in the CLI).
        kind: the index kind queries request (its breaker fallback is
            also built so degraded answering has somewhere to go).
        workers: parallel-build worker processes for the faulted build.
        spill_dir: where the faulted build spills run files (a temp dir
            by default) — spilling must be on for run-corruption faults
            to have a target.
    """
    report = ChaosReport(seed=seed, fault_rate=fault_rate, kind=kind)
    corpus = generate_dblp(num_papers=num_papers, seed=(seed % 997) + 3)
    kinds = tuple(dict.fromkeys([kind, "dil"]))

    # Oracle: sequential build, no checksums, no faults.
    oracle = XRankEngine()
    oracle.build(kinds=kinds, corpus=list(corpus.sources))
    report.documents = oracle.graph.num_documents

    # Faulted twin: parallel spilling build under crash/corruption faults,
    # checksummed storage under a read-fault storm.
    build_plan = FaultPlan(
        seed,
        [
            FaultSpec(SITE_WORKER_CRASH, probability=1.0, times=1),
            FaultSpec(SITE_RUNFILE_CORRUPT, probability=1.0, times=1),
        ],
    )
    config = XRankConfig(storage=StorageParams(checksums=True))
    faulted = XRankEngine(config=config)
    with tempfile.TemporaryDirectory(dir=spill_dir) as spill:
        faulted.build(
            kinds=kinds,
            corpus=list(corpus.sources),
            workers=workers,
            spill_dir=spill,
            fault_plan=build_plan,
        )
    if faulted.last_build_stats is not None:
        report.build_retries = faulted.last_build_stats.retries
    report.build_faults = build_plan.counters()

    query_plan = FaultPlan.uniform(
        seed, fault_rate, sites=READ_SITES + (SITE_READ_SLOW,)
    )
    faulted.set_fault_plan(query_plan)
    service = XRankService(
        faulted,
        kinds=kinds,
        default_kind=kind,
        result_cache_size=0,
        list_cache_size=0,
        max_concurrent=1,
        max_queue=1,
    )

    workload = random_queries(
        oracle.graph,
        num_keywords=2,
        num_queries=num_queries,
        seed=seed ^ 0x5EED,
    )
    verdicts = Verdicts()
    for keywords in workload:
        query = " ".join(keywords)

        def ask():
            response = service.search(query, m=10, kind=kind)
            return response.degraded, fingerprint(response.hits)

        verdicts.judge(
            ask, fingerprint(oracle.search(query, m=10, kind=kind)), query=query
        )
    report.queries = len(workload)
    report.outcomes = verdicts.outcomes
    report.violations = verdicts.violations
    report.query_faults = query_plan.counters()
    report.io = service.io_totals().as_dict()
    report.breaker_trips = service.breaker.trips
    report.ok = verdicts.ok and report.queries > 0
    return report
