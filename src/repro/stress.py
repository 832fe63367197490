"""``repro stress``: seeded concurrency storms under the race detector.

The static ``guarded-by`` lint (:mod:`repro.analysis.rules.guards`)
proves what the source says; this harness checks what real interleavings
do.  Each scenario instruments live objects — service caches, metrics,
the circuit breaker, the cluster coordinator — with the per-field access
hooks from :mod:`repro.analysis.races`, wraps their guard locks in
traced proxies, and hammers them from several threads.  Any field access
whose lockset goes empty without a happens-before edge to the conflicting
access is a finding, reported with both access sites.

Determinism: every thread runs a *pre-planned* operation sequence drawn
from a :class:`random.Random` seeded by ``(seed, scenario, thread)``, so
the work done is a pure function of the seed.  The canonical report
(:meth:`StressReport.to_json`) deliberately excludes everything the OS
scheduler can perturb — access totals, failover counts, latencies — so
two clean runs at the same seed are **bit-for-bit identical**, which is
what the CI ``race-smoke`` job diffs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence

from .analysis.locktrace import LockTracer
from .analysis.races import RaceDetector, deinstrument, instrument

#: Queries the storms draw from — all hit the stress corpus below.
_QUERIES = (
    "xql language",
    "ranked retrieval",
    "element trees",
    "inverted indexes",
    "pattern matching",
    "keyword search",
)

#: Small corpus with known co-occurrences; shared by both storms so the
#: cluster scenario shards something the service scenario also serves.
_CORPUS = [
    (
        "<paper><title>XQL and Proximal Nodes</title><body>"
        "<section>the XQL query language extends pattern matching</section>"
        "<section>ranked retrieval over XML element trees</section>"
        "</body></paper>",
        "paper0.xml",
    ),
    (
        "<survey><title>A Survey of XML Query Languages</title>"
        "<chapter>the XQL language and its pattern operators</chapter>"
        "<chapter>ranked keyword search needs inverted indexes</chapter>"
        "</survey>",
        "survey.xml",
    ),
    (
        "<thesis><title>Indexing Semistructured Data</title>"
        "<chapter>inverted lists keyed by element identifiers</chapter>"
        "<chapter>query evaluation over ranked inverted lists</chapter>"
        "</thesis>",
        "thesis.xml",
    ),
    (
        "<notes><note>the query language workshop paper on XQL</note>"
        "<note>proximity ranking and element retrieval</note></notes>",
        "notes.xml",
    ),
    (
        "<tutorial><part>documents decompose into element trees</part>"
        "<part>keyword queries return ranked elements</part>"
        "<part>the XQL language integrates structure and keyword search"
        "</part></tutorial>",
        "tutorial.xml",
    ),
    (
        "<glossary><entry>a node of an XML document tree</entry>"
        "<entry>ordering query results by relevance</entry>"
        "<entry>a formal notation such as a query language</entry>"
        "</glossary>",
        "glossary.xml",
    ),
]


@dataclass
class ScenarioResult:
    """One storm's outcome, reduced to its deterministic facts."""

    name: str
    threads: int
    operations: int                 # planned, not observed
    watched_fields: List[str] = field(default_factory=list)
    races: List[Dict[str, object]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    lock_cycles: List[List[str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.races or self.errors or self.lock_cycles)

    def to_dict(self) -> Dict[str, object]:
        """Planned facts and findings only — nothing scheduler-dependent."""
        return {
            "name": self.name,
            "threads": self.threads,
            "operations": self.operations,
            "watched_fields": list(self.watched_fields),
            "races": list(self.races),
            "errors": list(self.errors),
            "lock_cycles": [list(c) for c in self.lock_cycles],
            "clean": self.clean,
        }


@dataclass
class StressReport:
    """Every scenario's result for one ``repro stress`` invocation."""

    seed: int
    scenarios: List[ScenarioResult] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(s.clean for s in self.scenarios)

    def to_dict(self) -> Dict[str, object]:
        """The canonical report payload (see :meth:`to_json`)."""
        return {
            "seed": self.seed,
            "clean": self.clean,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON: bit-for-bit stable across clean same-seed runs."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def describe(self) -> str:
        """Human-readable per-scenario summary with every finding."""
        lines = [f"stress seed={self.seed}: " + ("clean" if self.clean else "RACES")]
        for scenario in self.scenarios:
            status = "clean" if scenario.clean else "FAILED"
            lines.append(
                f"  {scenario.name}: {status} "
                f"({scenario.threads} threads, {scenario.operations} ops, "
                f"{len(scenario.watched_fields)} watched fields)"
            )
            for race in scenario.races:
                first, second = race["first"], race["second"]
                lines.append(
                    f"    race on {race['object']}.{race['attr']}: "
                    f"{first['op']} at {first['site']} vs "
                    f"{second['op']} at {second['site']}"
                )
            for error in scenario.errors:
                lines.append(f"    error: {error}")
            for cycle in scenario.lock_cycles:
                lines.append("    lock cycle: " + " -> ".join(cycle))
        return "\n".join(lines)


def _finish(
    name: str,
    threads: int,
    operations: int,
    watched: Sequence[str],
    detector: RaceDetector,
    tracer: LockTracer,
    errors: List[str],
) -> ScenarioResult:
    """Fold a finished storm's detector/tracer state into a result."""
    race_report = detector.report()
    lock_report = tracer.report()
    return ScenarioResult(
        name=name,
        threads=threads,
        operations=operations,
        watched_fields=sorted(watched),
        races=[r.to_dict() for r in race_report.races],
        errors=sorted(errors),
        lock_cycles=[list(c) for c in lock_report.cycles],
    )


def _run_threads(detector: RaceDetector, bodies, errors: List[str]) -> None:
    """Start one detector-wired thread per body; join them all."""

    def guarded(body):
        def runner() -> None:
            try:
                body()
            except Exception as exc:  # surfaced in the report, not lost
                errors.append(f"{type(exc).__name__}: {exc}")

        return runner

    threads = [detector.thread(target=guarded(body)) for body in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        detector.join(thread)


# -- scenario: component storm ------------------------------------------------------


def _storm_components(seed: int, ops: int, threads: int) -> ScenarioResult:
    """Hammer the lock-protected leaf components directly.

    The cache, breaker, metrics, I/O counters and a two-page buffer pool
    with its decoded frames are the classes whose ``guarded by:``
    annotations the static lint enforces; this is the highest-access-density
    check that the annotations are also *true*.
    """
    from .config import StorageParams
    from .service.breaker import CircuitBreaker
    from .service.cache import GenerationalLRU
    from .service.metrics import ServiceMetrics
    from .storage.disk import SimulatedDisk
    from .storage.iostats import IOStats

    detector = RaceDetector()
    tracer = LockTracer(race_detector=detector)
    errors: List[str] = []

    cache = GenerationalLRU(16, name="stress")
    breaker = CircuitBreaker(threshold=3, cooldown=8)
    metrics = ServiceMetrics(window=64)
    iostats = IOStats()
    disk = SimulatedDisk(StorageParams(page_size=64, buffer_pool_pages=2))
    for page in range(4):
        disk.allocate(bytes([page]) * 8)

    watched: List[str] = []
    for obj, label in (
        (cache, "cache"),
        (breaker, "breaker"),
        (metrics, "metrics"),
        (iostats, "iostats"),
        (disk, "disk"),
    ):
        watched.extend(f"{label}.{f}" for f in instrument(obj, detector, label, tracer))

    def body(index: int):
        rng = Random(f"{seed}:components:{index}")

        def run() -> None:
            for step in range(ops):
                choice = rng.random()
                key = f"k{rng.randrange(8)}"
                kind = ("dil", "rdil", "hdil")[rng.randrange(3)]
                if choice < 0.35:
                    cache.get(key)
                    cache.put(key, step)
                elif choice < 0.5:
                    cache.bump()
                elif choice < 0.7:
                    if breaker.allow(kind):
                        if rng.random() < 0.4:
                            breaker.record_failure(kind)
                        else:
                            breaker.record_success(kind)
                elif choice < 0.9:
                    metrics.record_search(
                        latency_ms=rng.random(),
                        cached=rng.random() < 0.5,
                        degraded=False,
                    )
                    iostats.record_read(sequential=rng.random() < 0.5)
                    disk.read_decoded(rng.randrange(4), len)
                else:
                    cache.stats()
                    metrics.snapshot()
                    iostats.as_dict()
                    disk.drop_cache()

        return run

    _run_threads(detector, [body(i) for i in range(threads)], errors)
    # Post-storm reads from the main thread go through the same locked
    # accessors the storm used — they are part of the check, not exempt.
    cache.stats()
    breaker.state()
    metrics.snapshot()
    iostats.snapshot()
    disk.pooled_frames()
    result = _finish(
        "components", threads, ops * threads, watched, detector, tracer, errors
    )
    for obj in (cache, breaker, metrics, iostats, disk):
        deinstrument(obj)
    return result


# -- scenario: service storm --------------------------------------------------------


def _storm_service(seed: int, ops: int, threads: int) -> ScenarioResult:
    """Concurrent searches and adds against a live :class:`XRankService`."""
    from .engine import XRankEngine
    from .service.core import XRankService

    from .obs import Tracer, validate_trace

    detector = RaceDetector()
    tracer = LockTracer(race_detector=detector)
    errors: List[str] = []

    engine = XRankEngine()
    for source, uri in _CORPUS:
        engine.add_xml(source, uri=uri)
    engine.build(kinds=("dil", "hdil"))
    service = XRankService(
        engine, result_cache_size=32, list_cache_size=32, max_concurrent=8,
        # Trace every stormed query: the span machinery runs under the
        # same detector scrutiny, and every captured tree is held to the
        # structural invariants below.
        tracer=Tracer(sample="always", buffer_size=512),
    )
    service.lock = tracer.wrap(service.lock, "service.lock")

    watched: List[str] = []
    for obj, label in (
        (service.result_cache, "service.results"),
        (service.list_cache, "service.lists"),
        (service.metrics, "service.metrics"),
        (service.breaker, "service.breaker"),
    ):
        watched.extend(f"{label}.{f}" for f in instrument(obj, detector, label, tracer))

    def reader(index: int):
        rng = Random(f"{seed}:service-read:{index}")

        def run() -> None:
            for _ in range(ops):
                service.search(_QUERIES[rng.randrange(len(_QUERIES))], m=4)
                if rng.random() < 0.3:
                    service.stats()

        return run

    def writer():
        rng = Random(f"{seed}:service-write")

        def run() -> None:
            for step in range(max(1, ops // 3)):
                service.add_xml(
                    f"<doc><title>late {step}</title><body>the xql language "
                    f"arrives ranked {rng.randrange(100)}</body></doc>",
                    uri=f"late{step}.xml",
                )

        return run

    bodies = [reader(i) for i in range(threads - 1)] + [writer()]
    _run_threads(detector, bodies, errors)
    service.stats()
    service.healthz()
    for root in service.tracer.buffer.traces():
        for problem in validate_trace(root):
            errors.append(f"trace invariant: {problem}")
    result = _finish(
        "service", threads, ops * (threads - 1) + max(1, ops // 3),
        watched, detector, tracer, errors,
    )
    for obj in (
        service.result_cache,
        service.list_cache,
        service.metrics,
        service.breaker,
    ):
        deinstrument(obj)
    return result


# -- scenario: cluster storm --------------------------------------------------------


def _storm_cluster(seed: int, ops: int, threads: int) -> ScenarioResult:
    """Scatter-gather queries through a live sharded cluster with one
    replica down, so the coordinator's failover path runs instrumented."""
    from .cluster.local import LocalCluster

    detector = RaceDetector()
    tracer = LockTracer(race_detector=detector)
    errors: List[str] = []

    cluster = LocalCluster.from_sources(
        [(source, uri) for source, uri in _CORPUS],
        num_shards=2,
        replicas=2,
        kinds=("dil", "hdil"),
    )
    cluster.start()
    try:
        coordinator = cluster.coordinator
        watched = [
            f"coordinator.{f}"
            for f in instrument(coordinator, detector, "coordinator", tracer)
        ]
        watched.extend(
            f"coordinator.breaker.{f}"
            for f in instrument(
                coordinator.breaker, detector, "coordinator.breaker", tracer
            )
        )
        # One replica dies before the storm: every query against shard 0
        # exercises breaker trips + failover under full instrumentation.
        cluster.kill(0, 0)

        def body(index: int):
            rng = Random(f"{seed}:cluster:{index}")

            def run() -> None:
                for _ in range(ops):
                    cluster.search(
                        _QUERIES[rng.randrange(len(_QUERIES))], m=4
                    )
                    if rng.random() < 0.25:
                        coordinator.stats()
                        coordinator.healthz()

            return run

        _run_threads(detector, [body(i) for i in range(threads)], errors)
        coordinator.stats()
        result = _finish(
            "cluster", threads, ops * threads, watched, detector, tracer, errors
        )
        deinstrument(coordinator)
        deinstrument(coordinator.breaker)
        return result
    finally:
        cluster.stop()


# -- driver -------------------------------------------------------------------------

#: Scenario name -> (runner, default ops per thread, threads).
_SCENARIOS = {
    "components": (_storm_components, 120, 4),
    "service": (_storm_service, 6, 4),
    "cluster": (_storm_cluster, 4, 3),
}


def run_stress(
    seed: int = 0,
    scenarios: Optional[Sequence[str]] = None,
    ops_scale: float = 1.0,
) -> StressReport:
    """Run the storms; a non-``clean`` report means a detected race.

    Args:
        seed: drives every thread's operation plan.
        scenarios: subset of ``components`` / ``service`` / ``cluster``
            (default: all three, in that order).
        ops_scale: multiplies each scenario's per-thread operation count
            (the strict-gate smoke uses < 1 to stay fast).
    """
    names = list(scenarios) if scenarios else list(_SCENARIOS)
    unknown = [n for n in names if n not in _SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown stress scenario(s) {unknown}; "
            f"pick from {sorted(_SCENARIOS)}"
        )
    report = StressReport(seed=seed)
    for name in names:
        runner, ops, threads = _SCENARIOS[name]
        scaled = max(1, int(ops * ops_scale))
        report.scenarios.append(runner(seed, scaled, threads))
    return report
