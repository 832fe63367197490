"""The dynamic lockset/happens-before race detector, both prongs.

The centerpiece is the seeded **mutation check**: deleting one ``with
self._lock:`` block from a copy of ``service/cache.py`` must be caught by
*both* the static ``guarded-by`` lint and the dynamic detector — the
acceptance bar that proves neither prong is decorative.
"""

from __future__ import annotations

import ast
import threading
from pathlib import Path

from repro.analysis.linter import Linter
from repro.analysis.races import RaceDetector, deinstrument, instrument
from repro.analysis.rules import GuardedByRule
from repro.service.cache import GenerationalLRU
from repro.service.concurrency import ReadWriteLock

CACHE_PATH = (
    Path(__file__).resolve().parent.parent / "src" / "repro" / "service" / "cache.py"
)


def _storm(detector: RaceDetector, bodies) -> None:
    threads = [detector.thread(target=body) for body in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        detector.join(thread)


# -- core detector behaviour --------------------------------------------------------


def test_guarded_accesses_are_clean():
    detector = RaceDetector()
    cache = GenerationalLRU(8, name="clean")
    watched = instrument(cache, detector, "cache")
    assert "hits" in watched and "_entries" in watched

    def body() -> None:
        for i in range(40):
            cache.put(f"k{i % 4}", i)
            cache.get(f"k{i % 4}")

    _storm(detector, [body, body, body])
    report = detector.report()
    deinstrument(cache)
    assert report.clean, report.describe()
    assert report.accesses > 0
    assert report.threads_seen >= 3


def test_unguarded_counter_races():
    class Bare:
        def __init__(self):
            self.n = 0

    detector = RaceDetector()
    victim = Bare()
    instrument(victim, detector, "bare", fields={"n": None})

    def body() -> None:
        for _ in range(25):
            victim.n += 1

    _storm(detector, [body, body])
    report = detector.report()
    deinstrument(victim)
    assert not report.clean
    finding = report.races[0]
    assert finding.attr == "n"
    assert finding.first_locks == [] and finding.second_locks == []
    assert finding.stack  # acquisition-style stack attached
    assert "data race on bare.n" in finding.describe()


def test_fork_join_edges_suppress_sequential_handoff():
    class Bare:
        def __init__(self):
            self.n = 0

    detector = RaceDetector()
    victim = Bare()
    instrument(victim, detector, "handoff", fields={"n": None})

    victim.n = 1  # main-thread write before the fork
    worker = detector.thread(target=lambda: setattr(victim, "n", 2))
    worker.start()
    detector.join(worker)
    assert victim.n == 2  # main-thread read after the join
    report = detector.report()
    deinstrument(victim)
    assert report.clean, report.describe()


def test_read_mode_common_lock_does_not_protect_writes():
    """Two writers inside overlapping *read* sections must be flagged."""

    class Shared:
        def __init__(self):
            self._rw = ReadWriteLock()
            self.x = 0

    detector = RaceDetector()
    shared = Shared()
    instrument(shared, detector, "shared", fields={"x": "_rw"})
    barrier = threading.Barrier(2)

    def body() -> None:
        with shared._rw.read():
            barrier.wait()  # both threads are inside read sections now
            shared.x += 1

    _storm(detector, [body, body])
    report = detector.report()
    deinstrument(shared)
    assert not report.clean
    assert report.races[0].attr == "x"
    # Both sides held the lock — in read mode, which protects nothing.
    assert any("_rw" in name for name in report.races[0].first_locks)


def test_exclusive_lock_hand_off_orders_accesses():
    """Serialized exclusive sections are both protected and ordered."""

    class Shared:
        def __init__(self):
            self._lock = threading.Lock()
            self.x = 0

    detector = RaceDetector()
    shared = Shared()
    instrument(shared, detector, "ordered", fields={"x": "_lock"})

    def body() -> None:
        for _ in range(20):
            with shared._lock:
                shared.x += 1

    _storm(detector, [body, body])
    report = detector.report()
    deinstrument(shared)
    assert report.clean, report.describe()


def test_findings_deduplicate_per_field_and_serialize():
    class Bare:
        def __init__(self):
            self.n = 0

    detector = RaceDetector()
    victim = Bare()
    instrument(victim, detector, "dedupe", fields={"n": None})

    def body() -> None:
        for _ in range(50):
            victim.n += 1

    _storm(detector, [body, body, body])
    report = detector.report()
    deinstrument(victim)
    assert len(report.races) == 1  # one finding per (object, field)
    payload = report.races[0].to_dict()
    assert payload["object"] == "dedupe" and payload["attr"] == "n"
    assert set(payload["first"]) == {"op", "site", "locks"}


# -- the seeded mutation check ------------------------------------------------------


def _mutated_cache_source() -> str:
    """``cache.py`` with the first ``with self._lock:`` in ``get`` deleted."""
    source = CACHE_PATH.read_text(encoding="utf-8")
    tree = ast.parse(source)
    cls = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "GenerationalLRU"
    )
    get = next(
        node
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "get"
    )
    with_node = next(
        node for node in ast.walk(get) if isinstance(node, ast.With)
    )
    lines = source.splitlines()
    mutated = []
    for number, line in enumerate(lines, start=1):
        if number == with_node.lineno:
            continue  # the `with self._lock:` line itself
        if with_node.lineno < number <= with_node.end_lineno:
            mutated.append(line[4:] if line.startswith("    ") else line)
        else:
            mutated.append(line)
    return "\n".join(mutated) + "\n"


def test_mutation_is_caught_by_the_static_prong():
    mutated = _mutated_cache_source()
    violations = Linter([GuardedByRule()]).lint_source(
        mutated, "src/repro/service/cache.py"
    )
    assert violations, "deleted lock block produced no guarded-by finding"
    assert any(
        v.message.endswith("(guarded by: self._lock)") for v in violations
    )
    flagged = {v.message for v in violations}
    assert any("self.misses" in m for m in flagged)

    # Control: the unmutated file stays clean.
    pristine = CACHE_PATH.read_text(encoding="utf-8")
    assert (
        Linter([GuardedByRule()]).lint_source(
            pristine, "src/repro/service/cache.py"
        )
        == []
    )


def test_mutation_is_caught_by_the_dynamic_prong():
    namespace = {
        "__name__": "repro.service._mutated_cache",
        "__package__": "repro.service",
    }
    exec(compile(_mutated_cache_source(), "mutated_cache.py", "exec"), namespace)
    mutated_cls = namespace["GenerationalLRU"]

    detector = RaceDetector()
    cache = mutated_cls(8, name="mutant")
    watched = instrument(
        cache,
        detector,
        "mutant",
        fields={  # exec'd classes have no inspectable source
            "generation": "_lock",
            "hits": "_lock",
            "misses": "_lock",
            "invalidations": "_lock",
            "_entries": "_lock",
        },
    )
    assert "misses" in watched

    def body() -> None:
        for _ in range(30):
            cache.get("absent")

    _storm(detector, [body, body])
    report = detector.report()
    deinstrument(cache)
    assert not report.clean, "deleted lock block produced no dynamic race"
    racing = {finding.attr for finding in report.races}
    assert racing & {"misses", "_entries", "hits", "generation", "invalidations"}
    # Every finding shows at least one side holding no lock at all.
    for finding in report.races:
        assert finding.first_locks == [] or finding.second_locks == []
