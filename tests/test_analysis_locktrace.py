"""Lock-order tracing in the one detector: seeded ABBA, hazards, clean runs."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.races import RaceDetector
from repro.errors import LockUsageError
from repro.service.concurrency import ReadWriteLock


def test_abba_rwlock_acquisition_is_flagged():
    detector = RaceDetector()
    lock_a = detector.wrap(ReadWriteLock(), "a")
    lock_b = detector.wrap(ReadWriteLock(), "b")
    with lock_a.read():
        with lock_b.read():
            pass
    with lock_b.read():
        with lock_a.read():
            pass
    report = detector.report()
    assert report.cycles, "deliberate ABBA ordering must produce a cycle"
    cycle_nodes = set(report.cycles[0])
    assert cycle_nodes == {"a", "b"}
    assert not report.clean
    assert "ABBA" in report.describe()


def test_abba_plain_locks_flagged():
    detector = RaceDetector()
    lock_a = detector.wrap(threading.Lock(), "a")
    lock_b = detector.wrap(threading.Lock(), "b")
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with lock_a:
            pass
    assert detector.report().cycles


def test_consistent_ordering_is_clean():
    detector = RaceDetector()
    lock_a = detector.wrap(ReadWriteLock(), "a")
    lock_b = detector.wrap(ReadWriteLock(), "b")
    for _ in range(3):
        with lock_a.read():
            with lock_b.write():
                pass
    report = detector.report()
    assert report.clean
    assert report.edges == {("a", "b"): 3}
    assert report.acquisitions == {"a": 3, "b": 3}


def test_three_lock_cycle_detected():
    detector = RaceDetector()
    locks = {name: detector.wrap(threading.Lock(), name) for name in "abc"}
    for first, second in [("a", "b"), ("b", "c"), ("c", "a")]:
        with locks[first]:
            with locks[second]:
                pass
    report = detector.report()
    assert report.cycles
    assert set(report.cycles[0]) == {"a", "b", "c"}


def test_nested_read_hazard_recorded_even_though_lock_raises():
    detector = RaceDetector()
    lock = detector.wrap(ReadWriteLock(), "svc")
    lock.acquire_read()
    try:
        with pytest.raises(LockUsageError):
            lock.acquire_read()
    finally:
        lock.release_read()
    report = detector.report()
    assert report.hazards
    assert "nested read" in report.hazards[0]
    # The failed inner acquisition must not corrupt the held stack: the
    # lock is fully released now, so a writer can proceed.
    with lock.write():
        pass


def test_read_write_upgrade_hazard_recorded():
    detector = RaceDetector()
    lock = detector.wrap(ReadWriteLock(), "svc")
    lock.acquire_read()
    try:
        with pytest.raises(LockUsageError):
            lock.acquire_write()
    finally:
        lock.release_read()
    report = detector.report()
    assert any("upgrade" in hazard for hazard in report.hazards)


def test_cross_thread_reads_are_not_reentrancy():
    detector = RaceDetector()
    lock = detector.wrap(ReadWriteLock(), "svc")
    entered = threading.Barrier(2, timeout=10)

    def reader():
        with lock.read():
            entered.wait()
            entered.wait()

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    report = detector.report()
    assert report.clean
    assert report.acquisitions == {"svc": 2}


def test_traced_rwlock_preserves_semantics():
    detector = RaceDetector()
    lock = detector.wrap(ReadWriteLock(), "svc")
    results = []

    def writer():
        with lock.write():
            results.append("write")

    with lock.read():
        thread = threading.Thread(target=writer)
        thread.start()
        # Writer must wait for the read section.
        thread.join(timeout=0.2)
        assert results == []
    thread.join(timeout=10)
    assert results == ["write"]
    assert lock.state()["active_readers"] == 0


def test_wrap_rejects_unknown_objects():
    with pytest.raises(TypeError):
        RaceDetector().wrap(object(), "x")


# -- TracedRWLock edge cases --------------------------------------------------------


def test_traced_rwlock_writer_preference_orders_late_readers():
    """Readers arriving while a writer waits queue behind the writer."""
    import time

    detector = RaceDetector()
    lock = detector.wrap(ReadWriteLock(), "svc")
    order = []
    first_reader_in = threading.Barrier(2, timeout=10)
    release_first = threading.Event()

    def first_reader():
        with lock.read():
            first_reader_in.wait()
            release_first.wait(timeout=10)

    def writer():
        with lock.write():
            order.append("write")

    def late_reader():
        with lock.read():
            order.append("read")

    holder = threading.Thread(target=first_reader)
    holder.start()
    first_reader_in.wait()

    contender = threading.Thread(target=writer)
    contender.start()
    deadline = time.monotonic() + 10
    while lock.state()["writers_waiting"] != 1:
        assert time.monotonic() < deadline, "writer never queued"
        time.sleep(0.005)

    straggler = threading.Thread(target=late_reader)
    straggler.start()
    time.sleep(0.05)
    # Writer preference: the late reader must not slip past the queued writer.
    assert order == []

    release_first.set()
    for thread in (holder, contender, straggler):
        thread.join(timeout=10)
    assert order == ["write", "read"]
    report = detector.report()
    assert report.clean
    assert report.acquisitions == {"svc": 3}


def test_traced_rwlock_release_from_wrong_thread_raises_through_proxy():
    detector = RaceDetector()
    lock = detector.wrap(ReadWriteLock(), "svc")
    held = threading.Barrier(2, timeout=10)
    done = threading.Event()

    def holder():
        with lock.read():
            held.wait()
            done.wait(timeout=10)

    thread = threading.Thread(target=holder)
    thread.start()
    held.wait()
    # This thread holds neither side; both releases must refuse.
    with pytest.raises(LockUsageError):
        lock.release_read()
    with pytest.raises(LockUsageError):
        lock.release_write()
    done.set()
    thread.join(timeout=10)
    assert lock.state()["active_readers"] == 0


def test_traced_rwlock_report_is_deterministic_across_identical_runs():
    """Same lock choreography twice -> byte-identical edges and cycles."""

    def run() -> tuple:
        detector = RaceDetector()
        lock_a = detector.wrap(ReadWriteLock(), "a")
        lock_b = detector.wrap(ReadWriteLock(), "b")
        lock_c = detector.wrap(ReadWriteLock(), "c")
        with lock_a.read():
            with lock_b.write():
                pass
        with lock_b.read():
            with lock_c.write():
                pass
        with lock_c.read():
            with lock_a.write():
                pass
        report = detector.report()
        return tuple(sorted(report.edges)), tuple(
            tuple(cycle) for cycle in report.cycles
        )

    first = run()
    second = run()
    assert first == second
    assert first[1], "three-lock ring must report a cycle"
