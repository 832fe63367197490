"""Opt-in dynamic lock monitoring: data races, lock-order cycles, hazards.

The static ``guarded-by`` lint proves what the *source* says; this module
checks what a *run* actually did.  One :class:`RaceDetector` watches every
lock event and every guarded-field access of a run:

* **Lock order** (lockdep-lite): :meth:`RaceDetector.wrap` puts a lock
  behind a :class:`TracedLock` / :class:`TracedRWLock` proxy.  Every
  acquisition while another lock is held adds an edge ``held ->
  acquired``; a cycle in that graph means two code paths take the same
  locks in opposite orders — a potential ABBA deadlock, reported even
  when the interleaving never deadlocked.  Edges are thread-agnostic, so
  one thread running A→B and later B→A is enough.
* **Hazards** of :class:`~repro.service.concurrency.ReadWriteLock`'s
  writer preference: a thread re-acquiring a read lock it holds
  (deadlocks as soon as a writer queues between the two) and a
  read→write upgrade (always deadlocks).  Order edges and hazards are
  recorded *before* delegating to the real lock, so they are observed
  even when the lock refuses the acquisition by raising.
* **Lockset** (Eraser): objects whose classes carry ``# guarded by:``
  annotations (:mod:`repro.analysis.guards`) are :func:`instrument`-ed
  with a per-field access hook, and each access records the locks the
  thread holds, with their modes.  Two accesses to the same field from
  different threads, at least one a write, are *candidate* races unless
  some common lock protects the pair (a lock held in read mode by both
  sides protects nothing — readers coexist).
* **Happens-before** (vector clocks): candidate pairs are dismissed when
  a synchronization chain orders them.  Lock releases publish the
  releasing thread's clock into the lock; acquisitions join it back; the
  :meth:`RaceDetector.thread` / :meth:`RaceDetector.join` helpers add
  thread-start and thread-join edges.  Only a pair that is *both*
  unprotected and unordered is reported.

Each logical thread's held locks are tracked once, as one stack that
feeds both the order graph and the locksets, and one :class:`RaceReport`
carries races, cycles, hazards and acquisition counts.  False positives
are structurally avoided rather than filtered: a field always accessed
under its guard can never produce an unprotected pair, and a field
handed off through fork/join or a traced lock is ordered.

The hooks are strictly opt-in: production objects are untouched until
:func:`instrument` patches them or :meth:`RaceDetector.wrap` proxies a
lock, so the serving hot path pays nothing.  :func:`selftest` plants one
defect of each kind; ``repro check --strict`` fails if any goes unseen.
"""

from __future__ import annotations

import itertools
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .guards import class_guards

#: Frames from this file are skipped when attributing an access site.
_INTERNAL_MARKER = "analysis/races"


def _join(into: Dict[int, int], other: Dict[int, int]) -> None:
    """Pointwise max of two vector clocks, in place."""
    for ident, tick in other.items():
        if into.get(ident, 0) < tick:
            into[ident] = tick


def _call_site() -> str:
    """``file:line`` of the nearest frame outside the detector machinery."""
    frame = sys._getframe(2)
    while frame is not None:
        filename = frame.f_code.co_filename.replace("\\", "/")
        if _INTERNAL_MARKER not in filename:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


@dataclass
class _Access:
    """One recorded field access (the detector's unit of comparison)."""

    thread: int
    op: str                      # "read" | "write"
    locks: Dict[str, str]        # lock name -> mode held at access time
    epoch: int                   # accessor's own clock entry at the access
    site: str                    # file:line of the access


@dataclass
class RaceFinding:
    """One data race: an unprotected, unordered cross-thread pair."""

    obj: str                     # instrumentation label of the object
    attr: str                    # racing field
    first_op: str
    first_site: str
    first_locks: List[str]
    second_op: str
    second_site: str
    second_locks: List[str]
    #: Full stack of the access that completed the racing pair.
    stack: List[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"data race on {self.obj}.{self.attr}: "
            f"{self.first_op} at {self.first_site} "
            f"(locks {self.first_locks or '{}'}) is concurrent with "
            f"{self.second_op} at {self.second_site} "
            f"(locks {self.second_locks or '{}'})"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "object": self.obj,
            "attr": self.attr,
            "first": {
                "op": self.first_op,
                "site": self.first_site,
                "locks": list(self.first_locks),
            },
            "second": {
                "op": self.second_op,
                "site": self.second_site,
                "locks": list(self.second_locks),
            },
            "stack": list(self.stack),
        }


@dataclass
class RaceReport:
    """What a :class:`RaceDetector` observed over one run."""

    races: List[RaceFinding] = field(default_factory=list)
    accesses: int = 0
    #: ``label.field`` keys that were watched and actually touched.
    fields_observed: List[str] = field(default_factory=list)
    threads_seen: int = 0
    #: (held_lock, acquired_lock) -> times that ordering was seen.
    edges: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Lock-name cycles, each a closed path like ``["a", "b", "a"]``.
    cycles: List[List[str]] = field(default_factory=list)
    #: Descriptions of same-thread read re-entry / upgrade hazards.
    hazards: List[str] = field(default_factory=list)
    #: Lock name -> acquisitions attempted (read + write + plain).
    acquisitions: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not (self.races or self.cycles or self.hazards)

    def describe(self) -> str:
        lines = [
            f"{self.accesses} accesses over {len(self.fields_observed)} "
            f"guarded fields from {self.threads_seen} threads; "
            f"{sum(self.acquisitions.values())} lock acquisitions, "
            f"{len(self.edges)} order edges"
        ]
        lines.extend(race.describe() for race in self.races)
        lines.extend(
            "lock-order cycle (potential ABBA deadlock): " + " -> ".join(cycle)
            for cycle in self.cycles
        )
        lines.extend("re-entrancy hazard: " + hazard for hazard in self.hazards)
        return "\n".join(lines)


class _ThreadState:
    __slots__ = ("vc", "held")

    def __init__(self, ident: int):
        self.vc: Dict[int, int] = {ident: 1}
        #: (lock name, mode) in acquisition order, pushed before blocking.
        self.held: List[Tuple[str, str]] = []

    def drop(self, name: str, mode: str) -> None:
        """Forget the innermost hold of ``name`` in ``mode``."""
        for index in range(len(self.held) - 1, -1, -1):
            if self.held[index] == (name, mode):
                del self.held[index]
                return


class RaceDetector:
    """Wraps locks and watches guarded fields; reports races, cycles, hazards.

    One detector spans a whole run: every instrumented object and every
    lock proxy from :meth:`wrap` report into it.  Thread-start/join edges
    come from the :meth:`thread` / :meth:`join` helpers (or the
    lower-level :meth:`fork` / :meth:`register` / :meth:`joined`).
    """

    def __init__(self, max_races: int = 64):
        self._mutex = threading.Lock()
        # OS thread idents are reused once a thread exits, which would
        # alias a dead thread's history onto its successor and hide real
        # races ("same thread" pairs are never compared).  Each thread
        # instead gets a unique logical id on first contact, held in
        # thread-local storage — which dies with the thread, so a reused
        # OS ident starts over with a fresh id.
        self._local = threading.local()
        self._id_counter = itertools.count(1)
        self._threads: Dict[int, _ThreadState] = {}
        self._lock_clocks: Dict[str, Dict[int, int]] = {}
        #: (label, attr) -> (last_write, {thread: last_read})
        self._fields: Dict[
            Tuple[str, str], Tuple[Optional[_Access], Dict[int, _Access]]
        ] = {}
        self._races: List[RaceFinding] = []
        self._raced_keys: set = set()
        self._accesses = 0
        self._edges: Dict[Tuple[str, str], int] = {}
        self._hazards: List[str] = []
        self._acquisitions: Dict[str, int] = {}
        self.max_races = max_races

    def wrap(self, lock: object, name: str):
        """Put a lock behind a proxy that reports every event here.

        ``ReadWriteLock``-shaped objects (``acquire_read`` present) get a
        :class:`TracedRWLock`; anything with ``acquire``/``release``
        (``threading.Lock``, ``RLock``, ``GuardedLock``) gets a
        :class:`TracedLock`.
        """
        if hasattr(lock, "acquire_read"):
            return TracedRWLock(self, lock, name)
        if hasattr(lock, "acquire"):
            return TracedLock(self, lock, name)
        raise TypeError(f"cannot trace object without acquire methods: {lock!r}")

    # -- thread bookkeeping ------------------------------------------------------

    def _ident(self) -> int:
        """The calling thread's detector-unique logical id."""
        lid = getattr(self._local, "lid", None)
        if lid is None:
            lid = next(self._id_counter)
            self._local.lid = lid
        return lid

    def _state(self, ident: int) -> _ThreadState:
        state = self._threads.get(ident)
        if state is None:
            state = _ThreadState(ident)
            self._threads[ident] = state
        return state

    def fork(self) -> Dict[int, int]:
        """Snapshot the calling thread's clock for a child (fork edge)."""
        ident = self._ident()
        with self._mutex:
            state = self._state(ident)
            token = dict(state.vc)
            state.vc[ident] = state.vc.get(ident, 0) + 1
            return token

    def register(self, token: Dict[int, int]) -> None:
        """Adopt a fork token inside the child thread."""
        ident = self._ident()
        with self._mutex:
            _join(self._state(ident).vc, token)

    def joined(self, child_ident: int) -> None:
        """Record a join edge: the child's history precedes the caller."""
        ident = self._ident()
        with self._mutex:
            child = self._threads.get(child_ident)
            if child is not None:
                _join(self._state(ident).vc, child.vc)

    def thread(self, target, *args, **kwargs) -> threading.Thread:
        """A ``threading.Thread`` wired with fork/join edges.

        Join it with :meth:`join` (not ``Thread.join``) so the join edge
        is recorded too.
        """
        token = self.fork()
        cell: Dict[str, int] = {}

        def runner() -> None:
            cell["ident"] = self._ident()
            self.register(token)
            target(*args, **kwargs)

        thread = threading.Thread(target=runner, daemon=True)
        thread.race_ident_cell = cell  # type: ignore[attr-defined]
        return thread

    def join(self, thread: threading.Thread, timeout: float = 120.0) -> bool:
        """Join ``thread`` and record the join edge.

        Returns False when the thread is still running after ``timeout``
        seconds — hung or deadlocked — and no edge is recorded.
        """
        thread.join(timeout=timeout)
        if thread.is_alive():
            return False
        cell = getattr(thread, "race_ident_cell", None)
        if cell and "ident" in cell:
            self.joined(cell["ident"])
        return True

    # -- lock events (fed by the TracedLock / TracedRWLock proxies) ---------------

    def before_acquire(self, name: str, mode: str) -> None:
        """Record intent to acquire; called *before* blocking on the lock.

        Order edges and re-entrancy hazards are recorded here, so they are
        seen even when the real lock then refuses by raising.
        """
        ident = self._ident()
        with self._mutex:
            state = self._state(ident)
            self._acquisitions[name] = self._acquisitions.get(name, 0) + 1
            for held_name, held_mode in state.held:
                if held_name != name:
                    edge = (held_name, name)
                    self._edges[edge] = self._edges.get(edge, 0) + 1
                    continue
                hazard = None
                if held_mode == "read" and mode == "read":
                    hazard = (
                        f"same-thread nested read of {name!r}: deadlocks "
                        "whenever a writer queues between the two acquisitions"
                    )
                elif held_mode == "read" and mode == "write":
                    hazard = (
                        f"read->write upgrade on {name!r}: the writer waits "
                        "for this thread's own read lock to drain"
                    )
                if hazard is not None and hazard not in self._hazards:
                    self._hazards.append(hazard)
            state.held.append((name, mode))

    def after_acquire(self, name: str, mode: str, acquired: bool) -> None:
        """The real lock returned: join its clock, or forget the intent."""
        ident = self._ident()
        with self._mutex:
            state = self._state(ident)
            if not acquired:
                state.drop(name, mode)
                return
            clock = self._lock_clocks.get(name)
            if clock:
                _join(state.vc, clock)

    def before_release(self, name: str, mode: str) -> None:
        """The calling thread is about to release ``name`` (still held)."""
        ident = self._ident()
        with self._mutex:
            state = self._state(ident)
            clock = self._lock_clocks.setdefault(name, {})
            _join(clock, state.vc)
            state.vc[ident] = state.vc.get(ident, 0) + 1
            state.drop(name, mode)

    # -- the access check ---------------------------------------------------------

    def record(self, label: str, attr: str, op: str) -> None:
        """Check one field access against the field's history."""
        ident = self._ident()
        site = _call_site()
        with self._mutex:
            self._accesses += 1
            state = self._state(ident)
            access = _Access(
                thread=ident,
                op=op,
                locks=dict(state.held),
                epoch=state.vc.get(ident, 0),
                site=site,
            )
            key = (label, attr)
            last_write, reads = self._fields.get(key, (None, {}))
            if op == "write":
                candidates = [last_write, *reads.values()]
            else:
                candidates = [last_write]
            for prev in candidates:
                if prev is None or prev.thread == ident:
                    continue
                if self._ordered(prev, state):
                    continue
                if _protected(prev, access):
                    continue
                self._report(key, prev, access)
                break
            if op == "write":
                self._fields[key] = (access, {})
            else:
                reads[ident] = access
                self._fields[key] = (last_write, reads)

    def _ordered(self, prev: _Access, current: _ThreadState) -> bool:
        """Happens-before: has the current thread seen prev's epoch?"""
        return current.vc.get(prev.thread, 0) >= prev.epoch

    def _report(
        self, key: Tuple[str, str], prev: _Access, access: _Access
    ) -> None:
        if key in self._raced_keys or len(self._races) >= self.max_races:
            return
        self._raced_keys.add(key)
        self._races.append(
            RaceFinding(
                obj=key[0],
                attr=key[1],
                first_op=prev.op,
                first_site=prev.site,
                first_locks=sorted(prev.locks),
                second_op=access.op,
                second_site=access.site,
                second_locks=sorted(access.locks),
                stack=[
                    line.rstrip("\n")
                    for line in traceback.format_stack()
                    if _INTERNAL_MARKER not in line.replace("\\", "/")
                ][-8:],
            )
        )

    # -- reporting ----------------------------------------------------------------

    def report(self) -> RaceReport:
        with self._mutex:
            return RaceReport(
                races=sorted(
                    self._races, key=lambda r: (r.obj, r.attr)
                ),
                accesses=self._accesses,
                fields_observed=sorted(
                    f"{label}.{attr}" for label, attr in self._fields
                ),
                threads_seen=len(self._threads),
                edges=dict(self._edges),
                cycles=_find_cycles(self._edges),
                hazards=list(self._hazards),
                acquisitions=dict(self._acquisitions),
            )


def _find_cycles(edges: Dict[Tuple[str, str], int]) -> List[List[str]]:
    """Every elementary cycle in the acquisition-order graph, as paths.

    The graphs here are tiny (locks in the process, not acquisitions), so
    a DFS from each node is plenty.  Cycles are deduplicated by their
    rotation-normalised node set.
    """
    graph: Dict[str, List[str]] = {}
    for held, acquired in edges:
        graph.setdefault(held, []).append(acquired)
    for successors in graph.values():
        successors.sort()

    cycles: List[List[str]] = []
    seen_keys = set()

    def dfs(start: str, node: str, path: List[str]) -> None:
        for successor in graph.get(node, ()):
            if successor == start:
                cycle = path + [start]
                smallest = min(range(len(path)), key=lambda i: path[i])
                key = tuple(path[smallest:] + path[:smallest])
                if key not in seen_keys:
                    seen_keys.add(key)
                    cycles.append(cycle)
            elif successor not in path and successor > start:
                # Only explore nodes ordered after `start`, so each cycle
                # is found exactly once, from its smallest node.
                dfs(start, successor, path + [successor])

    for start in sorted(graph):
        dfs(start, start, [start])
    return cycles


def _protected(a: _Access, b: _Access) -> bool:
    """Does some common lock make the pair mutually exclusive?

    A lock held in read mode by both sides does not exclude — concurrent
    readers coexist under it — but any pairing involving a write or
    exclusive hold does.
    """
    for name, mode_a in a.locks.items():
        mode_b = b.locks.get(name)
        if mode_b is None:
            continue
        if mode_a == "read" and mode_b == "read":
            continue
        return True
    return False


# -- lock proxies -----------------------------------------------------------------


class TracedLock:
    """Detector proxy for a ``threading.Lock``-shaped object."""

    def __init__(self, detector: RaceDetector, lock: object, name: str):
        self._detector = detector
        self._lock = lock
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._detector.before_acquire(self.name, "exclusive")
        acquired = self._lock.acquire(blocking, timeout)
        self._detector.after_acquire(self.name, "exclusive", acquired)
        return acquired

    def release(self) -> None:
        self._detector.before_release(self.name, "exclusive")
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        self.release()
        return None

    def locked(self) -> bool:
        return self._lock.locked()


class TracedRWLock:
    """Detector proxy with the :class:`ReadWriteLock` surface."""

    def __init__(self, detector: RaceDetector, lock: object, name: str):
        self._detector = detector
        self._lock = lock
        self.name = name

    def _acquire(self, mode: str, acquire) -> None:
        self._detector.before_acquire(self.name, mode)
        try:
            acquire()
        except BaseException:
            self._detector.after_acquire(self.name, mode, False)
            raise
        self._detector.after_acquire(self.name, mode, True)

    def acquire_read(self) -> None:
        self._acquire("read", self._lock.acquire_read)

    def release_read(self) -> None:
        self._detector.before_release(self.name, "read")
        self._lock.release_read()

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    def acquire_write(self) -> None:
        self._acquire("write", self._lock.acquire_write)

    def release_write(self) -> None:
        self._detector.before_release(self.name, "write")
        self._lock.release_write()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    def state(self) -> dict:
        return self._lock.state()


# -- instrumentation ---------------------------------------------------------------

#: id(obj) -> (detector, label, frozenset of watched fields).
_WATCH: Dict[int, Tuple[RaceDetector, str, frozenset]] = {}
_PATCHED: Dict[type, type] = {}


def _patched_class(cls: type) -> type:
    """A subclass of ``cls`` whose attribute hooks report to a detector."""
    patched = _PATCHED.get(cls)
    if patched is not None:
        return patched

    def __getattribute__(self, name):  # noqa: N807
        watch = _WATCH.get(id(self))
        if watch is not None and name in watch[2]:
            watch[0].record(watch[1], name, "read")
        return cls.__getattribute__(self, name)

    def __setattr__(self, name, value):  # noqa: N807
        watch = _WATCH.get(id(self))
        if watch is not None and name in watch[2]:
            watch[0].record(watch[1], name, "write")
        cls.__setattr__(self, name, value)

    patched = type(
        f"Instrumented{cls.__name__}",
        (cls,),
        {"__getattribute__": __getattribute__, "__setattr__": __setattr__},
    )
    _PATCHED[cls] = patched
    return patched


def instrument(
    obj: object,
    detector: RaceDetector,
    label: str,
    fields: Optional[Dict[str, str]] = None,
) -> List[str]:
    """Attach per-field access hooks and traced guard locks to ``obj``.

    Args:
        obj: an instance of a ``guarded by:``-annotated class.
        detector: where accesses and lock events are reported; it also
            wraps the guard locks, so one set of proxies feeds lock order
            and locksets alike.
        label: how the object is named in race reports.
        fields: explicit ``field -> guard attr`` map overriding the
            class's parsed annotations (used for exec'd fixture classes);
            a ``None`` guard watches the field without wrapping any lock.

    Returns the field names actually being watched.  Fields whose guard
    could not be wrapped (e.g. a ``threading.Condition``) are left
    unwatched rather than risk false positives.
    """
    guard_map = dict(fields) if fields is not None else dict(
        class_guards(type(obj)).fields
    )
    wrapped_guards = set()
    for guard_attr in sorted({g for g in guard_map.values() if g}):
        lock = getattr(obj, guard_attr, None)
        if lock is None:
            continue
        if isinstance(lock, threading.Condition):
            continue  # proxying would lose wait()/notify(); leave it be
        if isinstance(lock, (TracedLock, TracedRWLock)):
            wrapped_guards.add(guard_attr)  # already a traced proxy
            continue
        if hasattr(lock, "acquire_read") or hasattr(lock, "acquire"):
            proxy = detector.wrap(lock, f"{label}.{guard_attr}")
            object.__setattr__(obj, guard_attr, proxy)
            wrapped_guards.add(guard_attr)
    watched = frozenset(
        attr
        for attr, guard in guard_map.items()
        if guard is None or guard in wrapped_guards
    )
    if watched:
        obj.__class__ = _patched_class(type(obj))
        _WATCH[id(obj)] = (detector, label, watched)
    return sorted(watched)


def deinstrument(obj: object) -> None:
    """Detach the access hooks installed by :func:`instrument`."""
    _WATCH.pop(id(obj), None)


# -- self-test ----------------------------------------------------------------------


def selftest() -> List[str]:
    """Plant an ABBA ordering, a nested read and an unguarded counter.

    Each MUST be reported: a detector that cannot see its own planted
    defects turns every later "clean" verdict into noise.  Returns one
    failure message per defect that went unseen.
    """
    from ..errors import LockUsageError
    from ..service.concurrency import ReadWriteLock

    detector = RaceDetector()
    failures: List[str] = []

    lock_a = detector.wrap(ReadWriteLock(), "a")
    lock_b = detector.wrap(ReadWriteLock(), "b")
    with lock_a.read():
        with lock_b.read():
            pass
    with lock_b.read():
        with lock_a.read():
            pass

    lock_c = detector.wrap(ReadWriteLock(), "c")
    lock_c.acquire_read()
    try:
        lock_c.acquire_read()
    except LockUsageError:
        pass  # expected: ReadWriteLock refuses the re-entry outright
    else:
        lock_c.release_read()
        failures.append(
            "detector self-test: nested same-thread acquire_read() did not raise"
        )
    finally:
        lock_c.release_read()

    class _Unguarded:
        def __init__(self):
            self.count = 0

    victim = _Unguarded()
    instrument(victim, detector, "selftest", fields={"count": None})
    barrier = threading.Barrier(2)

    def hammer() -> None:
        barrier.wait()
        for _ in range(50):
            victim.count += 1

    threads = [detector.thread(target=hammer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        detector.join(thread)
    deinstrument(victim)

    report = detector.report()
    if not report.cycles:
        failures.append(
            "detector self-test: seeded ABBA acquisition produced no cycle"
        )
    if not report.hazards:
        failures.append(
            "detector self-test: nested read re-entry was not recorded"
        )
    if not report.races:
        failures.append(
            "detector self-test: planted unguarded counter produced no race finding"
        )
    return failures
