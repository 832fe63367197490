"""Span recorder for the traced run: layer boundaries wrapped from outside.

The engine is not edited.  ``SpanRecorder.install`` replaces the public
methods that mark a layer boundary with thin wrappers that append one span
per call; ``uninstall`` puts the originals back.  A span is
``{id, name, start_ns, end_ns, parent, request, thread, key}``.

* Within a thread, the parent is whichever span is open on that thread.
* Across threads (coordinator fan-out threads, in-process HTTP handler
  threads) there is no shared stack.  Boundaries that take the query string
  record it as ``key``; an orphan span is attached afterwards to the
  shortest span with the same key whose interval contains it.  Concurrent
  clients are therefore given disjoint query pools by the workloads.
* Self time is a span's duration minus the part of it its children cover.
  When children overlap (two shards answering in parallel), each instant
  is charged to the child that finishes last, because that child is the one
  the parent is still waiting for; the overlapped part of the other child
  is off the blocking path and its subtree is scaled down accordingly.
  With that rule the self times of a request tree sum to its root's
  duration; ``TraceSummary.worst_sum_error`` is the check.

Generators (``ListFile.scan``/``scan_page``, ``BTree.range_scan``) are not
boundaries: their bodies run interleaved with the consumer, so a wrapper
would either time nothing or pay two clock reads per record.  Their I/O is
visible as ``storage.disk.read`` spans and their unit cost comes from the
layer probes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# Span fields, kept positional because one is appended per wrapped call.
NAME, START, END, PARENT, REQUEST, THREAD, KEY = range(7)


def _query_key(args, kwargs) -> Optional[str]:
    """The query string of a ``search(self, query, ...)`` call."""
    if len(args) > 1:
        return args[1]
    return kwargs.get("query")


def boundaries() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, key extractor) for every boundary."""
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.engine import XRankEngine
    from repro.query.dil_eval import DILEvaluator
    from repro.query.disjunctive import DisjunctiveEvaluator
    from repro.query.hdil_eval import HDILEvaluator
    from repro.query.rdil_eval import RDILEvaluator
    from repro.service.client import ServiceClient
    from repro.service.core import XRankService
    from repro.storage.btree import BTree
    from repro.storage.disk import SimulatedDisk

    found = [
        (ClusterCoordinator, "search", "cluster.coordinator.search", _query_key),
        (ServiceClient, "search", "service.client.request", _query_key),
        (XRankService, "search", "service.search", _query_key),
        (XRankService, "add_xml", "service.add_xml", None),
        (XRankEngine, "search", "engine.search", _query_key),
        (XRankEngine, "build", "engine.build", None),
        (SimulatedDisk, "read", "storage.disk.read", None),
    ]
    for evaluator in (
        DILEvaluator, RDILEvaluator, HDILEvaluator, DisjunctiveEvaluator
    ):
        found.append((evaluator, "evaluate", "query.evaluate", None))
    for probe in ("ceiling", "predecessor", "strictly_greater"):
        found.append((BTree, probe, "storage.btree.probe", None))
    return found


#: Name of the span recorded around HDIL's external-leaf decoder.  The
#: decoder is stored per tree at build time, so it is wrapped per engine.
DECODE_SPAN = "index.hdil.decode_list_page"

#: Every span name a traced run can produce, in ladder order (top first).
SPAN_NAMES = (
    "cluster.coordinator.search",
    "service.client.request",
    "service.search",
    "service.add_xml",
    "engine.search",
    "engine.build",
    "query.evaluate",
    "storage.btree.probe",
    DECODE_SPAN,
    "storage.disk.read",
)


class SpanRecorder:
    """Collects spans in memory; nothing is written until ``write``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._requests = itertools.count()
        self._threads = itertools.count()
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrapper(self, original, name: str, key_of):
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.thread = next(self._threads)
            parent = stack[-1] if stack else None
            span = [
                name,
                0,
                0,
                parent,
                None,
                local.thread,
                key_of(args, kwargs) if key_of is not None else None,
            ]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attribute: str, name: str, key_of=None) -> None:
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self._wrapper(original, name, key_of))

    def install(self, engines=()) -> None:
        """Wrap every class-level boundary, and the leaf decoder of each
        HDIL B+-tree in ``engines`` (it is bound per tree at build time)."""
        for owner, attribute, name, key_of in boundaries():
            self._patch(owner, attribute, name, key_of)
        for engine in engines:
            for index in engine._indexes.values():
                for tree in getattr(index, "btrees", {}).values():
                    if tree.leaf_decoder is not None:
                        self._patch(tree, "leaf_decoder", DECODE_SPAN)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- analysis -----------------------------------------------------------------

    def link(self) -> None:
        """Attach cross-thread orphans by (key, containment) and hand every
        tree one request id.  A parent must sit higher on the ladder, so
        two clients running one query at once are never linked together."""
        rung = {name: depth for depth, name in enumerate(SPAN_NAMES)}
        keyed = [s for s in self.spans if s[KEY] is not None]
        for span in keyed:
            if span[PARENT] is not None:
                continue
            best = None
            for other in keyed:
                if (
                    other[KEY] == span[KEY]
                    and rung[other[NAME]] < rung[span[NAME]]
                    and other[THREAD] != span[THREAD]
                    and other[START] <= span[START]
                    and span[END] <= other[END]
                    and (best is None
                         or other[END] - other[START] < best[END] - best[START])
                ):
                    best = other
            span[PARENT] = best
        for span in self.spans:  # appended in start order per thread
            if span[PARENT] is None:
                span[REQUEST] = next(self._requests)
        for span in self.spans:
            node = span
            while node[REQUEST] is None:
                node = node[PARENT]
            span[REQUEST] = node[REQUEST]

    def summarize(self) -> "TraceSummary":
        """Per-boundary self time and call counts over the recorded trees."""
        self.link()
        children: Dict[int, List[list]] = {}
        for span in self.spans:
            if span[PARENT] is not None:
                children.setdefault(id(span[PARENT]), []).append(span)
        roots = [s for s in self.spans if s[PARENT] is None]
        self_ns: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        worst = 0.0
        for root in roots:
            total = 0.0
            pending = [(root, 1.0)]
            while pending:
                span, weight = pending.pop()
                duration = span[END] - span[START]
                covered = []  # disjoint intervals already charged to a child
                kids = sorted(
                    children.get(id(span), ()), key=lambda c: -c[END]
                )
                covered_ns = 0
                for kid in kids:
                    pieces = _subtract(
                        max(kid[START], span[START]),
                        min(kid[END], span[END]),
                        covered,
                    )
                    charged = sum(hi - lo for lo, hi in pieces)
                    covered.extend(pieces)
                    covered_ns += charged
                    kid_duration = kid[END] - kid[START]
                    share = charged / kid_duration if kid_duration else 0.0
                    pending.append((kid, weight * share))
                own = weight * (duration - covered_ns)
                self_ns[span[NAME]] = self_ns.get(span[NAME], 0.0) + own
                calls[span[NAME]] = calls.get(span[NAME], 0) + 1
                total += own
            duration = root[END] - root[START]
            if duration:
                worst = max(worst, abs(total - duration) / duration)
        return TraceSummary(len(roots), self_ns, calls, worst)

    def write(self, path) -> None:
        """One JSON object per span, ids assigned in recording order."""
        ids = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for number, span in enumerate(self.spans):
                parent = span[PARENT]
                handle.write(json.dumps({
                    "id": number,
                    "name": span[NAME],
                    "start_ns": span[START],
                    "end_ns": span[END],
                    "parent": ids[id(parent)] if parent is not None else None,
                    "request": span[REQUEST],
                    "thread": span[THREAD],
                    "key": span[KEY],
                }) + "\n")


def _subtract(lo: int, hi: int, covered) -> List[Tuple[int, int]]:
    """The parts of [lo, hi) not inside any of the disjoint ``covered``."""
    pieces = [(lo, hi)] if hi > lo else []
    for c_lo, c_hi in covered:
        remaining = []
        for p_lo, p_hi in pieces:
            if c_hi <= p_lo or p_hi <= c_lo:
                remaining.append((p_lo, p_hi))
                continue
            if p_lo < c_lo:
                remaining.append((p_lo, c_lo))
            if c_hi < p_hi:
                remaining.append((c_hi, p_hi))
        pieces = remaining
    return pieces


class TraceSummary:
    """Blocking-path self time and call counts per boundary."""

    def __init__(self, requests, self_ns, calls, worst_sum_error):
        self.requests = requests
        self.self_ns = self_ns
        self.calls = calls
        #: Largest |sum of self times - root duration| / root duration.
        self.worst_sum_error = worst_sum_error

    def self_ms_per_query(self, name: str) -> float:
        return self.self_ns.get(name, 0.0) / 1e6 / max(1, self.requests)

    def calls_per_query(self, name: str) -> float:
        return self.calls.get(name, 0) / max(1, self.requests)

    def share(self, names) -> float:
        """Share of all self time spent in the given boundaries."""
        total = sum(self.self_ns.values())
        return sum(self.self_ns.get(n, 0.0) for n in names) / total if total else 0.0
