"""Per-layer unit costs, measured by calling each module's public functions
on data captured from the workload (its documents, lists, keys, queries).

These are *unit* costs — ns per posting, us per probe — so they are taken
in every workload, on that workload's input shape (shallow DBLP papers or
one deep XMark document).  Whether a workload *uses* a layer shows in the
per-query counters and span counts instead, which are zero where the layer
is idle.  Probes run only in the traced run and never feed an end-to-end
metric.
"""

from __future__ import annotations

import random
from statistics import median
from typing import Callable, Dict, Sequence

import hostclock
from repro.index.builder import IndexBuilder
from repro.index.hdil import decode_list_page
from repro.index.postings import extract_document_raw_postings
from repro.query.merge import conjunctive_merge
from repro.query.streams import PostingStream
from repro.ranking.elemrank import LinkGraph, compute_elemrank
from repro.storage.listfile import ListCursor
from repro.storage.records import RecordReader, unpack_page
from repro.text.tokenize import tokenize_query, words
from repro.xmlmodel.dewey import DeweyId
from repro.xmlmodel.parser import parse_xml

#: Cap on the input handed to the text/model probes; enough for a stable
#: per-KB figure without re-parsing a whole corpus in every traced run.
_SAMPLE_BYTES = 400_000


def _timed(fn: Callable[[], object]) -> float:
    """Seconds ``fn`` takes, at the reference host speed."""
    return hostclock.timed(fn)[1]


def _median_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median of a few repeats: the probes are short and single-threaded."""
    return median(_timed(fn) for _ in range(repeats))


def text_and_model(inputs) -> Dict[str, float]:
    """xmlmodel.parse, the Dewey codec and the tokenizer."""
    sample, size = [], 0
    for source in inputs.sources:
        sample.append(source)
        size += len(source)
        if size >= _SAMPLE_BYTES:
            break
    kilobytes = size / 1024.0
    parse_s = _median_of(
        lambda: [parse_xml(s, doc_id=i) for i, s in enumerate(sample)]
    )
    documents = [parse_xml(s, doc_id=i) for i, s in enumerate(sample)]
    ids = [e.dewey for d in documents for e in d.iter_elements()]
    codec_s = _median_of(
        lambda: [DeweyId.decode(dewey.encode(), 0) for dewey in ids]
    )
    texts = [
        value.text for d in documents for e in d.iter_elements()
        for value in e.value_children()
    ]
    text_kb = sum(len(t) for t in texts) / 1024.0
    tokenize_s = _median_of(lambda: [words(t) for t in texts])
    return {
        "xmlmodel.parse_us_per_kb": parse_s * 1e6 / kilobytes,
        "xmlmodel.dewey_codec_ns_per_id": codec_s * 1e9 / max(1, len(ids)),
        "text.tokenize_us_per_kb": tokenize_s * 1e6 / max(text_kb, 1e-9),
    }


def index_build(inputs, config) -> "BuiltLayers":
    """ElemRank, posting extraction and each kind's bulk load, one by one."""
    graph = inputs.graph
    elemrank, elemrank_s = hostclock.timed(lambda: compute_elemrank(
        LinkGraph.from_collection(graph), config.elemrank))
    metrics = {
        "ranking.elemrank_s": elemrank_s,
        "ranking.elemrank_iterations": float(elemrank.iterations),
        "index.extract_postings_s": _timed(
            lambda: [
                extract_document_raw_postings(d)
                for d in graph.iter_documents()
            ]
        ),
    }
    builder = IndexBuilder(
        graph,
        elemrank_params=config.elemrank,
        storage_params=config.storage,
    )
    indexes = {}
    source_bytes = inputs.source_bytes
    for kind, build in (
        ("dil", builder.build_dil),
        ("rdil", builder.build_rdil),
        ("hdil", lambda: builder.build_hdil(config.hdil)),
    ):
        indexes[kind], metrics[f"index.build_{kind}_s"] = hostclock.timed(build)
        metrics[f"index.{kind}_bytes_per_source_byte"] = (
            indexes[kind].disk.bytes_used() / source_bytes
        )
    return BuiltLayers(builder, indexes, metrics)


class BuiltLayers:
    """The three indexes over the workload's graph plus their build costs."""

    def __init__(self, builder, indexes, metrics):
        self.builder = builder
        self.indexes = indexes
        self.metrics = metrics

    def longest_keyword(self) -> str:
        postings = self.builder.direct_postings
        return max(sorted(postings), key=lambda k: len(postings[k]))


def storage(built: BuiltLayers, seed: int) -> Dict[str, float]:
    """Record decoding, list scan, B+-tree probe and HDIL leaf decode."""
    keyword = built.longest_keyword()
    dil, rdil, hdil = (built.indexes[k] for k in ("dil", "rdil", "hdil"))
    list_file = dil.lists[keyword]
    pages = [dil.disk.read(page_id) for page_id in list_file.page_ids]

    def decode_records() -> int:
        decoded = 0
        for page in pages:
            count, reader = unpack_page(page)
            for _ in range(count):
                body = RecordReader(reader.bytes_field())
                body.dewey(), body.float32(), body.uint_list()
                decoded += 1
        return decoded

    def scan_list() -> None:
        cursor = ListCursor(list_file)
        while not cursor.eof:
            cursor.next()

    postings = list_file.num_records
    metrics = {
        "storage.record_decode_ns_per_posting":
            _median_of(decode_records) * 1e9 / postings,
        "storage.list_scan_ns_per_posting":
            _median_of(scan_list) * 1e9 / postings,
    }

    # Probe keys: existing ids and their next siblings, so both hits and
    # near misses are looked up.  Cold pool per probe, as in cold-probe.
    rng = random.Random(f"{seed}:btree-keys")
    stored = [p.dewey for p in built.builder.direct_postings[keyword]]
    keys = [rng.choice(stored) for _ in range(32)]
    keys += [key.successor_sibling() for key in keys]
    tree = rdil.btree(keyword)
    reads = 0

    def probe_all() -> None:
        nonlocal reads
        for key in keys:
            rdil.reset_measurement(cold_cache=True)
            tree.longest_common_prefix(key)
            tree.ceiling(key)
            reads += rdil.disk.stats.page_reads

    elapsed = _timed(probe_all)
    metrics["storage.btree_probe_us"] = elapsed * 1e6 / (2 * len(keys))
    metrics["storage.btree_pages_per_probe"] = reads / (2 * len(keys))

    hdil_pages = [
        hdil.disk.read(page_id)
        for page_id in hdil.full_lists[keyword].page_ids
    ]
    metrics["storage.hdil_page_decode_us"] = (
        _median_of(lambda: [decode_list_page(p) for p in hdil_pages])
        * 1e6 / len(hdil_pages)
    )
    return metrics


def merge(built: BuiltLayers, config) -> Dict[str, float]:
    """The Dewey-stack merge alone: decoded postings in memory, no storage."""
    postings = built.builder.direct_postings
    by_length = sorted(postings, key=lambda k: (-len(postings[k]), k))
    lists = [postings[k] for k in by_length[:3]]
    consumed = sum(len(plist) for plist in lists)

    def run() -> None:
        streams = [PostingStream.from_decoded(plist) for plist in lists]
        for _ in conjunctive_merge(streams, config.ranking):
            pass

    return {"query.merge_ns_per_posting": _median_of(run) * 1e9 / consumed}


def evaluators(built: BuiltLayers, engine, kind: str, queries, config):
    """Median ``evaluate`` per index kind, and what ``engine.search`` adds on
    top of the evaluator for the kind the workload actually serves."""
    from repro.query.dil_eval import DILEvaluator
    from repro.query.hdil_eval import HDILEvaluator
    from repro.query.rdil_eval import RDILEvaluator

    conjunctive = [q for q in queries if q.mode == "and" and q.path is None]
    keyword_lists = [tokenize_query(q.text) for q in conjunctive[:12]]
    metrics = {}
    for name, evaluator in (
        ("dil", DILEvaluator(built.indexes["dil"], config.ranking)),
        ("rdil", RDILEvaluator(built.indexes["rdil"], config.ranking)),
        ("hdil", HDILEvaluator(
            built.indexes["hdil"], config.ranking, config.hdil)),
    ):
        samples = []
        for keywords in keyword_lists:
            evaluator.index.reset_measurement(cold_cache=True)
            samples.append(
                _timed(lambda: evaluator.evaluate(keywords, m=10)) * 1e3
            )
        metrics[f"query.{name}_eval_ms"] = median(samples)

    evaluator = engine.evaluator(kind)
    index = engine.index(kind)
    reset = getattr(index, "reset_measurement", lambda cold_cache: None)

    def fastest(call) -> float:
        """Best of three cold calls: the difference of two ~40 ms timings
        is otherwise mostly scheduler noise."""
        best = float("inf")
        for _ in range(3):
            reset(cold_cache=True)
            best = min(best, _timed(call))
        return best

    overhead = []
    for query, keywords in list(zip(conjunctive, keyword_lists))[:8]:
        bare = fastest(lambda: evaluator.evaluate(keywords, m=10))
        full = fastest(lambda: engine.search(query.text, m=10, kind=kind))
        overhead.append((full - bare) * 1e3)
    metrics["engine.search_overhead_ms"] = median(overhead)
    return metrics


def service_layers(engine, kind: str, queries: Sequence) -> Dict[str, float]:
    """What the in-process service and the HTTP hop each add to a search,
    caches off so every call evaluates."""
    import threading

    from repro.service import XRankService
    from repro.service.client import ServiceClient
    from repro.service.server import make_server

    service = XRankService(
        engine, kinds=(kind,), default_kind=kind,
        result_cache_size=0, list_cache_size=0,
    )
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(*server.server_address[:2])
    service_us, http_ms = [], []
    try:
        for query in [q for q in queries if q.path is None][:8]:
            options = {"m": 10, "kind": kind, "mode": query.mode}
            # Best of three each, pool warm: the layers above the engine do
            # the same work whatever the pool holds.
            in_engine = min(
                _timed(lambda: engine.search(query.text, **options))
                for _ in range(3))
            in_service = min(
                _timed(lambda: service.search(query.text, **options))
                for _ in range(3))
            over_http = min(
                _timed(lambda: client.search(query.text, **options))
                for _ in range(3))
            service_us.append((in_service - in_engine) * 1e6)
            http_ms.append((over_http - in_service) * 1e3)
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return {
        "service.overhead_us": median(service_us),
        "service.http_overhead_ms": median(http_ms),
    }
