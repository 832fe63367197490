"""Incremental maintenance benchmarks (paper Section 4.5).

Measures the three claims behind the main+delta design:

* adding a document incrementally is far cheaper than a full rebuild;
* query cost over main+delta stays close to the compacted index;
* merge() compacts in place, reusing freed pages.
"""

import pytest

from repro.datasets.dblp import generate_dblp
from repro.index.builder import IndexBuilder
from repro.index.incremental import IncrementalDILIndex
from repro.query.dil_eval import DILEvaluator
from repro.xmlmodel.parser import parse_xml


@pytest.fixture(scope="module")
def base():
    corpus = generate_dblp(num_papers=400, seed=19)
    builder = IndexBuilder(corpus.graph)
    return corpus, builder


def fresh_incremental(builder):
    index = IncrementalDILIndex()
    index.build(builder.direct_postings)
    return index


NEW_DOC = (
    "<article><title>late breaking paper</title>"
    "<abstract>some freshly indexed text about searching</abstract></article>"
)


def test_incremental_add_latency(benchmark, base):
    corpus, builder = base
    index = fresh_incremental(builder)
    counter = {"next": 10_000}

    def add_one():
        doc_id = counter["next"]
        counter["next"] += 1
        document = parse_xml(NEW_DOC, doc_id=doc_id)
        index.add_documents([document], reference=builder.elemranks)

    benchmark(add_one)
    benchmark.extra_info["delta_postings"] = index.delta_size


def test_full_rebuild_latency(benchmark, base):
    corpus, builder = base

    def rebuild():
        index = IncrementalDILIndex()
        index.build(builder.direct_postings)
        return index

    benchmark.pedantic(rebuild, rounds=2, iterations=1)


def test_incremental_vs_rebuild_speedup(benchmark, base, capsys):
    """One incremental add must beat a full rebuild by a wide margin."""
    import time

    corpus, builder = base
    index = fresh_incremental(builder)

    def add_once():
        document = parse_xml(NEW_DOC, doc_id=20_000)
        index.add_documents([document], reference=builder.elemranks)

    started = time.perf_counter()
    benchmark.pedantic(add_once, rounds=1, iterations=1)
    add_seconds = max(time.perf_counter() - started, 1e-6)

    started = time.perf_counter()
    rebuilt = IncrementalDILIndex()
    rebuilt.build(builder.direct_postings)
    rebuild_seconds = time.perf_counter() - started

    with capsys.disabled():
        print(
            f"\n  incremental add: {add_seconds * 1000:.1f}ms; "
            f"full rebuild: {rebuild_seconds * 1000:.1f}ms "
            f"({rebuild_seconds / add_seconds:.0f}x)"
        )
    assert add_seconds * 5 < rebuild_seconds


def test_merge_latency(benchmark, base):
    corpus, builder = base

    def setup():
        index = fresh_incremental(builder)
        for i in range(5):
            document = parse_xml(NEW_DOC, doc_id=30_000 + i)
            index.add_documents([document], reference=builder.elemranks)
        return (index,), {}

    def merge(index):
        index.merge()
        return index

    index = benchmark.pedantic(merge, setup=setup, rounds=2)
    assert index.delta is None


def test_query_cost_with_delta(benchmark, base, capsys):
    """Querying across main+delta costs at most a little over compacted."""
    corpus, builder = base
    index = fresh_incremental(builder)
    for i in range(10):
        document = parse_xml(NEW_DOC, doc_id=40_000 + i)
        index.add_documents([document], reference=builder.elemranks)

    evaluator = DILEvaluator(index)
    query = ["late", "breaking"]

    index.reset_measurement(cold_cache=True)
    benchmark.pedantic(lambda: evaluator.evaluate(query, m=10), rounds=1, iterations=1)
    with_delta = index.disk.stats.page_reads

    index.merge()
    index.reset_measurement(cold_cache=True)
    evaluator.evaluate(query, m=10)
    compacted = index.disk.stats.page_reads

    with capsys.disabled():
        print(f"\n  page reads with delta: {with_delta}; compacted: {compacted}")
    assert with_delta <= compacted + 10
