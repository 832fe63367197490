"""Parallel/sequential identity verification.

The parallel build's contract is *byte identity*: for any worker count,
every built index's pages, the ElemRank vector, and the top-k results of
probe queries must equal the sequential build's.  This module is the one
place that contract is checked; the ``repro build --verify`` CLI flag,
``repro check --strict``, the build benchmark, and the property tests all
call into it.
"""

from __future__ import annotations

from typing import List, Sequence


def compare_pages(
    sequential_engine, parallel_engine, limit: int = 5
) -> List[str]:
    """Differences between two engines' index pages; empty means identical.

    Compares the built kinds, then each kind's simulated disk page by page.
    List pages hold every posting's Dewey ID, float32 rank and delta-coded
    position list in keyword order, and tree pages their keys, so equal
    pages are equal bytes for everything a query reads.
    """
    seq_kinds = sorted(sequential_engine._indexes)
    par_kinds = sorted(parallel_engine._indexes)
    if seq_kinds != par_kinds:
        return [f"built kinds differ: {seq_kinds} vs {par_kinds}"]
    problems: List[str] = []
    for kind in seq_kinds:
        seq_disk = sequential_engine.index(kind).disk
        par_disk = parallel_engine.index(kind).disk
        if len(seq_disk.pages) != len(par_disk.pages):
            problems.append(
                f"{kind}: {len(seq_disk.pages)} vs {len(par_disk.pages)} pages"
            )
        else:
            pairs = zip(seq_disk.pages, par_disk.pages)
            for page_id, (a, b) in enumerate(pairs):
                if a != b:
                    owner = seq_disk.owner_of(page_id) or "unowned"
                    problems.append(
                        f"{kind}: page {page_id} ({owner}) differs"
                    )
                    break
        if len(problems) >= limit:
            problems.append("... (further differences suppressed)")
            break
    return problems


def compare_elemranks(sequential_engine, parallel_engine) -> List[str]:
    """Exact equality of the two engines' ElemRank mappings."""
    problems: List[str] = []
    seq = sequential_engine.builder.elemranks
    par = parallel_engine.builder.elemranks
    if len(seq) != len(par):
        problems.append(f"ElemRank table sizes differ: {len(seq)} vs {len(par)}")
        return problems
    for dewey, score in seq.items():
        other = par.get(dewey)
        if other != score:
            problems.append(
                f"ElemRank({dewey}) differs: {score!r} vs {other!r}"
            )
            if len(problems) >= 5:
                break
    return problems


def compare_search_results(
    sequential_engine,
    parallel_engine,
    queries: Sequence[str],
    kind: str = "hdil",
    m: int = 10,
) -> List[str]:
    """Top-m agreement (dewey + rank) on probe queries."""
    problems: List[str] = []
    for query in queries:
        seq_hits = sequential_engine.search(query, m=m, kind=kind)
        par_hits = parallel_engine.search(query, m=m, kind=kind)
        seq_view = [(hit.dewey, hit.rank) for hit in seq_hits]
        par_view = [(hit.dewey, hit.rank) for hit in par_hits]
        if seq_view != par_view:
            problems.append(
                f"top-{m} for {query!r} differs: {seq_view[:3]} vs "
                f"{par_view[:3]}"
            )
    return problems


def compare_engines(
    sequential_engine,
    parallel_engine,
    queries: Sequence[str] = (),
    kind: str = "hdil",
    m: int = 10,
) -> List[str]:
    """The full identity battery; empty result means identical builds."""
    problems = compare_pages(sequential_engine, parallel_engine)
    problems.extend(compare_elemranks(sequential_engine, parallel_engine))
    if queries:
        problems.extend(
            compare_search_results(
                sequential_engine, parallel_engine, queries, kind=kind, m=m
            )
        )
    return problems


def default_probe_queries(engine, count: int = 3) -> List[str]:
    """A few single-keyword probe queries: the keywords with the longest
    lists."""
    frequencies = engine.keyword_frequencies()
    by_frequency = sorted(
        frequencies, key=lambda keyword: (-frequencies[keyword], keyword)
    )
    return by_frequency[:count]
