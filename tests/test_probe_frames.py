"""B+-tree probes decode each page once per buffer-pool residency.

``BTree`` reads its pages through ``SimulatedDisk.read_decoded``: the
decoded frame lives on the page's pool entry and leaves with it.  These
tests pin what that must not change — answers, I/O counters, snapshot
bytes, concurrent answers — and what it must: the number of decodes.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref

import pytest

import repro.storage.btree as btree_module
from repro.config import StorageParams, XRankConfig
from repro.datasets.dblp import generate_dblp
from repro.datasets.textgen import PlantedKeywords
from repro.engine import XRankEngine
from repro.index.hdil import decode_list_page, list_page_frame
from repro.obs.profile import QueryProfile, activate
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import ListFile
from repro.xmlmodel.dewey import DeweyId

KINDS = ("dil", "rdil", "hdil")


@pytest.fixture(scope="module")
def corpus():
    planted = PlantedKeywords.default()
    planted.correlated_rate = 0.5
    planted.independent_rate = 0.7
    built = generate_dblp(num_papers=40, seed=11, planted=planted)
    queries = [" ".join(group[:2]) for group in planted.correlated_groups[:3]]
    queries.append(" ".join(planted.correlated_groups[0][:3]))
    queries.append(planted.independent_keywords[0])
    return built, queries


def build(corpus, pool_pages: int = 256) -> XRankEngine:
    """Small pages, so trees have internal levels and lists span pages."""
    documents, _ = corpus
    storage = StorageParams(page_size=512, buffer_pool_pages=pool_pages)
    engine = XRankEngine(config=XRankConfig(storage=storage))
    for document in documents.documents:
        engine.add_document(document)
    engine.build(kinds=KINDS)
    return engine


def answers(engine, queries, kinds=KINDS, cold=True):
    out = {}
    for query in queries:
        for kind in kinds:
            if cold:
                engine.index(kind).reset_measurement(cold_cache=True)
            out[kind, query] = [
                (hit.dewey, hit.rank) for hit in engine.search(query, m=10, kind=kind)
            ]
    return out


def frameless(monkeypatch):
    """Every ``read_decoded`` decodes afresh: the pre-frame probe path."""
    monkeypatch.setattr(
        SimulatedDisk,
        "read_decoded",
        lambda self, page_id, decode: decode(self.read(page_id)),
    )


@pytest.fixture(scope="module")
def engine(corpus):
    return build(corpus)


class TestDecodeCount:
    @pytest.mark.parametrize("kind", ["rdil", "hdil"])
    def test_cold_query_decodes_each_page_once_per_residency(
        self, corpus, engine, kind, monkeypatch
    ):
        _, queries = corpus
        index = engine.index(kind)
        decodes = []

        def counting(decoder):
            def decode(page):
                decodes.append(page)
                return decoder(page)

            return decode

        # Every parse of a page a probe reads goes through one of these:
        # internal nodes, owned leaves, and each external tree's decoder.
        monkeypatch.setattr(
            btree_module, "_internal_frame", counting(btree_module._internal_frame)
        )
        monkeypatch.setattr(
            btree_module, "_leaf_frame", counting(btree_module._leaf_frame)
        )
        for tree in index.btrees.values():
            if tree.leaf_decoder is not None:
                monkeypatch.setattr(tree, "leaf_decoder", counting(tree.leaf_decoder))
        found_in_pool = set()
        read = SimulatedDisk.read

        def recording_read(disk, page_id):
            if page_id in disk.pool:
                found_in_pool.add(page_id)
            return read(disk, page_id)

        monkeypatch.setattr(SimulatedDisk, "read", recording_read)

        for query in queries:
            index.reset_measurement(cold_cache=True)
            decodes.clear()
            found_in_pool.clear()
            profile = QueryProfile()
            with activate(profile):
                engine.search(query, m=10, kind=kind)
            if len(query.split()) > 1:
                assert profile.rdil_probes > 0, query
                assert decodes, query
            bound = index.disk.stats.page_reads + len(found_in_pool)
            assert len(decodes) <= bound, (query, len(decodes), bound)

    def test_pre_frame_path_decodes_far_more(self, corpus, engine, monkeypatch):
        """The gate bites: without frames every pool hit is re-parsed."""
        _, queries = corpus
        index = engine.index("rdil")
        decodes = []
        leaf_frame = btree_module._leaf_frame

        def counting(page):
            decodes.append(page)
            return leaf_frame(page)

        monkeypatch.setattr(btree_module, "_leaf_frame", counting)
        frameless(monkeypatch)
        index.reset_measurement(cold_cache=True)
        engine.search(queries[0], m=10, kind="rdil")
        assert len(decodes) > index.disk.stats.page_reads


class TestAnswersAndCounters:
    def test_pool_sizes_that_evict_mid_probe_answer_identically(self, corpus):
        _, queries = corpus
        reference = answers(build(corpus, 256), queries)
        for pool_pages in (1, 4):
            tiny = build(corpus, pool_pages)
            assert answers(tiny, queries) == reference
            assert answers(tiny, queries, cold=False) == reference

    def test_answers_and_iostats_match_the_pre_frame_path(
        self, corpus, engine, monkeypatch
    ):
        _, queries = corpus

        def run():
            out = []
            for query in queries:
                for kind in ("rdil", "hdil"):
                    index = engine.index(kind)
                    index.reset_measurement(cold_cache=True)
                    hits = engine.search(query, m=10, kind=kind)
                    out.append(
                        (
                            [(hit.dewey, hit.rank) for hit in hits],
                            index.disk.stats.as_dict(),
                        )
                    )
            return out

        framed = run()
        frameless(monkeypatch)
        assert run() == framed


class TestSnapshotBytes:
    def test_snapshot_is_unchanged_by_warm_probes(self, corpus, tmp_path):
        _, queries = corpus
        engine = build(corpus)
        for kind in KINDS:
            engine.index(kind).reset_measurement(cold_cache=True)
        engine.save(tmp_path / "before.snapshot")

        expected = answers(engine, queries, kinds=("rdil", "hdil"), cold=False)
        # Walk every HDIL tree across its leaves, so neighbour lookups run.
        for tree in engine.index("hdil").btrees.values():
            assert len(list(tree.range_scan(DeweyId((0,))))) == tree.num_entries
        assert any(engine.index(kind).disk.pooled_frames() for kind in KINDS)
        for kind in KINDS:
            engine.index(kind).reset_measurement(cold_cache=True)
        engine.save(tmp_path / "after.snapshot")
        before = (tmp_path / "before.snapshot").read_bytes()
        assert (tmp_path / "after.snapshot").read_bytes() == before

        restored = XRankEngine.load(tmp_path / "after.snapshot")
        assert answers(restored, queries, kinds=("rdil", "hdil")) == expected

    def test_engine_files_naming_the_list_decoder_load_with_frames(
        self, corpus, tmp_path
    ):
        """HDIL trees in engine files written before leaf frames name
        ``decode_list_page``; they load with ``list_page_frame`` and
        answer as before."""
        _, queries = corpus
        engine = build(corpus)
        expected = answers(engine, queries, kinds=("hdil",))
        for tree in engine.index("hdil").btrees.values():
            assert tree.leaf_decoder is list_page_frame
            tree.leaf_decoder = decode_list_page
        engine.save(tmp_path / "old.snapshot")
        restored = XRankEngine.load(tmp_path / "old.snapshot")
        trees = restored.index("hdil").btrees.values()
        assert trees and all(t.leaf_decoder is list_page_frame for t in trees)
        assert answers(restored, queries, kinds=("hdil",)) == expected

    def test_pooled_frames_are_not_pickled(self, corpus, monkeypatch):
        """Warm indexes pickle exactly as ones that never kept a frame.

        (The indexes, not the whole engine: the engine also records build
        timings, which differ between two builds.)"""
        _, queries = corpus
        framed = build(corpus)
        answers(framed, queries, cold=False)
        assert framed.index("rdil").disk.pooled_frames()
        framed_bytes = pickle.dumps(framed._indexes, protocol=pickle.HIGHEST_PROTOCOL)

        frameless(monkeypatch)
        plain = build(corpus)
        answers(plain, queries, cold=False)
        assert not plain.index("rdil").disk.pooled_frames()
        plain_bytes = pickle.dumps(plain._indexes, protocol=pickle.HIGHEST_PROTOCOL)
        assert plain_bytes == framed_bytes


def test_kept_frames_do_not_keep_a_dropped_index_alive():
    """No reference cycle through the pool: dropping the last reference
    to a probed HDIL tree and its disk frees them at once, not at the
    next cyclic collection (an engine's pages would linger until then)."""
    disk = SimulatedDisk(StorageParams(page_size=128))
    keys = [DeweyId((1, i)) for i in range(40)]
    list_file = ListFile.write(disk, [key.encode() for key in keys])
    page_index = [
        (keys[first], page_id)
        for page_id, first in zip(list_file.page_ids, list_file.page_boundaries)
    ]
    tree = BTree.build_over_pages(disk, page_index, list_page_frame, len(keys))
    assert tree.height > 1 and len(list_file.page_ids) > 1
    for key in keys:
        assert tree.ceiling(key)[0] == key
    assert disk.pooled_frames()
    alive = weakref.ref(disk)
    gc.disable()
    try:
        del tree, list_file, disk
        assert alive() is None
    finally:
        gc.enable()


def test_concurrent_queries_on_a_four_page_pool_return_sequential_answers(corpus):
    """Threads share one engine whose 4-page pool evicts frames mid-probe."""
    _, queries = corpus
    engine = build(corpus, pool_pages=4)
    expected = answers(engine, queries, kinds=("rdil", "hdil"), cold=False)
    mismatches = []
    errors = []

    def client(order):
        try:
            for _ in range(3):
                for query in order:
                    for kind in ("rdil", "hdil"):
                        hits = engine.search(query, m=10, kind=kind)
                        got = [(hit.dewey, hit.rank) for hit in hits]
                        if got != expected[kind, query]:
                            mismatches.append((kind, query))
        except Exception as exc:  # surfaced below
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=client, args=(queries[shift:] + queries[:shift],))
        for shift in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not mismatches
