"""Tests for the parallel sharded build pipeline (repro.build).

The contract under test is *byte identity*: for any shard count and any
worker count, the parallel pipeline must produce exactly the index pages,
ElemRank vector and search results of the sequential build.  Alongside
identity: LPT shard balancing, the spill path, worker-crash containment,
and parse-error policy.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.build.merge import merge_shard_results
from repro.build.pipeline import build_corpus
from repro.build.shard import DocumentSpec, shard_specs, specs_from
from repro.build.verify import compare_engines, default_probe_queries
from repro.build.worker import ShardTask, process_shard
from repro.engine import XRankEngine
from repro.cluster.verify import single_node_oracle
from repro.datasets.dblp import generate_dblp
from repro.errors import BuildError, QueryError
from repro.faults import SITE_WORKER_CRASH, FaultPlan, FaultSpec
from repro.xmlmodel.parser import parse_xml

#: A small corpus with cross-document hyperlinks (ElemRank edges), shared
#: keywords (multi-document posting lists) and varied sizes (LPT has
#: something to balance).
CORPUS = [
    (
        '<workshop xmlns:xlink="http://www.w3.org/1999/xlink">'
        "<title>XML Retrieval Workshop</title>"
        "<paper><title>Ranked Keyword Search</title>"
        "<body>ranked keyword search over xml element trees needs "
        "inverted lists and dewey identifiers</body>"
        '<cite xlink:href="survey.xml"/></paper></workshop>',
        "workshop.xml",
    ),
    (
        "<survey><title>Query Languages Survey</title>"
        "<chapter>the xql language and pattern matching over trees</chapter>"
        "<chapter>ranked retrieval and keyword proximity</chapter></survey>",
        "survey.xml",
    ),
    (
        '<notes xmlns:xlink="http://www.w3.org/1999/xlink">'
        "<note>reading the workshop paper on keyword search</note>"
        '<ref xlink:href="workshop.xml"/></notes>',
        "notes.xml",
    ),
    (
        "<glossary><entry>dewey identifiers encode element ancestry"
        "</entry><entry>inverted lists map keyword to element</entry>"
        "</glossary>",
        "glossary.xml",
    ),
    (
        "<memo><line>xml search</line></memo>",
        "memo.xml",
    ),
]


def _engine(workers: int, spill_dir=None) -> XRankEngine:
    engine = XRankEngine()
    engine.build(
        kinds=["hdil"], corpus=list(CORPUS), workers=workers,
        spill_dir=spill_dir,
    )
    return engine


class TestShardSpecs:
    def _specs(self, costs):
        return [
            DocumentSpec(doc_id=i, uri=f"d{i}", source="x" * cost)
            for i, cost in enumerate(costs)
        ]

    def test_deterministic_and_complete(self):
        specs = self._specs([50, 10, 40, 10, 30, 20])
        first = shard_specs(specs, 3)
        second = shard_specs(specs, 3)
        assert first == second
        covered = sorted(spec.doc_id for shard in first for spec in shard)
        assert covered == [0, 1, 2, 3, 4, 5]

    def test_shards_sorted_by_doc_id_internally(self):
        specs = self._specs([50, 10, 40, 10, 30, 20])
        for shard in shard_specs(specs, 3):
            doc_ids = [spec.doc_id for spec in shard]
            assert doc_ids == sorted(doc_ids)

    def test_lpt_balances_by_cost(self):
        # One huge document must not drag neighbours onto its shard.
        specs = self._specs([1000, 10, 10, 10])
        shards = shard_specs(specs, 2)
        loads = sorted(
            sum(spec.cost_estimate() for spec in shard) for shard in shards
        )
        assert loads == [30, 1000]

    def test_more_shards_than_specs_drops_empties(self):
        shards = shard_specs(self._specs([5, 5]), 8)
        assert len(shards) == 2
        assert all(shard for shard in shards)


class TestParallelIdentity:
    @pytest.fixture(scope="class")
    def sequential(self):
        return _engine(workers=1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_match_sequential(self, sequential, workers):
        parallel = _engine(workers=workers)
        queries = default_probe_queries(sequential, count=3)
        assert compare_engines(sequential, parallel, queries=queries) == []

    def test_ci_matrix_worker_count(self, sequential):
        """Honors the CI matrix's worker-count dimension when present."""
        workers = int(os.environ.get("REPRO_BUILD_WORKERS", "2"))
        parallel = _engine(workers=max(workers, 1))
        queries = default_probe_queries(sequential, count=3)
        assert compare_engines(sequential, parallel, queries=queries) == []

    def test_spill_path_matches_in_memory(self, sequential, tmp_path):
        spilled = _engine(workers=2, spill_dir=str(tmp_path))
        queries = default_probe_queries(sequential, count=3)
        assert compare_engines(sequential, spilled, queries=queries) == []
        # The private run directory is cleaned up after the merge.
        assert list(tmp_path.iterdir()) == []

    def test_build_stats_recorded(self):
        engine = _engine(workers=2)
        stats = engine.last_build_stats
        assert stats is not None
        assert stats.workers == 2
        assert stats.documents == len(CORPUS)
        assert stats.shards >= 2

    def test_parsed_documents_are_extracted_in_process(self, monkeypatch):
        kinds = ["dil", "rdil", "hdil"]
        reference = XRankEngine()
        reference.build(
            kinds=kinds, corpus=generate_dblp(num_papers=20, seed=3)
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for parsed documents")

        monkeypatch.setattr(
            "repro.build.pipeline.ProcessPoolExecutor", no_pool
        )
        engine = XRankEngine()
        engine.build(
            kinds=kinds, corpus=generate_dblp(num_papers=20, seed=3),
            workers=2,
        )
        assert engine.last_build_stats is None
        for kind in kinds:
            assert engine.index(kind).disk.pages == (
                reference.index(kind).disk.pages
            ), kind


class TestIdentityGate:
    """``compare_engines`` reports a difference in any built page."""

    def test_flipped_byte_in_one_list_page(self):
        reference, damaged = _engine(workers=1), _engine(workers=1)
        assert compare_engines(reference, damaged) == []
        disk = damaged.index("hdil").disk
        page_id = next(
            page_id
            for page_id in range(disk.num_pages)
            if disk.owner_of(page_id).startswith("hdil:")
        )
        page = bytearray(disk.pages[page_id])
        page[len(page) // 2] ^= 0x01
        disk.pages[page_id] = bytes(page)
        assert compare_engines(reference, damaged) == [
            f"hdil: page {page_id} ({disk.owner_of(page_id)}) differs"
        ]

    def test_shard_merge_that_swaps_two_documents(self, monkeypatch):
        from repro.build import merge

        reference = _engine(workers=1)
        in_order = merge.merge_block_streams

        def swapped(streams):
            blocks = list(in_order(streams))
            blocks[0], blocks[1] = blocks[1], blocks[0]
            return iter(blocks)

        monkeypatch.setattr(merge, "merge_block_streams", swapped)
        problems = compare_engines(reference, _engine(workers=2))
        assert problems and problems[0].startswith("hdil: page")


class TestFaults:
    def _specs(self):
        return specs_from(list(CORPUS))

    def _crash_every_attempt(self):
        return FaultPlan(0, [FaultSpec(SITE_WORKER_CRASH, 1.0)])

    def test_worker_crash_surfaces_build_error(self):
        # A worker dying mid-shard (os._exit) breaks the pool; the parent
        # must convert that into BuildError instead of hanging.
        with pytest.raises(BuildError, match="worker process died"):
            build_corpus(
                self._specs(), workers=2,
                fault_plan=self._crash_every_attempt(),
            )

    def test_worker_exception_surfaces_build_error(self):
        # Inline, the injected crash degrades to a raise.
        with pytest.raises(BuildError, match="injected failure"):
            build_corpus(
                self._specs(), workers=1,
                fault_plan=self._crash_every_attempt(),
            )

    def test_parse_error_raise_policy(self):
        specs = specs_from(["<broken", *[s for s, _ in CORPUS]])
        with pytest.raises(BuildError, match="cannot parse"):
            build_corpus(specs, workers=2)

    def test_parse_error_skip_policy(self):
        sources = [CORPUS[0], ("<broken", "broken.xml"), CORPUS[1]]
        result = build_corpus(
            specs_from(sources), workers=2, on_parse_error="skip"
        )
        assert [doc.uri for doc in result.documents] == [
            "workshop.xml",
            "survey.xml",
        ]
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == "broken.xml"


class TestOneIngestionPath:
    """Every corpus item form goes through ``specs_from``/``parse_spec``."""

    #: Bare strings carry no URI, so only a corpus without XLinks means
    #: the same thing in every input form.
    LINK_FREE = [(s, uri) for s, uri in CORPUS if "xlink" not in s]

    def _forms(self, directory):
        for source, uri in self.LINK_FREE:
            (directory / uri).write_text(source, encoding="utf-8")
        return {
            "strings": [source for source, _ in self.LINK_FREE],
            "pairs": list(self.LINK_FREE),
            "source specs": [
                DocumentSpec(doc_id=i, uri=uri, source=source)
                for i, (source, uri) in enumerate(self.LINK_FREE)
            ],
            "path specs": [
                DocumentSpec(doc_id=i, uri=uri, path=str(directory / uri))
                for i, (_, uri) in enumerate(self.LINK_FREE)
            ],
            "paths": [directory / uri for _, uri in self.LINK_FREE],
        }

    def test_every_input_form_builds_identical_bytes(self, tmp_path):
        reference = None
        for form, corpus in self._forms(tmp_path).items():
            for workers in (1, 2):
                engine = XRankEngine()
                engine.build(kinds=["dil"], corpus=corpus, workers=workers)
                built = (
                    engine.index("dil").disk.pages,
                    engine.builder.elemranks,
                )
                if reference is None:
                    reference = built
                assert built == reference, (form, workers)

    def test_spec_doc_ids_are_kept(self):
        specs = [
            DocumentSpec(doc_id=5, source="<a><t>kept</t></a>"),
            DocumentSpec(doc_id=9, source="<b><t>kept</t></b>"),
        ]
        engine = XRankEngine()
        engine.build(kinds=["dil"], corpus=specs)
        assert set(engine.graph.documents) == {5, 9}
        hits = engine.search("kept", m=10, kind="dil")
        assert sorted(hit.dewey for hit in hits) == ["5.0", "9.0"]
        oracle = single_node_oracle(specs, kinds=("dil",))
        assert [
            (hit.dewey, hit.rank) for hit in hits
        ] == [
            (hit["dewey"], hit["rank"])
            for hit in oracle.search("kept", m=10, kind="dil").to_dict()[
                "results"
            ]
        ]

    @pytest.mark.parametrize(
        "corpus",
        [
            [DocumentSpec(doc_id=5, source="<c><t>clash</t></c>")],
            [
                DocumentSpec(doc_id=7, source="<c><t>one</t></c>"),
                DocumentSpec(doc_id=7, source="<d><t>two</t></d>"),
            ],
        ],
        ids=["taken", "repeated"],
    )
    def test_colliding_doc_id_is_rejected_before_parsing(self, corpus):
        engine = XRankEngine()
        engine.build(
            kinds=["dil"],
            corpus=[DocumentSpec(doc_id=5, source="<a><t>kept</t></a>")],
        )
        before = dict(engine.graph.documents)
        with pytest.raises(QueryError):
            engine.build(kinds=["dil"], corpus=corpus + ["<broken"])
        assert engine.graph.documents == before

    @pytest.mark.parametrize(
        "corpus, on_parse_error, error",
        [
            (["<broken"], "raise", BuildError),
            (["<c><t>new</t></c>"], "bogus", QueryError),
            ([], "bogus", QueryError),
        ],
        ids=["parse-error", "bad-policy", "bad-policy-parsed-only"],
    )
    def test_failed_build_leaves_the_engine_as_it_was(
        self, corpus, on_parse_error, error
    ):
        engine = XRankEngine()
        engine.build(kinds=["dil"], corpus=["<a><t>kept</t></a>"])
        before = (
            dict(engine.graph.documents),
            engine._next_doc_id,
            engine.generation,
            engine.index("dil"),
        )
        answer = [hit.dewey for hit in engine.search("kept", kind="dil")]
        with pytest.raises(error):
            engine.build(
                kinds=["dil"],
                corpus=[parse_xml("<b>new</b>", doc_id=7), *corpus],
                on_parse_error=on_parse_error,
            )
        assert (
            dict(engine.graph.documents),
            engine._next_doc_id,
            engine.generation,
            engine.index("dil"),
        ) == before
        assert [
            hit.dewey for hit in engine.search("kept", kind="dil")
        ] == answer
        engine.build(
            kinds=["dil"],
            corpus=[parse_xml("<b>new</b>", doc_id=7), "<c><t>new</t></c>"],
        )
        assert sorted(engine.graph.documents) == [0, 7, 8]
        assert len(engine.search("new", m=10, kind="dil")) == 2

    def test_items_are_numbered_around_claimed_ids(self):
        specs = specs_from(
            ["<a/>", DocumentSpec(doc_id=1, source="<b/>"), "<c/>"]
        )
        assert [spec.doc_id for spec in specs] == [0, 1, 2]
        assert [spec.uri for spec in specs] == ["", "", ""]

    def test_spec_needs_exactly_one_of_source_and_path(self):
        with pytest.raises(BuildError):
            DocumentSpec(doc_id=0)
        with pytest.raises(BuildError):
            DocumentSpec(doc_id=0, source="<a/>", path="a.xml")


# -- property-based determinism ----------------------------------------------------

_WORDS = st.sampled_from(
    "ranked keyword search xml element tree dewey list query language "
    "proximity index workshop survey".split()
)
_DOC = st.lists(_WORDS, min_size=1, max_size=12)
_CORPUS_STRATEGY = st.lists(_DOC, min_size=1, max_size=8)


def _to_sources(word_lists):
    return [
        (
            "<doc><body>" + " ".join(words) + "</body></doc>",
            f"doc{i}.xml",
        )
        for i, words in enumerate(word_lists)
    ]


class TestShardMergeProperty:
    @given(word_lists=_CORPUS_STRATEGY, num_shards=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_any_sharding_merges_to_sequential_order(
        self, word_lists, num_shards
    ):
        """Shard+merge is a pure function of the corpus, not the sharding.

        Runs the real worker entry point in-process per shard (no pool —
        that keeps hypothesis fast) and checks the merged posting map is
        exactly the one-shard result: same keywords, same insertion order,
        same skeletons.
        """
        specs = specs_from(_to_sources(word_lists))
        reference = merge_shard_results(
            [process_shard(ShardTask(shard_id=0, specs=list(specs)))]
        )
        shards = shard_specs(list(specs), num_shards)
        results = [
            process_shard(ShardTask(shard_id=i, specs=shard))
            for i, shard in enumerate(shards)
        ]
        merged = merge_shard_results(results)
        assert list(merged) == list(reference)
        assert merged == reference

    @pytest.mark.slow
    @given(word_lists=_CORPUS_STRATEGY, workers=st.integers(2, 4))
    @settings(max_examples=5, deadline=None)
    def test_full_engine_identity_with_real_processes(
        self, word_lists, workers
    ):
        """End-to-end identity with actual worker processes (slow lane)."""
        sources = _to_sources(word_lists)
        sequential = XRankEngine()
        sequential.build(kinds=["hdil"], corpus=list(sources), workers=1)
        parallel = XRankEngine()
        parallel.build(kinds=["hdil"], corpus=list(sources), workers=workers)
        queries = default_probe_queries(sequential, count=3)
        assert compare_engines(sequential, parallel, queries=queries) == []
