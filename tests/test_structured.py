"""Tests for path-constrained search (structured-query integration)."""

import random

import pytest

from repro.engine import XRankEngine
from repro.errors import QueryError
from repro.query.answer_nodes import AnswerNodeFilter
from repro.query.structured import PathFilter, parse_path_pattern, _matches
from repro.xmlmodel.dewey import DeweyId

from conftest import VOCAB, random_graph, reference_results


class TestPatternParsing:
    def test_simple(self):
        assert parse_path_pattern("a/b") == ["a", "b"]

    def test_anchored(self):
        assert parse_path_pattern("/a/b") == ["", "a", "b"]

    def test_descendant_axis(self):
        assert parse_path_pattern("a//b") == ["a", "//", "b"]
        # A leading '//' is the default suffix semantics, so it is elided.
        assert parse_path_pattern("//b") == ["b"]

    def test_wildcard(self):
        assert parse_path_pattern("a/*/c") == ["a", "*", "c"]

    @pytest.mark.parametrize(
        "pattern",
        ["", "/", "a///b", "a//", "//", "a/b c/d", "paper/ti*", "*tle"],
    )
    def test_malformed(self, pattern):
        with pytest.raises(QueryError):
            parse_path_pattern(pattern)


class TestMatching:
    @pytest.mark.parametrize(
        ("tags", "pattern", "expected"),
        [
            (["w", "p", "title"], "p/title", True),
            (["w", "p", "title"], "title", True),
            (["w", "p", "title"], "w/title", False),
            (["w", "p", "title"], "w//title", True),
            (["w", "p", "title"], "/w/p/title", True),
            (["w", "p", "title"], "/p/title", False),
            (["w", "p", "title"], "w/*/title", True),
            (["w", "p", "s", "title"], "w/*/title", False),
            (["w", "p", "s", "title"], "w//title", True),
            (["a", "b", "a", "b"], "a/b", True),
            (["a"], "//a", True),
            (["x", "y"], "z", False),
        ],
    )
    def test_match_table(self, tags, pattern, expected):
        assert _matches(tags, parse_path_pattern(pattern)) is expected


WORKSHOP = (
    "<workshop>"
    "<title>xml search workshop</title>"
    "<paper><title>xml search paper</title>"
    "<body><section>xml search body text</section></body></paper>"
    "</workshop>"
)

#: Every index kind, and ``mode="or"`` on the Dewey-ordered kinds, except
#: the ("dil", "and") default that TestEngineIntegration runs itself.
OTHER_SETTINGS = [
    ("rdil", "and"),
    ("hdil", "and"),
    ("naive-id", "and"),
    ("naive-rank", "and"),
    ("dil-incremental", "and"),
    ("dil", "or"),
    ("hdil", "or"),
]


class TestEngineIntegration:
    """Path-filtered search through the engine on the DIL index;
    :class:`TestEngineIntegrationEveryKind` reruns it on every setting."""

    @pytest.fixture(autouse=True)
    def setting(self):
        self.kind, self.mode = "dil", "and"

    def built(self, source):
        engine = XRankEngine()
        engine.add_xml(source)
        engine.build(kinds=[self.kind])
        return engine

    def search(self, engine, query, **kwargs):
        return engine.search(query, kind=self.kind, mode=self.mode, **kwargs)

    @pytest.fixture()
    def engine(self, setting):
        return self.built(WORKSHOP)

    def test_path_restricts_results(self, engine):
        unrestricted = self.search(engine, "xml search", m=10)
        assert len(unrestricted) >= 3
        titles_only = self.search(engine, "xml search", m=10, path="paper/title")
        assert len(titles_only) == 1
        assert titles_only[0].path == "workshop/paper/title"

    def test_descendant_axis_path(self, engine):
        hits = self.search(engine, "xml search", m=10, path="paper//section")
        assert [h.tag for h in hits] == ["section"]

    def test_anchored_path(self, engine):
        hits = self.search(engine, "xml search", m=10, path="/workshop/title")
        assert [h.path for h in hits] == ["workshop/title"]

    def test_order_preserved(self, engine):
        unrestricted = self.search(engine, "xml search", m=10)
        filtered = self.search(engine, "xml search", m=10, path="//title")
        filtered_deweys = [h.dewey for h in filtered]
        expected = [h.dewey for h in unrestricted if h.tag == "title"]
        assert filtered_deweys == expected

    def test_overfetch_finds_lowranked_matches(self, setting):
        """A selective path whose matches rank below the top-m must still
        surface: the path gates the evaluator's top-m heap, so the heap
        keeps the best *matching* results however low they rank."""
        docs = "".join(
            f"<entry><title>needle {i}</title></entry>" for i in range(20)
        )
        e = self.built(
            f"<root><special><title>needle special</title></special>{docs}</root>"
        )
        hits = self.search(e, "needle", m=1, path="special/title")
        assert len(hits) == 1
        assert hits[0].path.endswith("special/title")

    def test_no_matches(self, engine):
        assert self.search(engine, "xml search", path="nosuchtag") == []

    def test_bad_pattern_raises(self, engine):
        with pytest.raises(QueryError):
            self.search(engine, "xml", path="//")

    def test_one_evaluation_per_search(self, engine, monkeypatch):
        if self.mode == "or":
            evaluator = engine._disjunctive_evaluator(self.kind)
        else:
            evaluator = engine.evaluator(self.kind)
        calls = []
        evaluate = evaluator.evaluate

        def spy(*args, **kwargs):
            calls.append(kwargs["m"])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(evaluator, "evaluate", spy)
        self.search(engine, "xml search", m=1, offset=1, path="nosuchtag")
        assert calls == [2]


class TestEngineIntegrationEveryKind(TestEngineIntegration):
    @pytest.fixture(autouse=True, params=OTHER_SETTINGS, ids="-".join)
    def setting(self, request):
        self.kind, self.mode = request.param


@pytest.mark.parametrize("kind", ["naive-id", "naive-rank"])
def test_naive_hits_survive_path_and_answer_filters(kind):
    """Naive results carry a flat element id, not a Dewey ID; both
    filters must resolve it instead of dropping every naive hit."""
    source = (
        "<dblp><paper><title>xml search</title><author>ann</author></paper>"
        "<paper><title>xml ranking</title><note>search</note></paper></dblp>"
    )
    plain = XRankEngine()
    plain.add_xml(source)
    plain.build(kinds=[kind])
    hits = plain.search("xml search", kind=kind, path="paper/title")
    assert [h.path for h in hits] == ["dblp/paper/title"]

    filtered = XRankEngine(answer_filter=AnswerNodeFilter(answer_tags={"paper"}))
    filtered.add_xml(source)
    filtered.build(kinds=[kind])
    hits = filtered.search("xml search", kind=kind)
    assert hits and {h.tag for h in hits} == {"paper"}


#: Pattern shapes over conftest.TAGS: child, descendant, anchored, wildcard.
PATTERNS = ["a", "b", "c", "d", "c/d", "a//b", "/a/*", "*/c", "b/*/a", "//d"]
PROPERTY_SETTINGS = [
    ("dil", "and"),
    ("rdil", "and"),
    ("hdil", "and"),
    ("dil-incremental", "and"),
    ("dil", "or"),
    ("hdil", "or"),
]


def test_path_search_is_the_filtered_full_list():
    """``search(path=p, m=k)`` is the full result list filtered by ``p``
    and cut to ``[:k]`` — exact ``(dewey, rank)`` on every Dewey-family
    kind — and its ranks are the Section 2.2 reference's, filtered alike."""
    cut = 0  # queries where more results match than m: the heap gate decides
    for seed in range(6):
        rng = random.Random(seed)
        engine = XRankEngine()
        for document in random_graph(rng, 10, 5).iter_documents():
            engine.add_document(document)
        engine.build(kinds=sorted({kind for kind, _ in PROPERTY_SETTINGS}))
        for _ in range(8):
            cut += _check_path_query(engine, rng)
    assert cut >= 5


def _check_path_query(engine, rng) -> bool:
    """One random path query checked on every setting; True when more
    results match than the ``m`` it asked for."""
    keywords = rng.sample(VOCAB, rng.choice([1, 2]))
    query = " ".join(keywords)
    pattern = rng.choice(PATTERNS)
    steps = parse_path_pattern(pattern)
    m = rng.choice([1, 2, 3])
    for kind, mode in PROPERTY_SETTINGS:
        full = engine.search(query, m=100_000, kind=kind, mode=mode)
        matching = [
            (h.dewey, h.rank) for h in full if _matches(h.path.split("/"), steps)
        ]
        got = engine.search(query, m=m, kind=kind, mode=mode, path=pattern)
        assert [(h.dewey, h.rank) for h in got] == matching[:m], (
            kind, mode, query, pattern, m,
        )

    reference = reference_results(engine.graph, keywords, engine.builder.elemranks)
    path_filter = PathFilter(pattern)
    ranks = sorted(
        (
            rank
            for components, rank in reference.items()
            if path_filter.matches_element(
                engine.graph.element_by_dewey(DeweyId(components))
            )
        ),
        reverse=True,
    )
    got = engine.search(query, m=m, kind="dil", path=pattern)
    assert len(got) == len(ranks[:m])
    for hit, rank in zip(got, ranks):
        assert abs(hit.rank - rank) < max(1e-4 * abs(rank), 1e-10)
        exact = reference[DeweyId.parse(hit.dewey).components]
        assert abs(exact - hit.rank) < max(1e-4 * abs(exact), 1e-10)
    return len(ranks) > m
