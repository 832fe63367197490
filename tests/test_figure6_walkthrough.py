"""White-box replay of the paper's Figure 5/6 walkthrough.

Section 4.2.2 traces the DIL algorithm on the query 'XQL Ricardo' with the
inverted lists of Figure 4: the 'XQL' list holds Dewey IDs 5.0.3.0.0 and
6.0.3.8.3, the 'Ricardo' list holds 5.0.3.0.1.  The walkthrough's key
moments, asserted here against our merge:

* after reading 5.0.3.0.0 and 5.0.3.0.1, popping the non-matching entry
  copies its scaled rank/posList to the parent 5.0.3.0 (Figure 6(b));
* when 6.0.3.8.3 arrives with an empty common prefix, the stack drains and
  **5.0.3.0** — the paper's most-specific result — is emitted with both
  keywords' contributions (Figure 6(c));
* its ancestors (5.0.3, 5.0, 5) are *not* emitted (spurious-result
  suppression), and document 6's lone 'XQL' never produces a result.
"""

import pytest

from repro.config import RankingParams
from repro.index.postings import Posting
from repro.query.merge import conjunctive_merge
from repro.query.streams import PostingStream
from repro.xmlmodel.dewey import DeweyId


def dewey(text):
    return DeweyId.parse(text)


@pytest.fixture()
def figure4_lists():
    """The Figure 4 inverted lists, with illustrative ranks/positions."""
    xql_list = [
        Posting(dewey("5.0.3.0.0"), 0.40, (100,)),
        Posting(dewey("6.0.3.8.3"), 0.30, (900,)),
    ]
    ricardo_list = [
        Posting(dewey("5.0.3.0.1"), 0.20, (105,)),
    ]
    return xql_list, ricardo_list


def run_merge(xql_list, ricardo_list, params=None):
    params = params or RankingParams(decay=0.5, use_proximity=False)
    streams = [
        PostingStream(xql_list),
        PostingStream(ricardo_list),
    ]
    return list(conjunctive_merge(streams, params)), params


class TestWalkthrough:
    def test_single_result_is_the_paper_element(self, figure4_lists):
        results, _ = run_merge(*figure4_lists)
        assert [str(r.dewey) for r in results] == ["5.0.3.0"]

    def test_ancestors_suppressed(self, figure4_lists):
        results, _ = run_merge(*figure4_lists)
        emitted = {str(r.dewey) for r in results}
        for spurious in ("5.0.3", "5.0", "5"):
            assert spurious not in emitted

    def test_document_six_produces_nothing(self, figure4_lists):
        results, _ = run_merge(*figure4_lists)
        assert all(r.dewey.doc_id == 5 for r in results)

    def test_scaled_rank_propagation(self, figure4_lists):
        """Figure 6(b): the popped child's rank reaches the parent scaled
        by one decay step; the result's keyword ranks are exactly
        ElemRank(v_t) * decay for both title (XQL) and author (Ricardo)."""
        results, params = run_merge(*figure4_lists)
        result = results[0]
        assert result.keyword_ranks[0] == pytest.approx(0.40 * params.decay)
        assert result.keyword_ranks[1] == pytest.approx(0.20 * params.decay)
        assert result.rank == pytest.approx((0.40 + 0.20) * params.decay)

    def test_position_lists_merged_for_proximity(self, figure4_lists):
        """With proximity on, the merged posLists (100, 105) give the
        six-word window of the paper's two occurrences."""
        xql_list, ricardo_list = figure4_lists
        results, _ = run_merge(
            xql_list, ricardo_list, RankingParams(decay=0.5, use_proximity=True)
        )
        result = results[0]
        # window = 105 - 100 + 1 = 6, two keywords -> p = 2/6.
        expected = (0.40 + 0.20) * 0.5 * (2 / 6)
        assert result.rank == pytest.approx(expected)

    def test_containsall_blocks_upward_flow(self):
        """Figure 6(c)'s note: once 5.0.3.0 is a result, its rank and
        posLists are NOT copied to 5.0.3 — an independent occurrence pair
        elsewhere under 5.0.3 must not combine with the absorbed ones."""
        xql_list = [
            Posting(dewey("5.0.3.0.0"), 0.40, (100,)),
            Posting(dewey("5.0.3.5"), 0.10, (400,)),  # independent XQL
        ]
        ricardo_list = [
            Posting(dewey("5.0.3.0.1"), 0.20, (105,)),
        ]
        results, _ = run_merge(xql_list, ricardo_list)
        # Only 5.0.3.0 qualifies: 5.0.3's Ricardo witness sits inside the
        # result subtree, so the independent XQL at 5.0.3.5 is not enough.
        assert [str(r.dewey) for r in results] == ["5.0.3.0"]

    def test_independent_pair_does_extend_upward(self):
        """Counterpoint: an independent Ricardo occurrence under 5.0.3
        makes 5.0.3 a second result (the <paper> scenario of Section 2.2)."""
        xql_list = [
            Posting(dewey("5.0.3.0.0"), 0.40, (100,)),
            Posting(dewey("5.0.3.5"), 0.10, (400,)),
        ]
        ricardo_list = [
            Posting(dewey("5.0.3.0.1"), 0.20, (105,)),
            Posting(dewey("5.0.3.6"), 0.15, (450,)),
        ]
        results, _ = run_merge(xql_list, ricardo_list)
        assert {str(r.dewey) for r in results} == {"5.0.3.0", "5.0.3"}
