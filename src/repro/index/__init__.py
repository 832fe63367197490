"""The XRANK index family: Naive-ID, Naive-Rank, DIL, RDIL and HDIL
(paper Sections 4.1-4.4), plus the shared build pipeline."""

from .base import KeywordIndex, SpaceReport
from .builder import IndexBuilder
from .dil import DILIndex
from .hdil import HDILIndex, decode_list_page
from .naive import (
    NaiveIdIndex,
    NaivePosting,
    NaiveRankIndex,
    expand_naive_postings,
)
from .postings import (
    Posting,
    PostingMap,
    extract_direct_postings,
    rank_order,
)
from .rdil import RDILIndex

__all__ = [
    "DILIndex",
    "HDILIndex",
    "IndexBuilder",
    "KeywordIndex",
    "NaiveIdIndex",
    "NaivePosting",
    "NaiveRankIndex",
    "Posting",
    "PostingMap",
    "RDILIndex",
    "SpaceReport",
    "decode_list_page",
    "expand_naive_postings",
    "extract_direct_postings",
    "rank_order",
]
