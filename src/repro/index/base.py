"""Shared machinery for the five index flavours (paper Sections 4.1-4.4).

Every index owns one :class:`SimulatedDisk`, reports its space usage for
Table 1 through :meth:`space_report`, and supports document-granularity
deletion by tombstoning (Section 4.5: document-level updates work "exactly
like in traditional inverted lists"; the first Dewey component is the
document id, "which can be used for deletion").  Query processors filter
tombstoned documents on the fly; :meth:`vacuum_needed` reports when a
rebuild would reclaim space.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Optional, Set

from ..config import StorageParams
from ..errors import IndexNotBuiltError
from ..storage.disk import SimulatedDisk
from .postings import PostingMap


@dataclass
class SpaceReport:
    """Table 1 row fragment: space in bytes for one index on one corpus."""

    kind: str
    inverted_list_bytes: int
    index_bytes: Optional[int]  # None renders as the paper's "N/A"
    num_keywords: int
    num_postings: int

    @property
    def total_bytes(self) -> int:
        return self.inverted_list_bytes + (self.index_bytes or 0)

    def format_row(self) -> str:
        """One Table 1 row as aligned text."""
        index_part = (
            "N/A" if self.index_bytes is None else _human_bytes(self.index_bytes)
        )
        return (
            f"{self.kind:<12} {_human_bytes(self.inverted_list_bytes):>10} "
            f"{index_part:>10}"
        )


def _human_bytes(count: int) -> str:
    if count >= 1 << 20:
        return f"{count / (1 << 20):.1f}MB"
    if count >= 1 << 10:
        return f"{count / (1 << 10):.1f}KB"
    return f"{count}B"


class KeywordIndex(ABC):
    """Base class: a keyword -> inverted list mapping on a simulated disk."""

    #: short identifier used in reports ("dil", "rdil", ...).
    kind: str = "abstract"

    def __init__(
        self,
        storage_params: Optional[StorageParams] = None,
        disk: Optional[SimulatedDisk] = None,
    ):
        # An incremental index's delta is built on its main index's disk.
        self.disk = disk or SimulatedDisk(storage_params)
        self.built = False
        self.deleted_docs: Set[int] = set()
        self._num_postings = 0

    # -- construction ------------------------------------------------------------

    @abstractmethod
    def build(self, postings: PostingMap) -> None:
        """Bulk-build from per-keyword posting lists sorted by Dewey ID."""

    def _mark_built(self, postings: PostingMap) -> None:
        self.built = True
        self._num_postings = sum(len(lst) for lst in postings.values())

    def _require_built(self) -> None:
        if not self.built:
            raise IndexNotBuiltError(f"{self.kind} index has not been built")

    # -- keyword surface ------------------------------------------------------------

    @abstractmethod
    def keywords(self) -> Iterable[str]:
        """All indexed keywords."""

    @abstractmethod
    def has_keyword(self, keyword: str) -> bool:
        """True when the keyword has a (possibly empty) inverted list."""

    @abstractmethod
    def list_length(self, keyword: str) -> int:
        """Number of postings in the keyword's inverted list (0 if absent)."""

    # -- updates -----------------------------------------------------------------------

    def delete_document(self, doc_id: int) -> None:
        """Tombstone a document; its postings are skipped at query time."""
        self._require_built()
        self.deleted_docs.add(doc_id)

    def is_live(self, doc_id: int) -> bool:
        """True unless the document is tombstoned."""
        return doc_id not in self.deleted_docs

    def vacuum_needed(self, threshold: float = 0.25) -> bool:
        """Heuristic: rebuild once a quarter of the corpus is tombstoned."""
        if not self.deleted_docs or self._num_postings == 0:
            return False
        return len(self.deleted_docs) / max(1, self._num_postings) > threshold

    # -- accounting ---------------------------------------------------------------------

    @property
    @abstractmethod
    def inverted_list_bytes(self) -> int:
        """Exact bytes of the inverted-list file(s)."""

    @property
    @abstractmethod
    def index_bytes(self) -> Optional[int]:
        """Bytes of auxiliary structures (B+-trees, hash indexes); None = N/A."""

    def space_report(self) -> SpaceReport:
        """Space usage summary for Table 1."""
        self._require_built()
        return SpaceReport(
            kind=self.kind,
            inverted_list_bytes=self.inverted_list_bytes,
            index_bytes=self.index_bytes,
            num_keywords=sum(1 for _ in self.keywords()),
            num_postings=self._num_postings,
        )

    # -- measurement helpers ---------------------------------------------------------------

    def reset_measurement(self, cold_cache: bool = True) -> None:
        """Prepare for one measured query (paper default: cold OS cache)."""
        self.disk.reset_stats()
        if cold_cache:
            self.disk.drop_cache()

    def io_cost_ms(self) -> float:
        """Simulated elapsed milliseconds since the last reset."""
        return self.disk.stats.cost_ms(self.disk.params)
