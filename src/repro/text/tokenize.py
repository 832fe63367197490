"""Word tokenization and normalization for indexing and querying.

Both the index builder and the query parser must agree on what a "word" is,
so they share this module.  The rules are deliberately simple, matching what
a 2003-era search engine would do:

* words are maximal runs of letters and digits (Unicode-aware),
* everything is lower-cased,
* a small English stopword list can optionally be applied (off by default —
  the paper's example queries include words like "author" that a stopword
  list must not eat, and XRANK indexes tag names as values).
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Word = letters/digits (Unicode-aware, underscore excluded), optionally one
# apostrophe-joined suffix ("don't").
_WORD_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)?", re.UNICODE)

#: A conservative stopword list; applied only when explicitly requested.
STOPWORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on that the
    to was were will with""".split()
)


def words(text: str) -> List[str]:
    """Extract normalized words from ``text``, in order."""
    return [match.group(0).lower() for match in _WORD_RE.finditer(text)]


def iter_words(text: str) -> Iterator[str]:
    """Lazy version of :func:`words`."""
    for match in _WORD_RE.finditer(text):
        yield match.group(0).lower()


def remove_stopwords(tokens: Sequence[str]) -> List[str]:
    """Filter ``tokens`` against :data:`STOPWORDS`."""
    return [token for token in tokens if token not in STOPWORDS]


def tokenize_query(query: str, drop_stopwords: bool = False) -> List[str]:
    """Normalize a keyword query string into a list of distinct keywords.

    Duplicates are removed while preserving first-seen order, since
    conjunctive semantics make repeated keywords redundant.
    """
    seen = set()
    keywords: List[str] = []
    tokens = words(query)
    if drop_stopwords:
        tokens = remove_stopwords(tokens)
    for token in tokens:
        if token not in seen:
            seen.add(token)
            keywords.append(token)
    return keywords


class PositionCounter:
    """Assigns consecutive global word positions within one document.

    The parser threads one counter through a whole document so that word
    positions are comparable across elements — the property the
    smallest-window proximity measure relies on.

    Each word is stored as the one string object ``word_table`` holds for
    it, so equal words of every document parsed with one table are one
    object.  A graph keeps a table for the documents added to it and a
    build shard one for the documents it parses (see DESIGN.md, "What a
    built engine keeps"); without a table, words are shared within the
    document.
    """

    __slots__ = ("_next", "_words")

    def __init__(
        self, start: int = 0, word_table: Optional[Dict[str, str]] = None
    ):
        self._next = start
        self._words = {} if word_table is None else word_table

    @property
    def position(self) -> int:
        return self._next

    def take(self, count: int = 1) -> int:
        """Reserve ``count`` positions; returns the first one."""
        first = self._next
        self._next += count
        return first

    def assign(self, tokens: Sequence[str]) -> List[Tuple[str, int]]:
        """Pair each token, as its shared word, with the next position."""
        first = self.take(len(tokens))
        share = self._words.setdefault
        return [
            (share(token, token), first + i) for i, token in enumerate(tokens)
        ]
