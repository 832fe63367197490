"""Corpus ingestion and sharding: how a corpus item becomes a document.

:func:`specs_from` is the one place a corpus item (a source string, a
``(source, uri)`` pair, a file path or a :class:`DocumentSpec`) becomes a
spec with its doc id and URI fixed, and :func:`parse_spec` is the one
place a spec becomes a parsed :class:`~repro.xmlmodel.nodes.Document`.
The sequential build, the parallel build, the CLI and the cluster all
ingest through these two functions, so they agree on every doc id — the
first Dewey component — and on every URI an XLink can name.

A shard plan must be (a) deterministic — same inputs, same plan, so
repeated builds are reproducible down to the spill files — and (b)
balanced, because the build's wall clock is the slowest shard.  Documents
are assigned by longest-processing-time-first over a cheap cost proxy
(source length / file size), which is within 4/3 of optimal makespan and
needs nothing but the spec list.

Correctness never depends on the plan: the build folds the blocks in the
graph's doc-id order, so *any* partition folds to the same result (that's
the point of making shard outputs order-independent).  The plan only
shapes load balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import BuildError
from ..xmlmodel.html import parse_html
from ..xmlmodel.nodes import Document
from ..xmlmodel.parser import parse_xml

#: File suffixes of the tolerant HTML front-end; every other file is XML.
HTML_SUFFIXES = frozenset({".html", ".htm"})
#: Suffixes a directory walk picks up as corpus files.
CORPUS_SUFFIXES = HTML_SUFFIXES | {".xml"}


@dataclass(frozen=True)
class DocumentSpec:
    """One document the build pipeline should ingest.

    Exactly one of ``source`` (raw XML/HTML text) or ``path`` (a file the
    worker reads itself, keeping file I/O inside the worker) is set.  The
    doc id is assigned *before* sharding, which is what makes Dewey IDs —
    and hence every downstream structure — independent of which worker
    parses the document.
    """

    doc_id: int
    uri: str = ""
    source: Optional[str] = None
    path: Optional[str] = None
    is_html: bool = False

    def __post_init__(self) -> None:
        if (self.source is None) == (self.path is None):
            raise BuildError(
                f"document spec {self.doc_id} needs exactly one of "
                "source and path"
            )

    def cost_estimate(self) -> int:
        """Proxy for parse+tokenize cost: source bytes (1 when unknown)."""
        if self.source is not None:
            return max(len(self.source), 1)
        try:
            return max(Path(self.path).stat().st_size, 1)
        except OSError:
            return 1


CorpusItem = Union[str, Tuple[str, str], Path, DocumentSpec]


def specs_from(
    items: Iterable[CorpusItem], start_doc_id: int = 0
) -> List[DocumentSpec]:
    """Turn corpus items into specs, in input order.

    * a :class:`DocumentSpec` keeps its doc id and URI;
    * a ``(source, uri)`` pair keeps its URI;
    * a :class:`~pathlib.Path` is read by the worker that parses it, has
      its file name as URI, and is HTML when its suffix says so;
    * a bare source string is XML with the URI ``""``.

    Items other than specs are numbered in order from ``start_doc_id``,
    skipping the ids the batch's own specs claim.  Ids are fixed here,
    before any sharding, so they never depend on worker scheduling.
    """
    items = list(items)
    claimed = {item.doc_id for item in items if isinstance(item, DocumentSpec)}
    next_id = start_doc_id
    specs: List[DocumentSpec] = []
    for item in items:
        if isinstance(item, DocumentSpec):
            specs.append(item)
            continue
        while next_id in claimed:
            next_id += 1
        if isinstance(item, Path):
            spec = DocumentSpec(
                doc_id=next_id,
                uri=item.name,
                path=str(item),
                is_html=item.suffix.lower() in HTML_SUFFIXES,
            )
        elif isinstance(item, tuple):
            source, uri = item
            spec = DocumentSpec(doc_id=next_id, uri=uri, source=source)
        else:
            spec = DocumentSpec(doc_id=next_id, source=item)
        specs.append(spec)
        next_id += 1
    return specs


def parse_spec(
    spec: DocumentSpec, word_table: Optional[Dict[str, str]] = None
) -> Document:
    """Parse one spec under its own doc id and URI.

    ``word_table`` shares words across the documents parsed with it (see
    :class:`~repro.text.tokenize.PositionCounter`).
    """
    source = spec.source
    if source is None:
        source = Path(spec.path).read_text(encoding="utf-8", errors="replace")
    parse = parse_html if spec.is_html else parse_xml
    return parse(
        source, doc_id=spec.doc_id, uri=spec.uri, word_table=word_table
    )


def shard_specs(
    specs: Sequence[DocumentSpec], num_shards: int
) -> List[List[DocumentSpec]]:
    """Partition specs into ``num_shards`` balanced, deterministic shards.

    LPT greedy: place each document, largest first, on the currently
    lightest shard (ties broken by shard index, sizes by doc id — both
    total orders, so the plan is a pure function of the input).  Within a
    shard, specs are re-sorted by doc id so every worker processes — and
    spills — its documents in ascending doc-id order, which keeps repeated
    builds reproducible down to the run files.
    """
    if num_shards < 1:
        raise BuildError(f"num_shards must be >= 1, got {num_shards}")
    num_shards = min(num_shards, max(len(specs), 1))
    shards: List[List[DocumentSpec]] = [[] for _ in range(num_shards)]
    if not specs:
        return shards
    by_size = sorted(
        specs, key=lambda spec: (-spec.cost_estimate(), spec.doc_id)
    )
    loads = [0] * num_shards
    for spec in by_size:
        lightest = min(range(num_shards), key=loads.__getitem__)
        shards[lightest].append(spec)
        loads[lightest] += spec.cost_estimate()
    for shard in shards:
        shard.sort(key=lambda spec: spec.doc_id)
    return [shard for shard in shards if shard] or [[]]
