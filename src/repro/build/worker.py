"""The per-shard worker of the parallel build pipeline.

Everything in this module runs inside a worker *process* (it must stay
importable and its task/result types picklable).  A worker receives one
shard of :class:`~repro.build.shard.DocumentSpec`s, parses and tokenizes
each document, extracts that document's posting skeletons, and returns the
parsed documents plus either the in-memory skeletons or — when a spill
directory is configured — the path of the run file it streamed them into
(see :mod:`repro.storage.runfile`); the parent reads such a run back onto
the result, so every result ends up holding its blocks.

Workers never see the link graph or ElemRank: scores are a global
computation the parent performs after the fold.  That separation is what
makes shard outputs pure functions of their own documents.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import BuildError, XMLParseError
from ..index.postings import RawPostingMap, extract_document_raw_postings
from ..storage.runfile import RunWriter
from ..xmlmodel.nodes import Document
from .shard import DocumentSpec, parse_spec

#: Fault-injection modes a fault plan's worker-crash site delivers: a
#: worker that dies without cleanup ("crash", exercising the
#: BrokenProcessPool path) or raises ("raise").
FAULT_CRASH = "crash"
FAULT_RAISE = "raise"


@dataclass
class ShardTask:
    """One worker's unit of work: parse + extract a shard of specs."""

    shard_id: int
    specs: List[DocumentSpec]
    spill_dir: Optional[str] = None
    on_parse_error: str = "raise"
    fault: Optional[str] = None


@dataclass
class ShardResult:
    """What a worker sends back to the parent."""

    shard_id: int
    documents: List[Document] = field(default_factory=list)
    #: (doc_id, raw postings) per document, ascending doc id — filled by
    #: the parent from the run file when the shard spilled.
    raw_postings: List[Tuple[int, RawPostingMap]] = field(default_factory=list)
    #: Run file holding the postings instead, when spilling.
    run_path: Optional[str] = None
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    parse_seconds: float = 0.0
    extract_seconds: float = 0.0
    spilled_bytes: int = 0


def process_shard(task: ShardTask) -> ShardResult:
    """Parse, tokenize and extract one shard (worker-process entry point)."""
    if task.fault == FAULT_CRASH:
        # Simulated hard death (OOM-kill / segfault stand-in): no Python
        # teardown, no result — the parent must turn the broken pool into
        # a clean BuildError instead of hanging.
        os._exit(13)
    if task.fault == FAULT_RAISE:
        raise BuildError(f"injected failure in shard {task.shard_id}")

    result = ShardResult(shard_id=task.shard_id)
    # The shard's documents share one string per distinct word; the table
    # lives as long as this shard's parse.
    word_table: Dict[str, str] = {}
    writer: Optional[RunWriter] = None
    if task.spill_dir is not None:
        run_path = Path(task.spill_dir) / f"shard-{task.shard_id:04d}.run"
        writer = RunWriter(run_path)
        result.run_path = str(run_path)
    try:
        for spec in task.specs:
            started = time.perf_counter()
            try:
                document = parse_spec(spec, word_table)
            except XMLParseError as exc:
                label = spec.uri or spec.path or f"doc {spec.doc_id}"
                if task.on_parse_error == "skip":
                    result.skipped.append((label, str(exc)))
                    continue
                raise BuildError(
                    f"shard {task.shard_id}: cannot parse {label!r}: {exc}"
                ) from exc
            parsed = time.perf_counter()
            raw = extract_document_raw_postings(document)
            result.extract_seconds += time.perf_counter() - parsed
            result.parse_seconds += parsed - started
            result.documents.append(document)
            if writer is not None:
                writer.append(document.doc_id, raw)
            else:
                result.raw_postings.append((document.doc_id, raw))
    finally:
        if writer is not None:
            writer.close()
            result.spilled_bytes = writer.bytes_written
    return result
