"""Parallel sharded index construction (the repro.build subsystem).

The sequential build is parse → tokenize → ElemRank → posting extraction →
index bulk-load, single-threaded.  This package shards the *per-document*
half of that pipeline across worker processes:

* each worker parses its shard's documents (Dewey IDs are a pure function
  of the pre-assigned doc id and document structure), tokenizes them, and
  emits each document's posting skeletons — optionally spilled to run
  files, which the parent reads back once, checking each block's CRC as
  it decodes it — plus the parsed documents themselves;
* the parent collects the skeletons into one block per doc id, adds the
  documents to the link graph, and runs ElemRank *once* over the whole
  graph; :class:`~repro.index.builder.IndexBuilder` then folds the blocks
  in the graph's ascending doc-id order before attaching scores and
  bulk-loading the usual DIL/RDIL/HDIL structures.

Only sources are sharded: a document that arrives already parsed, or that
an earlier build added, has no block and is extracted in-process by the
same fold, so each document is extracted once per build.  Because a block
is a pure function of its document and the fold order is the doc-id
order, ``build(workers=k)`` is byte-identical to the sequential build for
every ``k`` — verified by :mod:`repro.build.verify` and gated in
``repro check --strict``.
"""

from .pipeline import BuildStats, CorpusBuildResult, build_corpus
from .shard import DocumentSpec, parse_spec, shard_specs, specs_from
from .verify import compare_engines, compare_pages

__all__ = [
    "BuildStats",
    "CorpusBuildResult",
    "DocumentSpec",
    "build_corpus",
    "compare_engines",
    "compare_pages",
    "parse_spec",
    "shard_specs",
    "specs_from",
]
