"""Parallel sharded index construction (the repro.build subsystem).

The sequential build is parse → tokenize → ElemRank → posting extraction →
index bulk-load, single-threaded.  This package shards the *per-document*
half of that pipeline across worker processes:

* each worker parses its shard's documents (Dewey IDs are a pure function
  of the pre-assigned doc id and document structure), tokenizes them, and
  emits per-shard posting skeletons — optionally spilled to run files —
  plus the parsed documents themselves;
* the parent performs a deterministic k-way merge of the shard outputs in
  ascending doc-id order, assembles the link graph, and runs ElemRank
  *once* over the merged graph before attaching scores and bulk-loading
  the usual DIL/RDIL/HDIL structures.

Only sources are sharded: a document that arrives already parsed is
extracted in-process by :class:`~repro.index.builder.IndexBuilder`.
Because shard outputs are order-independent and the merge is associative,
``build(workers=k)`` is byte-identical to the sequential build for every
``k`` — verified by :mod:`repro.build.verify` and gated in
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
