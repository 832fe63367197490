"""Orchestration of the parallel build: shard → workers → deterministic merge.

:func:`build_corpus` is the parse-from-source pipeline (used by
``engine.build(corpus=..., workers=N)``, the ``repro build`` CLI and the
build benchmark).  It runs the exact same per-document code the
sequential build runs — ``workers=1`` simply executes the single shard
inline, with no pool — so every worker count folds to byte-identical
output.  Documents that are already parsed never come here: the engine
extracts them in-process.

Process management notes:

* the start method prefers ``fork`` where the platform has it and falls
  back to ``spawn`` elsewhere;
* a worker that raises, a worker that *dies* (OOM-kill, segfault — breaks
  the pool), and a spilled run file that fails its checksum scan are all
  handled per shard: the shard is retried up to :data:`MAX_SHARD_ATTEMPTS`
  times (recreating the pool after a crash) before the pipeline gives up
  with a clean :class:`~repro.errors.BuildError` — transient faults cost
  retries (counted in ``BuildStats.retries``), not whole builds, and the
  pipeline never leaves the caller hanging on a dead pool;
* injected faults (:mod:`repro.faults`) are decided in the *parent* —
  plan state is not shared with worker processes — and delivered through
  the task's ``fault`` hook; spilled run files are corrupted parent-side
  after the worker returns;
* spilled run files live in a private temporary directory under the
  caller's ``spill_dir`` and are removed once merged; each is checksum-
  validated (:func:`~repro.storage.runfile.verify_run`) before the merge
  consumes it.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import BuildError, CorruptRunError
from ..faults import SITE_RUNFILE_CORRUPT, SITE_WORKER_CRASH, FaultPlan
from ..index.postings import RawPostingMap
from ..storage.runfile import verify_run
from ..xmlmodel.nodes import Document
from .merge import merge_shard_results
from .shard import DocumentSpec, shard_specs
from .worker import (
    FAULT_CRASH,
    FAULT_RAISE,
    ShardResult,
    ShardTask,
    process_shard,
)

#: Attempts per shard (initial + retries) before the build gives up.
MAX_SHARD_ATTEMPTS = 3


@dataclass
class BuildStats:
    """Timings and counters from one pipeline run (for benchmarks/CLI)."""

    workers: int = 1
    shards: int = 0
    documents: int = 0
    skipped: int = 0
    parse_seconds: float = 0.0
    extract_seconds: float = 0.0
    merge_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    spilled_bytes: int = 0
    keywords: int = 0
    #: Shard attempts beyond the first (worker crash / raise / corrupt run).
    retries: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "shards": self.shards,
            "documents": self.documents,
            "skipped": self.skipped,
            "parse_seconds": round(self.parse_seconds, 4),
            "extract_seconds": round(self.extract_seconds, 4),
            "merge_seconds": round(self.merge_seconds, 4),
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "spilled_bytes": self.spilled_bytes,
            "keywords": self.keywords,
            "retries": self.retries,
        }


@dataclass
class CorpusBuildResult:
    """Parsed documents plus the merged posting skeletons for the corpus."""

    documents: List[Document] = field(default_factory=list)
    raw_postings: RawPostingMap = field(default_factory=dict)
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    stats: BuildStats = field(default_factory=BuildStats)


def _mp_context():
    """The preferred multiprocessing context (fork where available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _corrupt_run_file(path: str, plan: FaultPlan) -> None:
    """Parent-side fault injection: flip one byte of a spilled run file."""
    file_path = Path(path)
    data = bytearray(file_path.read_bytes())
    if not data:
        return
    position = plan.choose(SITE_RUNFILE_CORRUPT, len(data))
    data[position] ^= 0xFF
    file_path.write_bytes(bytes(data))


def _post_process_shard(
    result: ShardResult, fault_plan: Optional[FaultPlan]
) -> None:
    """Inject run-file corruption (if armed), then checksum-scan the run.

    Raises :class:`CorruptRunError` when the spilled run fails validation —
    the caller treats that exactly like a worker failure and retries the
    shard (the rewrite truncates, so a retried shard starts clean).
    """
    if result.run_path is None:
        return
    if fault_plan is not None and fault_plan.should_fire(SITE_RUNFILE_CORRUPT):
        _corrupt_run_file(result.run_path, fault_plan)
    verify_run(result.run_path)


def _execute_shards(
    tasks: List[ShardTask],
    workers: int,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[List[ShardResult], int]:
    """Run shard tasks with per-shard retries; fail cleanly, never hang.

    Worker raises, worker deaths (broken pool — recreated before the next
    round), and corrupt spilled run files each cost the affected shard one
    attempt, up to :data:`MAX_SHARD_ATTEMPTS`; only shards that failed are
    resubmitted.  Injected crash decisions are made here, in the parent,
    because plan state is not shared with worker processes.  Returns the
    results ordered by shard id plus the number of retries spent.
    """
    inline = workers == 1
    pending = {task.shard_id: task for task in tasks}
    attempts = {task.shard_id: 0 for task in tasks}
    results: Dict[int, ShardResult] = {}
    retries = 0
    while pending:
        for shard_id in sorted(pending):
            task = pending[shard_id]
            task.fault = None
            if fault_plan is not None and fault_plan.should_fire(
                SITE_WORKER_CRASH
            ):
                # Inline shards must not os._exit the caller's process, so
                # the injected "crash" degrades to a raise there.
                task.fault = FAULT_RAISE if inline else FAULT_CRASH
        failures: Dict[int, str] = {}
        if inline:
            for shard_id in sorted(pending):
                try:
                    result = process_shard(pending[shard_id])
                    _post_process_shard(result, fault_plan)
                except (BuildError, CorruptRunError) as exc:
                    failures[shard_id] = str(exc)
                else:
                    results[shard_id] = result
        else:
            ordered = [pending[shard_id] for shard_id in sorted(pending)]
            with ProcessPoolExecutor(
                max_workers=min(workers, len(ordered)),
                mp_context=_mp_context(),
            ) as executor:
                futures = [
                    (task, executor.submit(process_shard, task))
                    for task in ordered
                ]
                for task, future in futures:
                    try:
                        result = future.result()
                        _post_process_shard(result, fault_plan)
                    except BrokenProcessPool:
                        failures[task.shard_id] = (
                            "worker process died before returning its shard "
                            "(out-of-memory or crash)"
                        )
                    except (BuildError, CorruptRunError) as exc:
                        failures[task.shard_id] = str(exc)
                    except Exception as exc:
                        failures[task.shard_id] = f"worker failed: {exc!r}"
                    else:
                        results[task.shard_id] = result
        for shard_id, message in sorted(failures.items()):
            attempts[shard_id] += 1
            if attempts[shard_id] >= MAX_SHARD_ATTEMPTS:
                raise BuildError(
                    f"shard {shard_id} failed after {MAX_SHARD_ATTEMPTS} "
                    f"attempts: {message}"
                )
            retries += 1
        for shard_id in list(pending):
            if shard_id in results:
                del pending[shard_id]
    return [results[shard_id] for shard_id in sorted(results)], retries


def build_corpus(
    specs: Sequence[DocumentSpec],
    workers: int = 1,
    spill_dir: Optional[Union[str, Path]] = None,
    on_parse_error: str = "raise",
    fault_plan: Optional[FaultPlan] = None,
) -> CorpusBuildResult:
    """Parse + tokenize + extract a corpus, sharded over worker processes.

    Args:
        specs: documents with pre-assigned doc ids (see
            :func:`~repro.build.shard.specs_from`).
        workers: process count; ``1`` runs the single shard inline.
        spill_dir: when set, workers stream posting skeletons into
            CRC-checked run files under a private temp dir here instead of
            returning them through the result pipe (see
            repro.storage.runfile).  Spilling does not bound memory: the
            parsed documents still come back through the pipe, and the
            merge folds every skeleton into one map.
        on_parse_error: ``"raise"`` (default) or ``"skip"`` (collect the
            failures, like ``repro index``).
        fault_plan: seeded :class:`~repro.faults.FaultPlan` driving worker
            crashes and run-file corruption (chaos harness / tests).
    """
    if workers < 1:
        raise BuildError(f"workers must be >= 1, got {workers}")
    if on_parse_error not in ("raise", "skip"):
        raise BuildError(f"unknown on_parse_error {on_parse_error!r}")
    started = time.perf_counter()
    result = CorpusBuildResult()
    result.stats.workers = workers
    if not specs:
        return result

    run_dir: Optional[str] = None
    if spill_dir is not None:
        Path(spill_dir).mkdir(parents=True, exist_ok=True)
        run_dir = tempfile.mkdtemp(prefix="build-runs-", dir=str(spill_dir))
    try:
        shards = shard_specs(specs, workers)
        result.stats.shards = len(shards)
        tasks = [
            ShardTask(
                shard_id=shard_id,
                specs=shard,
                spill_dir=run_dir,
                on_parse_error=on_parse_error,
            )
            for shard_id, shard in enumerate(shards)
        ]
        shard_results, result.stats.retries = _execute_shards(
            tasks, workers, fault_plan
        )

        merge_started = time.perf_counter()
        result.raw_postings = merge_shard_results(shard_results)
        result.stats.merge_seconds = time.perf_counter() - merge_started
        for shard_result in shard_results:
            result.documents.extend(shard_result.documents)
            result.skipped.extend(shard_result.skipped)
            result.stats.parse_seconds += shard_result.parse_seconds
            result.stats.extract_seconds += shard_result.extract_seconds
            result.stats.spilled_bytes += shard_result.spilled_bytes
        result.documents.sort(key=lambda document: document.doc_id)
        result.stats.documents = len(result.documents)
        result.stats.skipped = len(result.skipped)
        result.stats.keywords = len(result.raw_postings)
    finally:
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
    result.stats.elapsed_seconds = time.perf_counter() - started
    return result
