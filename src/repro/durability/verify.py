"""The durability battery (``repro.durability.verify``).

Proves the recover-or-fallback contract by actually crashing the
snapshot writer, at scale: a generation-1 snapshot is committed, then a
generation-2 save is killed at a swept set of byte offsets (structural
boundaries of the part format plus seeded interior points, each under
both page-cache models) and by every seeded write-side fault site.
After each crash, recovery runs against the wreckage and the recovered
engine answers a fixed query set.  The answers must be bit-identical to
the generation-2 oracle (the crash landed after the commit point) or to
the generation-1 oracle (clean fallback) — any third outcome is a
mixed-state violation and fails the battery.

``repro snapshot verify`` runs this from the CLI; ``repro check
--strict`` wires a reduced sweep in as the ``durability`` gate; the
``recovery-smoke`` CI job runs the full battery and archives the fsck
report of the surviving wreckage.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import SnapshotError
from ..faults import (
    SITE_FSYNC_DROPPED,
    SITE_POWERCUT,
    SITE_WRITE_ERROR,
    SITE_WRITE_TORN,
    FaultPlan,
    FaultSpec,
)
from ..harness import CanonicalReport, fingerprint
from .format import HEADER_SIZE
from .io import CrashSimulator
from .store import SnapshotStore

#: Small corpus with enough structure for multi-part snapshots at the
#: battery's reduced ``part_bytes``; generation 2 adds one document so
#: the two oracles provably differ.
_BASE_CORPUS = [
    (
        "workshop.xml",
        "<workshop><title>XQL workshop</title>"
        "<paper><title>ranked XML search</title>"
        "<body><section>the XQL query language over element trees"
        "</section></body></paper></workshop>",
    ),
    (
        "survey.xml",
        "<survey><title>query language survey</title>"
        "<chapter><para>the XQL language and ranked retrieval</para>"
        "<para>inverted lists keyed by element identifiers</para>"
        "</chapter></survey>",
    ),
    (
        "notes.xml",
        "<notes><note><body>proximity ranking and element retrieval"
        "</body></note></notes>",
    ),
]

_EXTRA_DOC = (
    "addendum.xml",
    "<addendum><title>late-breaking XQL results</title>"
    "<para>ranked element retrieval revisited</para></addendum>",
)

_QUERIES = ("xql language", "ranked retrieval", "element")

_KINDS = ("dil",)


def _build_engine(extra: bool):
    from ..engine import XRankEngine

    engine = XRankEngine()
    for uri, source in _BASE_CORPUS:
        engine.add_xml(source, uri=uri)
    if extra:
        engine.add_xml(_EXTRA_DOC[1], uri=_EXTRA_DOC[0])
    engine.build(kinds=_KINDS)
    return engine


def _answers(engine) -> List[List[Tuple[str, float]]]:
    """The oracle fingerprint: (dewey, rank) lists per fixed query."""
    return [
        fingerprint(engine.search(query, m=10, kind=_KINDS[0])) for query in _QUERIES
    ]


@dataclass
class DurabilityReport(CanonicalReport):
    """Outcome of one battery run (canonical-JSON serializable)."""

    seed: int = 0
    offsets_swept: int = 0
    cases: int = 0
    recovered_new: int = 0
    recovered_previous: int = 0
    fallbacks_seen: int = 0
    site_outcomes: Dict[str, str] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and self.cases > 0


def _crash_offsets(
    total: int, part_sizes: List[int], seed: int, interior: int
) -> List[int]:
    """Structural boundaries plus seeded interior offsets, de-duplicated.

    Boundaries target the format's seams: the first bytes of the stream,
    both edges of every part header, every part's framing boundary, and
    the tail where the manifest commit happens.
    """
    offsets = {0, 1, total - 1, total, total + 1}
    edge = 0
    for size in part_sizes:
        offsets.update(
            {
                edge,  # part file about to be created
                edge + HEADER_SIZE - 1,  # mid-header
                edge + HEADER_SIZE,  # header/payload seam
                edge + size - 4,  # inside the CRC footer
                edge + size - 1,  # one byte short of a full part
                edge + size,  # part complete, next not started
            }
        )
        edge += size
    rng = random.Random(seed)
    for _ in range(max(0, interior)):
        offsets.add(rng.randrange(total + 1))
    return sorted(offset for offset in offsets if 0 <= offset <= total + 1)


def verify_durability(
    seed: int = 0,
    interior_offsets: int = 12,
    part_bytes: int = 4096,
    keep_dir: Optional[str] = None,
) -> DurabilityReport:
    """Run the crash-point sweep and fault-site battery; return a report.

    Args:
        seed: seeds both the interior-offset picker and the fault plans.
        interior_offsets: extra seeded offsets beyond the structural
            boundaries (the "hypothesis-style" part of the sweep).
        part_bytes: payload bytes per part — small, to force multi-part
            generations so boundaries are plentiful.
        keep_dir: keep working state under this directory (for CI
            artifact upload) instead of a deleted temp dir.
    """
    report = DurabilityReport(seed=seed)
    scratch_root = Path(keep_dir) if keep_dir else Path(tempfile.mkdtemp(prefix="repro-durability-"))
    scratch_root.mkdir(parents=True, exist_ok=True)
    try:
        engine_v1 = _build_engine(extra=False)
        engine_v2 = _build_engine(extra=True)
        oracle_v1 = _answers(engine_v1)
        oracle_v2 = _answers(engine_v2)
        if oracle_v1 == oracle_v2:
            report.violations.append(
                "harness defect: the two oracle engines answer identically"
            )
            return report

        # Committed baseline: generation 1 only.
        base = scratch_root / "base"
        base_store = SnapshotStore(base, part_bytes=part_bytes)
        base_store.save(engine_v1)

        # Dry run of the generation-2 save to learn the write geometry.
        probe_dir = scratch_root / "probe"
        shutil.copytree(base, probe_dir)
        probe_sim = CrashSimulator()
        probe_store = SnapshotStore(probe_dir, part_bytes=part_bytes)
        probe_info = probe_store.save(engine_v2, sim=probe_sim)
        total = probe_sim.written
        part_sizes = [
            (probe_store._gen_dir(probe_info.number) / f"part-{index:05d}.bin").stat().st_size
            for index in range(probe_info.parts)
        ]
        shutil.rmtree(probe_dir)

        offsets = _crash_offsets(total, part_sizes, seed, interior_offsets)
        report.offsets_swept = len(offsets)

        def run_case(label: str, sim: CrashSimulator, expect: str) -> None:
            """Save generation 2 under ``sim``, restart, judge the recovery.

            ``expect`` is what the save itself must do: ``"crash"`` (a
            byte offset may or may not land inside the write stream),
            ``"fire"`` (an armed write-side site must raise typed) or
            ``"silent"`` (a dropped fsync must not surface; a power cut
            after the save then eats whatever it left in the cache).
            """
            case_dir = scratch_root / "case"
            if case_dir.exists():
                shutil.rmtree(case_dir)
            shutil.copytree(base, case_dir)
            try:
                SnapshotStore(case_dir, part_bytes=part_bytes).save(engine_v2, sim=sim)
            except SnapshotError as exc:
                if expect == "silent":
                    report.violations.append(
                        f"{label}: a dropped fsync must be silent, but the "
                        f"writer raised {type(exc).__name__}: {exc}"
                    )
                    return
            except Exception as exc:  # untyped escape is itself a violation
                report.violations.append(
                    f"{label}: untyped {type(exc).__name__} escaped the writer: {exc}"
                )
                return
            else:
                if expect == "fire":
                    # A plan armed with times=1 must actually fire.
                    report.violations.append(f"{label}: armed fault site never fired")
                elif expect == "silent":
                    sim.crash()
            # The dead volume must not block recovery: restart means a
            # fresh process reading whatever survived on disk.
            try:
                recovered, info = SnapshotStore(
                    case_dir, part_bytes=part_bytes
                ).recover()
            except SnapshotError as exc:
                report.violations.append(
                    f"{label}: recovery found no intact generation "
                    f"({type(exc).__name__}: {exc}) — generation 1 was lost"
                )
                return
            answers = _answers(recovered)
            report.cases += 1
            if answers == oracle_v2:
                report.recovered_new += 1
                report.site_outcomes.setdefault(label, "recovered_new")
            elif answers == oracle_v1:
                report.recovered_previous += 1
                report.fallbacks_seen += 1
                report.site_outcomes.setdefault(label, "recovered_previous")
            else:
                report.violations.append(
                    f"{label}: recovered generation {info.number} answers "
                    "match NEITHER oracle — mixed or silently wrong state"
                )

        # -- the power-cut offset sweep, under both page-cache models ----
        for offset in offsets:
            for keep_unsynced in (False, True):
                run_case(
                    f"offset={offset},keep_unsynced={keep_unsynced}",
                    CrashSimulator(
                        crash_at_byte=offset, keep_unsynced=keep_unsynced
                    ),
                    expect="crash",
                )

        # -- the seeded fault-site battery ------------------------------
        # One write call per part plus one for the manifest temp file;
        # a skip must leave at least one eligible call or the armed
        # site can never fire.
        write_calls = probe_info.parts + 1
        skips = tuple(
            skip for skip in (0, 1, 2, 3, 5, 8, 13) if skip < write_calls
        )
        # Dropped fsyncs are silent: the save "succeeds", then the power
        # dies and eats whatever the dropped fsync left in the cache.
        sites = (SITE_WRITE_ERROR, SITE_WRITE_TORN, SITE_POWERCUT, SITE_FSYNC_DROPPED)
        for site in sites:
            for skip in skips:
                plan = FaultPlan(
                    seed, [FaultSpec(site, probability=1.0, times=1, skip=skip)]
                )
                run_case(
                    f"site={site},skip={skip}",
                    CrashSimulator(plan=plan),
                    expect="silent" if site == SITE_FSYNC_DROPPED else "fire",
                )

        if report.fallbacks_seen == 0:
            report.violations.append(
                "harness defect: no crash point ever forced a fallback, "
                "the battery is not biting"
            )
        # Leave the last case's wreckage in place for fsck/artifacts
        # when the caller asked to keep the directory.
        return report
    finally:
        if keep_dir is None:
            shutil.rmtree(scratch_root, ignore_errors=True)


def check_durability(seed: int = 0) -> List[str]:
    """Strict-mode gate: a reduced sweep, returning failure strings."""
    report = verify_durability(seed=seed, interior_offsets=4, part_bytes=8192)
    failures = list(report.violations)
    if report.cases == 0:
        failures.append("durability battery ran zero cases")
    return [f"durability: {failure}" for failure in failures]
