"""Crash-safety tests for repro.durability: part framing, the crash
simulator's loss model, the generational store's recover-or-fallback
contract (boundary truncations + a power-cut offset sweep), fsck, the
CLI surface, and the durable-write lint rule."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.linter import Linter
from repro.analysis.rules import ALL_RULES
from repro.cli import main
from repro.durability import (
    FRAME_OVERHEAD,
    HEADER_SIZE,
    MAGIC,
    CrashSimulator,
    DurableFile,
    SnapshotStore,
    atomic_write_bytes,
    config_digest,
    decode_part,
    encode_part,
    fsync_dir,
    verify_durability,
)
from repro.durability.store import MANIFEST_NAME
from repro.engine import XRankEngine
from repro.errors import (
    ClusterError,
    NoValidSnapshotError,
    PowerCutError,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    SnapshotWriteError,
)
from repro.faults import (
    SITE_FSYNC_DROPPED,
    SITE_POWERCUT,
    SITE_WRITE_ERROR,
    SITE_WRITE_TORN,
    FaultPlan,
    FaultSpec,
)
from repro.obs import Span

DOCS = [
    ("a.xml", "<doc><title>alpha beta</title><p>alpha gamma</p></doc>"),
    ("b.xml", "<doc><title>beta gamma</title><p>alpha beta</p></doc>"),
    ("c.xml", "<doc><title>delta</title><p>gamma alpha words</p></doc>"),
]


def build_engine(extra=False) -> XRankEngine:
    engine = XRankEngine()
    for uri, source in DOCS:
        engine.add_xml(source, uri=uri)
    if extra:
        engine.add_xml("<doc><p>epsilon alpha fresh</p></doc>", uri="d.xml")
    engine.build(kinds=("dil",))
    return engine


def answers(engine):
    return [
        [(hit.dewey, hit.rank) for hit in engine.search(q, m=10, kind="dil")]
        for q in ("alpha", "beta gamma", "delta")
    ]


# -- part framing ------------------------------------------------------------------


class TestPartFormat:
    def test_round_trip_preserves_payload_and_digest(self):
        blob = encode_part(b"hello snapshot", digest=0xDEADBEEF)
        payload, digest = decode_part(blob)
        assert payload == b"hello snapshot"
        assert digest == 0xDEADBEEF

    def test_frame_overhead_is_fixed(self):
        assert len(encode_part(b"")) == FRAME_OVERHEAD
        assert len(encode_part(b"xyz")) == FRAME_OVERHEAD + 3

    def test_file_is_greppable_by_magic(self):
        assert encode_part(b"payload").startswith(MAGIC)

    def test_bad_magic_is_a_version_error_not_corruption(self):
        blob = b"NOTSNAP!" + encode_part(b"payload")[8:]
        with pytest.raises(SnapshotVersionError, match="bad magic"):
            decode_part(blob)

    def test_future_format_version_is_typed(self):
        blob = bytearray(encode_part(b"payload"))
        blob[8] = 0xFF  # version u16 LE at offset 8
        with pytest.raises(SnapshotVersionError, match="format v"):
            decode_part(bytes(blob))

    def test_truncation_at_every_byte_is_typed(self):
        blob = encode_part(b"some payload bytes", digest=7)
        for cut in range(len(blob)):
            with pytest.raises((SnapshotCorruptError, SnapshotVersionError)):
                decode_part(blob[:cut])

    def test_single_flipped_bit_fails_crc(self):
        blob = bytearray(encode_part(b"x" * 64))
        blob[HEADER_SIZE + 10] ^= 0x40
        with pytest.raises(SnapshotCorruptError, match="CRC32C"):
            decode_part(bytes(blob))

    def test_trailing_garbage_is_rejected(self):
        with pytest.raises(SnapshotCorruptError, match="truncated"):
            decode_part(encode_part(b"payload") + b"junk")

    def test_config_digest_pins_ranking_knobs(self):
        a, b = build_engine(), build_engine()
        assert config_digest(a) == config_digest(b)
        b.drop_stopwords = not getattr(b, "drop_stopwords", False)
        assert config_digest(a) != config_digest(b)


# -- the crash simulator -----------------------------------------------------------


class TestCrashSimulator:
    def test_unsynced_bytes_are_lost(self, tmp_path):
        sim = CrashSimulator()
        path = tmp_path / "f"
        with DurableFile(str(path), sim) as handle:
            handle.write(b"durable!")
            handle.fsync()
            handle.write(b"volatile")
        sim.crash()
        assert path.read_bytes() == b"durable!"

    def test_keep_unsynced_models_a_lucky_flush(self, tmp_path):
        sim = CrashSimulator(keep_unsynced=True)
        path = tmp_path / "f"
        with DurableFile(str(path), sim) as handle:
            handle.write(b"durable!")
            handle.fsync()
            handle.write(b"volatile")
        sim.crash()
        assert path.read_bytes() == b"durable!volatile"

    def test_unsealed_rename_is_undone_by_crash(self, tmp_path):
        sim = CrashSimulator()
        tmp, dst = tmp_path / "f.tmp", tmp_path / "f"
        with DurableFile(str(tmp), sim) as handle:
            handle.write(b"bytes")
            handle.fsync()
        sim.rename(str(tmp), str(dst))
        assert dst.exists()  # atomic for readers...
        sim.crash()
        assert not dst.exists() and tmp.exists()  # ...but not durable

    def test_dir_fsync_seals_the_rename(self, tmp_path):
        sim = CrashSimulator()
        tmp, dst = tmp_path / "f.tmp", tmp_path / "f"
        with DurableFile(str(tmp), sim) as handle:
            handle.write(b"bytes")
            handle.fsync()
        sim.rename(str(tmp), str(dst))
        fsync_dir(str(tmp_path), sim)
        sim.crash()
        assert dst.read_bytes() == b"bytes"

    def test_atomic_write_bytes_survives_a_crash_after_return(self, tmp_path):
        sim = CrashSimulator()
        path = tmp_path / "blob"
        atomic_write_bytes(str(path), b"committed", sim)
        sim.crash()
        assert path.read_bytes() == b"committed"

    def test_dead_volume_refuses_all_io(self, tmp_path):
        sim = CrashSimulator(crash_at_byte=3)
        with pytest.raises(PowerCutError):
            with DurableFile(str(tmp_path / "f"), sim) as handle:
                handle.write(b"longer than three")
        assert sim.crashed
        with pytest.raises(PowerCutError):
            DurableFile(str(tmp_path / "g"), sim)

    def test_crash_at_byte_cuts_mid_write(self, tmp_path):
        sim = CrashSimulator(crash_at_byte=5)
        path = tmp_path / "f"
        with pytest.raises(PowerCutError):
            with DurableFile(str(path), sim) as handle:
                handle.write(b"0123456789")
        assert path.read_bytes() == b""  # nothing was ever fsynced

    def test_write_error_site_is_typed_and_nonfatal(self, tmp_path):
        plan = FaultPlan(1, [FaultSpec(SITE_WRITE_ERROR, probability=1.0, times=1)])
        sim = CrashSimulator(plan=plan)
        with DurableFile(str(tmp_path / "f"), sim) as handle:
            with pytest.raises(SnapshotWriteError):
                handle.write(b"data")
        assert not sim.crashed  # an EIO is not a power cut

    def test_dropped_fsync_is_silent_until_the_crash(self, tmp_path):
        plan = FaultPlan(
            1, [FaultSpec(SITE_FSYNC_DROPPED, probability=1.0, times=1)]
        )
        sim = CrashSimulator(plan=plan)
        path = tmp_path / "f"
        with DurableFile(str(path), sim) as handle:
            handle.write(b"supposedly durable")
            handle.fsync()  # dropped: returns, bytes stay volatile
        assert sim.dropped_fsyncs == 1
        sim.crash()
        assert path.read_bytes() == b""


# -- the generational store --------------------------------------------------------


class TestSnapshotStore:
    def test_save_recover_round_trip_multi_part(self, tmp_path):
        engine = build_engine()
        store = SnapshotStore(tmp_path, part_bytes=2048)
        info = store.save(engine)
        assert info.ok and info.parts > 1  # small parts force chunking
        recovered, rinfo = SnapshotStore(tmp_path).recover()
        assert rinfo.number == info.number
        assert answers(recovered) == answers(engine)

    def test_generations_are_sequential(self, tmp_path):
        engine = build_engine()
        store = SnapshotStore(tmp_path, keep=3)
        assert [store.save(engine).number for _ in range(3)] == [1, 2, 3]

    def test_prune_keeps_newest_intact(self, tmp_path):
        engine = build_engine()
        store = SnapshotStore(tmp_path, keep=2)
        for _ in range(4):
            store.save(engine)
        assert store.generation_numbers() == [3, 4]
        assert store.counters()["generations_pruned"] == 2

    def test_empty_store_raises_typed(self, tmp_path):
        with pytest.raises(NoValidSnapshotError, match="no snapshot"):
            SnapshotStore(tmp_path / "empty").recover()

    def test_fallback_past_corrupt_newest_generation(self, tmp_path):
        v1, v2 = build_engine(), build_engine(extra=True)
        store = SnapshotStore(tmp_path, part_bytes=2048)
        store.save(v1)
        info = store.save(v2)
        part = next(p for p in sorted((tmp_path / f"gen-{info.number:07d}").iterdir()) if p.name.startswith("part-"))
        part.write_bytes(part.read_bytes()[:-3])  # torn tail
        recovered, rinfo = SnapshotStore(tmp_path).recover()
        assert rinfo.number == 1
        assert answers(recovered) == answers(v1)
        counters = SnapshotStore(tmp_path).counters()
        assert counters["recoveries"] == 0  # fresh handle; per-store counters
        store2 = SnapshotStore(tmp_path)
        store2.recover()
        assert store2.counters()["fallbacks"] == 1
        assert store2.counters()["generations_rejected"] == 1

    def test_missing_manifest_means_generation_never_existed(self, tmp_path):
        v1, v2 = build_engine(), build_engine(extra=True)
        store = SnapshotStore(tmp_path)
        store.save(v1)
        info = store.save(v2)
        (tmp_path / f"gen-{info.number:07d}" / MANIFEST_NAME).unlink()
        recovered, rinfo = SnapshotStore(tmp_path).recover()
        assert rinfo.number == 1
        assert answers(recovered) == answers(v1)

    def test_version_skewed_store_raises_version_error(self, tmp_path):
        store = SnapshotStore(tmp_path)
        info = store.save(build_engine())
        manifest = tmp_path / f"gen-{info.number:07d}" / MANIFEST_NAME
        doc = json.loads(manifest.read_bytes())
        doc["format_version"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(SnapshotVersionError, match="version-skewed"):
            SnapshotStore(tmp_path).recover()

    def test_all_corrupt_raises_no_valid_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path, part_bytes=2048)
        info = store.save(build_engine())
        gen = tmp_path / f"gen-{info.number:07d}"
        for part in gen.glob("part-*.bin"):
            part.write_bytes(b"\x00" * 10)
        with pytest.raises(NoValidSnapshotError, match="rebuild from source"):
            SnapshotStore(tmp_path).recover()

    def test_foreign_part_name_in_manifest_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(build_engine())
        info = store.save(build_engine(extra=True))
        manifest = tmp_path / f"gen-{info.number:07d}" / MANIFEST_NAME
        doc = json.loads(manifest.read_bytes())
        doc["parts"][0]["name"] = "../../etc/passwd"
        manifest.write_text(json.dumps(doc))
        _engine, rinfo = SnapshotStore(tmp_path).recover()
        assert rinfo.number == 1  # fell back, never opened the foreign path

    def test_fsck_reports_each_generation(self, tmp_path):
        v1, v2 = build_engine(), build_engine(extra=True)
        store = SnapshotStore(tmp_path, part_bytes=2048)
        store.save(v1)
        info = store.save(v2)
        part = next(iter(sorted((tmp_path / f"gen-{info.number:07d}").glob("part-*.bin"))))
        part.write_bytes(part.read_bytes()[:10])
        report = SnapshotStore(tmp_path).fsck()
        assert report.ok and report.newest_valid == 1
        by_number = {gen.number: gen for gen in report.generations}
        assert by_number[1].ok and not by_number[2].ok
        assert any("bytes on disk" in p for p in by_number[2].problems)
        # canonical JSON is byte-stable
        assert report.to_json() == SnapshotStore(tmp_path).fsck().to_json()

    def test_failed_save_leaves_store_recoverable(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(build_engine())
        plan = FaultPlan(5, [FaultSpec(SITE_POWERCUT, probability=1.0, times=1)])
        with pytest.raises(SnapshotError):
            store.save(build_engine(extra=True), sim=CrashSimulator(plan=plan))
        assert store.counters()["write_failures"] == 1
        engine, info = SnapshotStore(tmp_path).recover()
        assert info.number == 1 and answers(engine) == answers(build_engine())


# -- boundary truncations of a committed generation --------------------------------


class TestBoundaryTruncations:
    """Truncate a committed generation at every structural boundary —
    header seam, part framing edge, manifest — and prove recovery
    falls back to generation 1, never serving mixed state."""

    @pytest.fixture()
    def stores(self, tmp_path):
        v1, v2 = build_engine(), build_engine(extra=True)
        store = SnapshotStore(tmp_path, part_bytes=2048)
        store.save(v1)
        info = store.save(v2)
        return tmp_path, info, answers(v1), answers(v2)

    def _recover(self, root):
        return SnapshotStore(root).recover()

    @pytest.mark.parametrize(
        "cut",
        [0, 1, HEADER_SIZE - 1, HEADER_SIZE, HEADER_SIZE + 1, -4, -1],
    )
    def test_part_truncated_at_boundary_falls_back(self, stores, cut):
        root, info, oracle_v1, _oracle_v2 = stores
        part = sorted((root / f"gen-{info.number:07d}").glob("part-*.bin"))[0]
        blob = part.read_bytes()
        part.write_bytes(blob[: cut if cut >= 0 else len(blob) + cut])
        engine, rinfo = self._recover(root)
        assert rinfo.number == 1
        assert answers(engine) == oracle_v1

    @pytest.mark.parametrize("cut", [0, 1, 10, -1])
    def test_manifest_truncated_falls_back(self, stores, cut):
        root, info, oracle_v1, _oracle_v2 = stores
        manifest = root / f"gen-{info.number:07d}" / MANIFEST_NAME
        blob = manifest.read_bytes()
        manifest.write_bytes(blob[: cut if cut >= 0 else len(blob) + cut])
        engine, rinfo = self._recover(root)
        assert rinfo.number == 1
        assert answers(engine) == oracle_v1

    def test_untouched_generation_recovers_new(self, stores):
        root, info, _oracle_v1, oracle_v2 = stores
        engine, rinfo = self._recover(root)
        assert rinfo.number == info.number
        assert answers(engine) == oracle_v2


# -- power-cut offset sweep (hypothesis-style) -------------------------------------


class TestPowerCutSweep:
    def test_every_offset_recovers_or_falls_back(self, tmp_path):
        """Crash a generation-2 save at seeded byte offsets under both
        page-cache models; every outcome must equal one oracle."""
        import random
        import shutil

        v1, v2 = build_engine(), build_engine(extra=True)
        oracle_v1, oracle_v2 = answers(v1), answers(v2)
        base = tmp_path / "base"
        SnapshotStore(base, part_bytes=2048).save(v1)

        probe = tmp_path / "probe"
        shutil.copytree(base, probe)
        sim = CrashSimulator()
        SnapshotStore(probe, part_bytes=2048).save(v2, sim=sim)
        total = sim.written

        rng = random.Random(42)
        offsets = {0, 1, total - 1, total, total + 1}
        offsets.update(rng.randrange(total + 1) for _ in range(8))
        fallbacks = 0
        for offset in sorted(offsets):
            for keep_unsynced in (False, True):
                case = tmp_path / "case"
                if case.exists():
                    shutil.rmtree(case)
                shutil.copytree(base, case)
                store = SnapshotStore(case, part_bytes=2048)
                try:
                    store.save(
                        v2,
                        sim=CrashSimulator(
                            crash_at_byte=offset, keep_unsynced=keep_unsynced
                        ),
                    )
                except (PowerCutError, SnapshotWriteError):
                    pass
                engine, _info = SnapshotStore(case, part_bytes=2048).recover()
                got = answers(engine)
                assert got in (oracle_v1, oracle_v2), (
                    f"offset={offset} keep_unsynced={keep_unsynced}: "
                    "answers match neither oracle — mixed state"
                )
                if got == oracle_v1:
                    fallbacks += 1
        assert fallbacks > 0  # the sweep actually bit

    def test_battery_passes_and_is_deterministic(self, tmp_path):
        report = verify_durability(seed=11, interior_offsets=2, part_bytes=8192)
        assert report.ok, report.violations
        assert report.cases > 0
        assert report.fallbacks_seen > 0
        again = verify_durability(seed=11, interior_offsets=2, part_bytes=8192)
        assert report.to_json() == again.to_json()

    def test_every_write_site_produces_a_case(self):
        report = verify_durability(seed=3, interior_offsets=0, part_bytes=8192)
        assert report.ok, report.violations
        sites = {label.split(",")[0] for label in report.site_outcomes}
        assert {
            f"site={SITE_WRITE_ERROR}",
            f"site={SITE_WRITE_TORN}",
            f"site={SITE_POWERCUT}",
            f"site={SITE_FSYNC_DROPPED}",
        } <= sites


# -- tracing -----------------------------------------------------------------------


class TestSnapshotSpans:
    def test_save_emits_snapshot_write_span(self, tmp_path):
        root = Span("test.root", trace_id="t1")
        store = SnapshotStore(tmp_path, part_bytes=2048)
        store.save(build_engine(), span=root)
        (write,) = [s for s in root.children if s.name == "snapshot.write"]
        assert write.attrs["generation"] == 1
        events = [event["name"] for event in write.events]
        assert "part_written" in events
        assert events[-1] == "manifest_committed"

    def test_recover_span_records_fallback(self, tmp_path):
        store = SnapshotStore(tmp_path, part_bytes=2048)
        store.save(build_engine())
        info = store.save(build_engine(extra=True))
        gen = tmp_path / f"gen-{info.number:07d}"
        (gen / MANIFEST_NAME).unlink()
        root = Span("test.root", trace_id="t1")
        SnapshotStore(tmp_path).recover(span=root)
        (recover,) = [s for s in root.children if s.name == "snapshot.recover"]
        assert recover.attrs["generation"] == 1
        assert recover.attrs["fell_back"] is True
        events = [event["name"] for event in recover.events]
        assert "generation_rejected" in events and "recovered" in events


# -- CLI: repro snapshot / repro fsck ----------------------------------------------


class TestSnapshotCLI:
    @pytest.fixture()
    def engine_file(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        for uri, source in DOCS:
            (docs / uri).write_text(source)
        out = tmp_path / "engine.xrank"
        assert main(["index", str(docs), "--out", str(out)]) == 0
        return out

    def test_save_load_fsck_round_trip(self, engine_file, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        assert main(
            ["snapshot", "save", str(snapdir), "--index", str(engine_file)]
        ) == 0
        assert "committed generation 1" in capsys.readouterr().out
        assert main(
            ["snapshot", "load", str(snapdir), "--query", "alpha"]
        ) == 0
        out = capsys.readouterr().out
        assert "recovered generation 1" in out and "result(s)" in out
        assert main(["fsck", str(snapdir)]) == 0
        assert "newest recoverable generation: 1" in capsys.readouterr().out

    def test_fsck_flags_corruption_and_load_falls_back(
        self, engine_file, tmp_path, capsys
    ):
        snapdir = tmp_path / "snaps"
        main(["snapshot", "save", str(snapdir), "--index", str(engine_file)])
        main(["snapshot", "save", str(snapdir), "--index", str(engine_file)])
        part = next((snapdir / "gen-0000002").glob("part-*.bin"))
        part.write_bytes(part.read_bytes()[:16])
        capsys.readouterr()
        assert main(["fsck", str(snapdir)]) == 0  # gen 1 still recoverable
        out = capsys.readouterr().out
        assert "gen-0000002: CORRUPT" in out
        assert "newest recoverable generation: 1" in out
        assert main(["snapshot", "load", str(snapdir)]) == 0
        assert "fell back past 1 rejected" in capsys.readouterr().out

    def test_fsck_json_is_canonical(self, engine_file, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        main(["snapshot", "save", str(snapdir), "--index", str(engine_file)])
        capsys.readouterr()
        assert main(["fsck", str(snapdir), "--json"]) == 0
        first = capsys.readouterr().out
        assert json.loads(first)["ok"] is True
        assert main(["fsck", str(snapdir), "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_fsck_empty_dir_exits_nonzero(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        assert main(["fsck", str(empty)]) == 1
        assert "no snapshot generations" in capsys.readouterr().out

    def test_verify_reduced_sweep_exits_zero(self, tmp_path, capsys):
        assert main(
            ["snapshot", "verify", "--seed", "5", "--offsets", "0", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["violations"] == []
        # The canonical key set is pinned: the shared serializer cannot
        # add or drop a key silently.
        assert set(report) == {
            "ok",
            "seed",
            "offsets_swept",
            "cases",
            "recovered_new",
            "recovered_previous",
            "fallbacks_seen",
            "site_outcomes",
            "violations",
        }


# -- the durable-write lint rule ---------------------------------------------------

STORE_PATH = "src/repro/durability/fixture_writer.py"


@pytest.fixture
def linter() -> Linter:
    return Linter(ALL_RULES)


def lint(linter, source, path=STORE_PATH):
    return linter.lint_source(textwrap.dedent(source), path)


def rule_ids(violations):
    return [v.rule for v in violations]


class TestDurableWriteRule:
    def test_rename_without_fsync_fires(self, linter):
        violations = lint(
            linter,
            """
            import os
            def commit(tmp, dst):
                os.replace(tmp, dst)
            """,
        )
        assert "durable-write" in rule_ids(violations)

    def test_fsync_before_rename_is_clean(self, linter):
        violations = lint(
            linter,
            """
            import os
            def commit(handle, tmp, dst):
                os.fsync(handle.fileno())
                os.replace(tmp, dst)
            """,
        )
        assert "durable-write" not in rule_ids(violations)

    def test_fsync_dir_helper_counts(self, linter):
        violations = lint(
            linter,
            """
            import os
            def commit(tmp, dst, parent):
                fsync_dir(parent)
                os.rename(tmp, dst)
            """,
        )
        assert "durable-write" not in rule_ids(violations)

    def test_str_replace_is_not_a_rename(self, linter):
        violations = lint(
            linter,
            """
            def tidy(name):
                return name.replace("-", "_")
            """,
        )
        assert "durable-write" not in rule_ids(violations)

    def test_rule_scoped_to_persistence_packages(self, linter):
        violations = lint(
            linter,
            """
            import os
            def shuffle(tmp, dst):
                os.replace(tmp, dst)
            """,
            path="src/repro/service/fixture_core.py",
        )
        assert "durable-write" not in rule_ids(violations)

    def test_suppression_comment_is_honored(self, linter):
        violations = lint(
            linter,
            """
            import os
            def commit(tmp, dst):
                os.replace(tmp, dst)  # repro: ignore[durable-write] — modelled
            """,
        )
        assert "durable-write" not in rule_ids(violations)

    def test_production_tree_is_clean(self, linter):
        from pathlib import Path

        import repro

        package = Path(repro.__file__).parent
        result = linter.lint_paths_result(
            [package / "durability", package / "storage"]
        )
        assert not [
            v for v in result.violations if v.rule == "durable-write"
        ]


# -- cluster restart–rejoin from snapshot ------------------------------------------


class TestClusterRejoin:
    def test_rejoin_requires_snapshot_root(self):
        from repro.cluster.local import LocalCluster

        cluster = LocalCluster.from_sources(
            ["<doc><p>alpha one</p></doc>", "<doc><p>alpha two</p></doc>"]
        )
        with pytest.raises(ClusterError, match="snapshot_root"):
            cluster.restart_from_snapshot(0, 0)
