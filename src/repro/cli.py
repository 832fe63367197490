"""Command-line interface: index a directory of XML/HTML files and search.

Usage::

    python -m repro index docs/ --out corpus.xrank
    python -m repro build docs/ --out corpus.xrank --workers 4 --verify
    python -m repro search corpus.xrank "xql language" -m 10
    python -m repro search corpus.xrank "gray" --mode or --context
    python -m repro explain corpus.xrank "xql language"
    python -m repro stats corpus.xrank
    python -m repro serve corpus.xrank --port 8712
    python -m repro serve --check
    python -m repro snapshot save snaps/ --index corpus.xrank
    python -m repro snapshot load snaps/ --query "xql language"
    python -m repro snapshot verify --json
    python -m repro fsck snaps/
    python -m repro check --strict
    python -m repro demo

``index`` walks the given paths, parsing ``.xml`` files with the strict XML
parser and ``.html``/``.htm`` files with the tolerant HTML front-end, builds
the requested index kinds, and pickles the engine.  File paths (relative to
the indexing root) become document URIs, so XLink/href references between
files resolve into hyperlink edges for ElemRank.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from .engine import INDEX_KINDS, XRankEngine
from .errors import XMLParseError, XRankError

_XML_SUFFIXES = {".xml"}
_HTML_SUFFIXES = {".html", ".htm"}


def _collect_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*"))
                if p.suffix.lower() in _XML_SUFFIXES | _HTML_SUFFIXES
            )
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return files


def _uri_for(path: Path, roots: List[Path]) -> str:
    for root in roots:
        if root.is_dir():
            try:
                return path.relative_to(root).as_posix()
            except ValueError:
                continue
    return path.name


def cmd_index(args: argparse.Namespace) -> int:
    """Parse and index the given files, then pickle the engine."""
    engine = XRankEngine(scorer=args.scorer)
    roots = [Path(p) for p in args.paths]
    files = _collect_files(args.paths)
    if not files:
        print("no .xml/.html files found", file=sys.stderr)
        return 1
    indexed = 0
    for path in files:
        source = path.read_text(encoding="utf-8", errors="replace")
        uri = _uri_for(path, roots)
        try:
            if path.suffix.lower() in _HTML_SUFFIXES:
                engine.add_html(source, uri=uri)
            else:
                engine.add_xml(source, uri=uri)
            indexed += 1
        except XMLParseError as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
    if indexed == 0:
        print("every input file failed to parse", file=sys.stderr)
        return 1
    engine.build(kinds=args.kinds)
    engine.save(args.out)
    stats = engine.stats()
    print(
        f"indexed {stats['documents']} documents "
        f"({stats['elements']} elements, {stats['hyperlink_edges']} links) "
        f"-> {args.out}"
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    """Index files through the parallel build pipeline (repro.build)."""
    import json
    import time

    from .build import specs_from_paths
    from .build.verify import compare_engines, default_probe_queries

    roots = [Path(p) for p in args.paths]
    files = _collect_files(args.paths)
    if not files:
        print("no .xml/.html files found", file=sys.stderr)
        return 1
    uris = [_uri_for(path, roots) for path in files]
    on_parse_error = "raise" if args.strict_parse else "skip"

    def run_build(workers: int) -> XRankEngine:
        engine = XRankEngine(scorer=args.scorer)
        engine.build(
            kinds=args.kinds,
            corpus=specs_from_paths(files, uris),
            workers=workers,
            spill_dir=args.spill_dir,
            on_parse_error=on_parse_error,
        )
        return engine

    started = time.perf_counter()
    engine = run_build(args.workers)
    elapsed = time.perf_counter() - started
    for uri, reason in engine.last_build_skipped:
        print(f"skipping {uri}: {reason}", file=sys.stderr)
    if not engine.graph.documents:
        print("every input file failed to parse", file=sys.stderr)
        return 1

    stats = engine.stats()
    build_stats = (
        engine.last_build_stats.to_dict() if engine.last_build_stats else {}
    )
    docs_per_second = stats["documents"] / elapsed if elapsed > 0 else 0.0
    print(
        f"built {stats['documents']} documents "
        f"({stats['elements']} elements, {stats['hyperlink_edges']} links) "
        f"with {args.workers} worker(s) in {elapsed:.2f}s "
        f"({docs_per_second:.1f} docs/s)"
    )

    verified: Optional[bool] = None
    if args.verify:
        reference = run_build(1)
        kind = "hdil" if "hdil" in args.kinds else args.kinds[0]
        problems = compare_engines(
            reference, engine, default_probe_queries(reference), kind=kind
        )
        verified = not problems
        for problem in problems:
            print(f"verify: {problem}", file=sys.stderr)
        print(
            "verify: parallel build is "
            + ("byte-identical to sequential" if verified else "NOT identical")
        )

    if args.json:
        report = {
            "documents": stats["documents"],
            "elements": stats["elements"],
            "workers": args.workers,
            "elapsed_s": round(elapsed, 4),
            "docs_per_s": round(docs_per_second, 2),
            "pipeline": build_stats,
            "verified_identical": verified,
        }
        Path(args.json).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    if args.out:
        engine.save(args.out)
        print(f"-> {args.out}")
    if verified is False:
        return 1
    return 0


def _load_engine(path: str) -> XRankEngine:
    return XRankEngine.load(path)


def cmd_search(args: argparse.Namespace) -> int:
    """Query a pickled engine and print ranked hits."""
    engine = _load_engine(args.index)
    hits = engine.search(
        args.query,
        m=args.m,
        kind=args.kind,
        mode=args.mode,
        with_context=args.context,
    )
    if not hits:
        print("no results")
        return 0
    for position, hit in enumerate(hits, start=1):
        print(f"{position:>2}. [{hit.rank:.6f}] <{hit.tag}> {hit.path}")
        if hit.snippet:
            print(f"      {hit.snippet[:100]}")
        if args.context:
            for dewey, tag in hit.ancestors:
                print(f"      ^ <{tag}> at {dewey}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print the per-keyword rank decomposition of the top results."""
    engine = _load_engine(args.index)
    explanations = engine.explain(args.query, m=args.m, kind=args.kind)
    if not explanations:
        print("no results")
        return 0
    for position, info in enumerate(explanations, start=1):
        print(f"{position:>2}. <{info['tag']}> {info['path']}  rank={info['overall_rank']:.6f}")
        for keyword, rank in info["keyword_ranks"].items():
            positions = info["positions"].get(keyword, ())
            print(f"      r({keyword}) = {rank:.6f}  at positions {list(positions)}")
        print(
            f"      proximity = {info['proximity']:.4f} "
            f"(smallest window {info['smallest_window']}), "
            f"decay = {info['decay']}, "
            f"ElemRank(element) = {info['element_elemrank']:.6f}"
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print a pickled engine's corpus and index statistics."""
    engine = _load_engine(args.index)
    for key, value in engine.stats().items():
        print(f"{key}: {value}")
    return 0


_DEMO_DOC = """
<workshop><title>XML and IR</title><proceedings>
<paper><title>XQL and Proximal Nodes</title>
<body><subsection>the XQL query language looks promising</subsection></body>
</paper></proceedings></workshop>
"""


def _demo_engine() -> XRankEngine:
    """A tiny built (demo-corpus) engine for `serve` without an index file."""
    engine = XRankEngine()
    engine.add_xml(_DEMO_DOC, uri="demo")
    engine.build(kinds=["hdil"])
    return engine


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve an engine over JSON/HTTP (see repro.service)."""
    from .service.core import XRankService
    from .service.server import make_server, run

    if args.index:
        engine = _load_engine(args.index)
    else:
        print("no index file given: serving the built-in demo corpus")
        engine = _demo_engine()
    from .obs import Tracer

    service = XRankService(
        engine,
        result_cache_size=args.result_cache,
        list_cache_size=args.list_cache,
        max_concurrent=args.max_concurrent,
        max_queue=args.queue_limit,
        default_deadline_ms=args.deadline_ms,
        tracer=Tracer(
            sample=args.trace_sample,
            ratio=args.trace_ratio,
            slow_ms=args.trace_slow_ms,
        ),
        profile=args.profile,
    )

    if args.check:
        # Smoke mode for CI: bind an ephemeral port, serve one real query
        # through the HTTP stack, and shut down.
        import threading

        from .service.client import ServiceClient

        server = make_server(service, host=args.host, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(args.host, port)
            health = client.healthz()
            query = args.query or _first_indexed_keyword(engine) or "xql"
            response = client.search(query, m=3)
            print(
                f"serve check ok: {health['documents']} documents, "
                f"query {query!r} -> {len(response['results'])} results "
                f"in {response['latency_ms']:.2f}ms on port {port}"
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        return 0

    run(service, host=args.host, port=args.port)
    return 0


def _first_indexed_keyword(engine: XRankEngine) -> str:
    """Any indexed keyword (the --check smoke query for arbitrary corpora)."""
    if engine.builder is not None and engine.builder.direct_postings:
        return next(iter(sorted(engine.builder.direct_postings)))
    return ""


def cmd_check(args: argparse.Namespace) -> int:
    """Run the analysis gates: lint, and with --strict also the
    structural invariants + lock tracing (see repro.analysis)."""
    from .analysis.check import run_check

    return run_check(
        paths=args.paths or None,
        strict=args.strict,
        list_rules=args.list_rules,
        json_path=args.json,
        github=args.github,
        show_suppressed=args.show_suppressed,
    )


def cmd_stress(args: argparse.Namespace) -> int:
    """Run seeded concurrency storms under the dynamic race detector."""
    from .stress import run_stress

    report = run_stress(
        seed=args.seed,
        scenarios=args.scenarios or None,
        ops_scale=args.ops_scale,
    )
    if args.json:
        payload = report.to_json()
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    print(report.describe())
    return 0 if report.clean else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run one seeded fault storm and report outcomes vs. the oracle."""
    num_queries = args.queries
    num_papers = args.papers
    if args.tiny:
        num_queries = min(num_queries, 12)
        num_papers = min(num_papers, 24)
    if args.cluster:
        return _cluster_chaos(args, num_queries, num_papers)
    from .chaos import run_chaos
    report = run_chaos(
        seed=args.seed,
        fault_rate=args.fault_rate,
        num_queries=num_queries,
        num_papers=num_papers,
        kind=args.kind,
        workers=args.workers,
    )
    if args.json:
        print(report.to_json())
    else:
        print(
            f"chaos seed={report.seed} rate={report.fault_rate} "
            f"kind={report.kind}: {report.queries} queries over "
            f"{report.documents} documents"
        )
        for name, count in sorted(report.outcomes.items()):
            print(f"  {name:>14}: {count}")
        print(f"  build retries: {report.build_retries}")
        print(f"  breaker trips: {report.breaker_trips}")
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
        print("ok" if report.ok else "FAILED: silent wrong answers detected")
    return 0 if report.ok else 1


def _cluster_chaos(
    args: argparse.Namespace, num_queries: int, num_papers: int
) -> int:
    """The ``repro chaos --cluster`` arm: replica kills + RPC faults."""
    from .cluster.chaos import run_cluster_chaos

    report = run_cluster_chaos(
        seed=args.seed,
        num_queries=num_queries,
        num_papers=num_papers,
        shards=args.shards,
        replicas=args.replicas,
        kind=args.kind,
        kill_rate=args.kill_rate,
        rpc_fault_rate=args.rpc_fault_rate,
        rejoin_rate=args.rejoin_rate,
    )
    if args.json:
        print(report.to_json())
    else:
        print(
            f"cluster chaos seed={report.seed} shards={report.shards} "
            f"replicas={report.replicas}: {report.queries} queries over "
            f"{report.documents} documents"
        )
        for name, count in sorted(report.outcomes.items()):
            print(f"  {name:>14}: {count}")
        print(
            f"  kills: {report.kills}  restarts: {report.restarts}  "
            f"rejoins: {report.rejoins}  "
            f"rpc faults: {report.rpc_faults_injected}"
        )
        print(
            f"  snapshot recoveries: {report.snapshot_recoveries}  "
            f"snapshot fallbacks: {report.snapshot_fallbacks}"
        )
        print(
            f"  failovers: {report.failovers}  "
            f"breaker trips: {report.breaker_trips}"
        )
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
        print("ok" if report.ok else "FAILED: silent wrong answers detected")
    return 0 if report.ok else 1


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run or verify a sharded serving cluster (see repro.cluster)."""
    from .cluster.verify import (
        default_cluster_corpus,
        verify_cluster_identity,
    )

    if args.check:
        shard_counts = tuple(args.shard_counts or (1, 2, 4))
        problems = verify_cluster_identity(
            shard_counts=shard_counts,
            replicas=args.replicas,
            num_papers=args.papers,
            seed=args.seed,
        )
        for problem in problems:
            print(f"cluster identity: {problem}")
        print(
            f"cluster check over shard counts {list(shard_counts)}: "
            + ("FAILED" if problems else "ok (bit-for-bit identical)")
        )
        return 1 if problems else 0

    from .cluster.local import LocalCluster
    from .service.server import make_server

    specs, queries = default_cluster_corpus(args.papers, seed=args.seed)
    print(
        f"building {args.shards}-shard x {args.replicas}-replica cluster "
        f"over {len(specs)} seeded documents..."
    )
    with LocalCluster(
        specs, num_shards=args.shards, replicas=args.replicas
    ) as cluster:
        described = cluster.describe()
        print(
            f"shard sizes: {described['shard_sizes']}  "
            f"elements: {described['elements']}"
        )
        server = make_server(
            cluster.coordinator, host=args.host, port=args.port
        )
        bound_host, bound_port = server.server_address[:2]
        if args.smoke:
            # CI mode: one real scatter-gather query through the HTTP
            # front end, then shut down.
            import threading

            from .service.client import ServiceClient

            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                client = ServiceClient(bound_host, bound_port)
                response = client.search(queries[0], m=5)
                answered = response["cluster"]["shards_answered"]
                print(
                    f"cluster smoke ok: query {queries[0]!r} -> "
                    f"{len(response['results'])} results from "
                    f"{answered}/{args.shards} shards on port {bound_port}"
                )
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
            return 0
        print(
            f"cluster coordinator on http://{bound_host}:{bound_port} "
            f"(try /search?q={queries[0].split()[0]})"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            server.server_close()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Capture (or fetch) query traces and render/validate/export them.

    Default mode runs a seeded workload against a freshly built
    single-node service (or a LocalCluster with ``--cluster``) with
    sampling forced on, then renders each captured trace as an ASCII
    tree.  ``--json`` prints the canonical (timing-stripped, sibling-
    sorted) JSON instead — byte-stable across runs of the same seed,
    which is what the obs-smoke CI job diffs.  ``--url`` skips the
    seeded workload and fetches ``/traces`` from a running server.
    """
    from .obs import render_trace, validate_trace
    from .obs.render import to_json, traces_canonical_json
    from .obs.trace import Tracer, span_from_dict

    if args.url:
        from urllib.parse import urlparse

        from .service.client import ServiceClient

        parsed = urlparse(
            args.url if "//" in args.url else f"http://{args.url}"
        )
        client = ServiceClient(parsed.hostname or "127.0.0.1", parsed.port or 80)
        payload = client.traces()
        traces = [span_from_dict(tree) for tree in payload.get("traces", [])]
        print(
            f"tracer on {args.url}: {payload.get('tracer')}", file=sys.stderr
        )
    else:
        from .cluster.verify import default_cluster_corpus

        specs, queries = default_cluster_corpus(args.papers, seed=args.seed)
        workload = (queries * ((args.queries // len(queries)) + 1))[
            : args.queries
        ]
        tracer = Tracer(sample="always", buffer_size=max(64, args.queries))
        if args.cluster:
            from .cluster.local import LocalCluster

            with LocalCluster(
                specs,
                num_shards=args.shards,
                replicas=args.replicas,
                coordinator_options={"tracer": tracer},
            ) as cluster:
                for query in workload:
                    cluster.search(query, m=args.m)
        else:
            from .cluster.verify import single_node_oracle

            service = single_node_oracle(specs)
            service.tracer = tracer
            for query in workload:
                service.search(query, m=args.m)
        traces = tracer.buffer.traces()

    if not traces:
        print("no traces captured", file=sys.stderr)
        return 1

    problems: List[str] = []
    for root in traces:
        problems.extend(validate_trace(root))
    if args.check:
        for problem in problems:
            print(f"trace invariant: {problem}")
        print(
            f"trace check over {len(traces)} trace(s): "
            + ("FAILED" if problems else "ok")
        )
        return 1 if problems else 0
    if problems:
        # Not in check mode, but a lying trace should never print silently.
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)

    if args.json:
        print(traces_canonical_json(traces))
    elif args.full_json:
        print("[" + ",\n".join(to_json(root) for root in traces) + "]")
    else:
        for root in traces:
            print(render_trace(root))
            print()
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a seeded profiled workload and render per-query cost profiles.

    Default mode builds a single-node service with profiling enabled and
    runs the seeded workload; ``--cluster`` boots a LocalCluster with
    profiling on every worker and merges the shards' registries on the
    coordinator.  ``--json`` prints the canonical export — timing
    side-channels stripped, keys sorted — which is byte-identical across
    two runs of the same seed and is what the obs-profile-smoke CI job
    diffs.  ``--url`` fetches ``/profile`` from a running server.
    """
    from .obs.profile import ProfileRegistry, canonical_profile_json
    from .obs.render import render_profile

    if args.url:
        from urllib.parse import urlparse

        from .service.client import ServiceClient

        parsed = urlparse(
            args.url if "//" in args.url else f"http://{args.url}"
        )
        client = ServiceClient(parsed.hostname or "127.0.0.1", parsed.port or 80)
        snapshot = client.profile()
    else:
        from .cluster.verify import default_cluster_corpus

        specs, queries = default_cluster_corpus(args.papers, seed=args.seed)
        workload = (queries * ((args.queries // len(queries)) + 1))[
            : args.queries
        ]
        if args.cluster:
            from .cluster.local import LocalCluster

            with LocalCluster(
                specs,
                num_shards=args.shards,
                replicas=args.replicas,
                worker_options={"profile": True},
            ) as cluster:
                for query in workload:
                    cluster.search(query, m=args.m)
                snapshot = cluster.profile_snapshot()
        else:
            from .cluster.verify import single_node_oracle

            service = single_node_oracle(specs)
            service.profiles = ProfileRegistry()
            for query in workload:
                service.search(query, m=args.m)
            snapshot = service.profile_snapshot()

    if not snapshot.get("enabled"):
        print("profiling is not enabled on the target", file=sys.stderr)
        return 1
    if args.json:
        print(canonical_profile_json(snapshot))
    else:
        print(render_profile(snapshot, top=args.top))
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """Run a seeded workload and report SLO burn rates (gate with --check).

    Fault-free, the availability and latency budgets stay intact and
    ``--check`` exits 0.  With ``--fault-rate`` above zero the corpus is
    rebuilt on checksummed storage, a seeded read-fault storm is
    injected (caches off, so repeats cannot hide behind the result
    cache) and enough queries error out to blow the budget — the arm the
    CI job asserts exits 1.
    """
    from .cluster.verify import default_cluster_corpus, single_node_oracle
    from .errors import ReproError

    specs, queries = default_cluster_corpus(args.papers, seed=args.seed)
    workload = (queries * ((args.queries // len(queries)) + 1))[
        : args.queries
    ]
    if args.fault_rate > 0:
        from .cluster.worker import parse_spec
        from .config import StorageParams, XRankConfig
        from .engine import XRankEngine
        from .faults import READ_SITES, FaultPlan
        from .service.core import XRankService

        engine = XRankEngine(
            config=XRankConfig(storage=StorageParams(checksums=True))
        )
        for spec in sorted(specs, key=lambda s: s.doc_id):
            engine.add_document(parse_spec(spec))
        engine.build(kinds=("dil", "hdil"))
        engine.set_fault_plan(
            FaultPlan.uniform(args.seed, args.fault_rate, sites=READ_SITES)
        )
        service = XRankService(
            engine,
            kinds=("dil", "hdil"),
            result_cache_size=0,
            list_cache_size=0,
        )
    else:
        service = single_node_oracle(specs)

    errors = 0
    for query in workload:
        try:
            service.search(query, m=args.m)
        except ReproError:
            errors += 1  # accounted by the service's SLO monitor

    snapshot = service.metrics.slo_snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(
            f"slo over {len(workload)} queries "
            f"(fault rate {args.fault_rate}, {errors} errors):"
        )
        for name in ("availability", "latency"):
            part = snapshot[name]
            print(
                f"  {name:>12}: target={part['target']} "
                f"fast_burn={part['fast_burn']:.2f} "
                f"slow_burn={part['slow_burn']:.2f} "
                f"bad={part['bad_total']} "
                + ("BREACH" if part["breach"] else "ok")
            )
    if args.check:
        if snapshot["breach"]:
            print("slo check: FAILED (error budget burn over threshold)")
            return 1
        print("slo check: ok")
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Save to / recover from / verify a generational snapshot store."""
    from .durability import SnapshotStore

    if args.snapshot_action == "save":
        engine = _load_engine(args.index)
        store = SnapshotStore(args.dir, keep=args.keep)
        info = store.save(engine)
        print(
            f"committed generation {info.number} "
            f"({info.parts} part(s), {info.bytes} bytes) -> {info.path}"
        )
        return 0

    if args.snapshot_action == "load":
        store = SnapshotStore(args.dir)
        engine, info = store.recover()
        counters = store.counters()
        fell_back = counters["fallbacks"] > 0
        print(
            f"recovered generation {info.number} from {args.dir}"
            + (
                f" (fell back past {counters['generations_rejected']} "
                "rejected generation(s))"
                if fell_back
                else ""
            )
        )
        for key, value in engine.stats().items():
            print(f"  {key}: {value}")
        if args.query:
            hits = engine.search(args.query, m=args.m, kind=args.kind)
            print(f"  query {args.query!r} -> {len(hits)} result(s)")
            for position, hit in enumerate(hits, start=1):
                print(f"  {position:>2}. [{hit.rank:.6f}] <{hit.tag}> {hit.path}")
        return 0

    # verify: the crash-point battery (recover-or-fallback proof).
    from .durability import verify_durability

    report = verify_durability(
        seed=args.seed,
        interior_offsets=args.offsets,
        keep_dir=args.keep_dir,
    )
    if args.json:
        print(report.to_json())
    else:
        print(
            f"durability verify seed={report.seed}: {report.cases} crash "
            f"cases over {report.offsets_swept} byte offsets + "
            f"{max(0, report.cases - 2 * report.offsets_swept)} "
            "seeded fault-site runs"
        )
        print(
            f"  recovered new generation: {report.recovered_new}   "
            f"fell back to previous: {report.recovered_previous}"
        )
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
        print(
            "ok: every crash point recovered or fell back cleanly"
            if report.ok
            else "FAILED: mixed or silently wrong state detected"
        )
    return 0 if report.ok else 1


def cmd_fsck(args: argparse.Namespace) -> int:
    """Validate every generation in a snapshot store, offline."""
    from .durability import SnapshotStore

    store = SnapshotStore(args.dir)
    report = store.fsck()
    if args.json:
        print(report.to_json(), end="")
        return 0 if report.ok else 1
    if not report.generations:
        print(f"{args.dir}: no snapshot generations")
        return 1
    for info in sorted(report.generations, key=lambda gen: gen.number):
        status = "ok" if info.ok else "CORRUPT"
        print(
            f"gen-{info.number:07d}: {status} "
            f"({info.parts} part(s), {info.bytes} bytes)"
        )
        for problem in info.problems:
            print(f"    {problem}")
    if report.ok:
        print(f"newest recoverable generation: {report.newest_valid}")
        return 0
    print("no recoverable generation: a restart would need a rebuild")
    return 1


def cmd_demo(_args: argparse.Namespace) -> int:
    """Build and query a tiny in-memory demo corpus."""
    engine = _demo_engine()
    print("demo corpus:", engine.stats())
    for query in ("xql language", "xml workshop"):
        print(f"\nquery: {query!r}")
        for hit in engine.search(query, m=5):
            print(" ", hit)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (index / search / stats / demo)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XRANK: ranked keyword search over XML/HTML documents",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    index_cmd = commands.add_parser("index", help="index files into an engine")
    index_cmd.add_argument("paths", nargs="+", help="files or directories")
    index_cmd.add_argument("--out", required=True, help="output engine file")
    index_cmd.add_argument(
        "--kinds", nargs="+", default=["hdil"], choices=list(INDEX_KINDS)
    )
    index_cmd.add_argument(
        "--scorer", default="elemrank", choices=["elemrank", "tfidf"]
    )
    index_cmd.set_defaults(handler=cmd_index)

    build_cmd = commands.add_parser(
        "build",
        help="index files with the parallel sharded build (repro.build)",
    )
    build_cmd.add_argument("paths", nargs="+", help="files or directories")
    build_cmd.add_argument(
        "--out", default=None, help="engine file to write (optional)"
    )
    build_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 1 = sequential fallback",
    )
    build_cmd.add_argument(
        "--kinds", nargs="+", default=["hdil"], choices=list(INDEX_KINDS)
    )
    build_cmd.add_argument(
        "--scorer", default="elemrank", choices=["elemrank", "tfidf"]
    )
    build_cmd.add_argument(
        "--spill-dir", default=None,
        help="spill partial posting runs to files under this directory",
    )
    build_cmd.add_argument(
        "--verify", action="store_true",
        help="rebuild sequentially and require byte-identical output",
    )
    build_cmd.add_argument(
        "--strict-parse", action="store_true",
        help="fail on the first unparseable file instead of skipping it",
    )
    build_cmd.add_argument(
        "--json", default=None,
        help="write a machine-readable build report to this path",
    )
    build_cmd.set_defaults(handler=cmd_build)

    search_cmd = commands.add_parser("search", help="query an engine file")
    search_cmd.add_argument("index", help="engine file from `repro index`")
    search_cmd.add_argument("query", help="keyword query")
    search_cmd.add_argument("-m", type=int, default=10, help="result count")
    search_cmd.add_argument("--kind", default="hdil", choices=list(INDEX_KINDS))
    search_cmd.add_argument("--mode", default="and", choices=["and", "or"])
    search_cmd.add_argument(
        "--context", action="store_true", help="print ancestor chains"
    )
    search_cmd.set_defaults(handler=cmd_search)

    explain_cmd = commands.add_parser(
        "explain", help="show the rank decomposition of the top results"
    )
    explain_cmd.add_argument("index", help="engine file")
    explain_cmd.add_argument("query", help="keyword query")
    explain_cmd.add_argument("-m", type=int, default=5)
    explain_cmd.add_argument("--kind", default="hdil", choices=list(INDEX_KINDS))
    explain_cmd.set_defaults(handler=cmd_explain)

    stats_cmd = commands.add_parser("stats", help="show engine statistics")
    stats_cmd.add_argument("index", help="engine file")
    stats_cmd.set_defaults(handler=cmd_stats)

    serve_cmd = commands.add_parser(
        "serve", help="serve an engine over JSON/HTTP"
    )
    serve_cmd.add_argument(
        "index", nargs="?", default=None,
        help="engine file (omitted: built-in demo corpus)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8712)
    serve_cmd.add_argument(
        "--max-concurrent", type=int, default=8,
        help="queries executing at once (admission control)",
    )
    serve_cmd.add_argument(
        "--queue-limit", type=int, default=64,
        help="requests allowed to wait for a slot before 503s",
    )
    serve_cmd.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-query budget; expiring queries degrade",
    )
    serve_cmd.add_argument(
        "--result-cache", type=int, default=256,
        help="query-result cache entries (0 disables)",
    )
    serve_cmd.add_argument(
        "--list-cache", type=int, default=256,
        help="decoded posting-list cache entries (0 disables)",
    )
    serve_cmd.add_argument(
        "--check", action="store_true",
        help="bind an ephemeral port, serve one query, exit (CI smoke)",
    )
    serve_cmd.add_argument(
        "--query", default=None, help="query used by --check"
    )
    serve_cmd.add_argument(
        "--trace-sample", default="never",
        choices=("never", "always", "ratio", "slow"),
        help="query tracing mode; sampled traces appear on /traces and "
        "via `repro trace --url`",
    )
    serve_cmd.add_argument(
        "--trace-ratio", type=float, default=0.1,
        help="fraction sampled under --trace-sample ratio (deterministic)",
    )
    serve_cmd.add_argument(
        "--trace-slow-ms", type=float, default=100.0,
        help="retention threshold under --trace-sample slow",
    )
    serve_cmd.add_argument(
        "--profile", action="store_true",
        help="collect per-query cost profiles, served on /profile and "
        "via `repro profile --url`",
    )
    serve_cmd.set_defaults(handler=cmd_serve)

    check_cmd = commands.add_parser(
        "check", help="run the project lint rules and correctness gates"
    )
    check_cmd.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: [tool.repro.check] "
        "paths, falling back to the installed repro package)",
    )
    check_cmd.add_argument(
        "--strict", action="store_true",
        help="also validate structural invariants on a built corpus and "
        "run the lock-order tracer (the CI gate)",
    )
    check_cmd.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    check_cmd.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable report to PATH ('-' for stdout)",
    )
    check_cmd.add_argument(
        "--github", action="store_true",
        help="emit GitHub Actions ::error annotations for every finding",
    )
    check_cmd.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by inline repro: ignore comments",
    )
    check_cmd.set_defaults(handler=cmd_check)

    stress_cmd = commands.add_parser(
        "stress",
        help="seeded concurrency storms under the lockset/happens-before "
        "race detector (exit 1 on any race)",
    )
    stress_cmd.add_argument(
        "--seed", type=int, default=0,
        help="drives every thread's operation plan (default 0)",
    )
    stress_cmd.add_argument(
        "--scenario", dest="scenarios", action="append",
        choices=("components", "service", "cluster"),
        help="run only this storm (repeatable; default: all three)",
    )
    stress_cmd.add_argument(
        "--ops-scale", type=float, default=1.0,
        help="multiply each scenario's per-thread operation count",
    )
    stress_cmd.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the canonical (bit-reproducible) report to PATH "
        "('-' for stdout)",
    )
    stress_cmd.set_defaults(handler=cmd_stress)

    chaos_cmd = commands.add_parser(
        "chaos",
        help="seeded fault storm over build+serve, checked against a "
        "fault-free oracle (exit 1 on any silent wrong answer)",
    )
    chaos_cmd.add_argument(
        "--seed", type=int, default=1337,
        help="drives the corpus, the queries and every fault decision",
    )
    chaos_cmd.add_argument(
        "--fault-rate", type=float, default=0.05,
        help="per-read probability for each storage fault site",
    )
    chaos_cmd.add_argument(
        "--queries", type=int, default=40, help="queries in the storm"
    )
    chaos_cmd.add_argument(
        "--papers", type=int, default=60, help="synthetic corpus size"
    )
    chaos_cmd.add_argument(
        "--kind", default="hdil", choices=sorted(INDEX_KINDS),
        help="index kind the queries request",
    )
    chaos_cmd.add_argument(
        "--workers", type=int, default=2,
        help="parallel-build workers for the faulted build",
    )
    chaos_cmd.add_argument(
        "--tiny", action="store_true",
        help="clamp the storm to CI-smoke scale (<=24 docs, <=12 queries)",
    )
    chaos_cmd.add_argument(
        "--json", action="store_true",
        help="emit the canonical JSON report (bit-for-bit comparable)",
    )
    chaos_cmd.add_argument(
        "--cluster", action="store_true",
        help="storm a sharded cluster instead: replica kills + in-flight "
        "RPC faults, classified against the single-node oracle",
    )
    chaos_cmd.add_argument(
        "--shards", type=int, default=2, help="cluster shards (--cluster)"
    )
    chaos_cmd.add_argument(
        "--replicas", type=int, default=2,
        help="replicas per shard (--cluster)",
    )
    chaos_cmd.add_argument(
        "--kill-rate", type=float, default=0.15,
        help="per-query probability of killing a replica (--cluster)",
    )
    chaos_cmd.add_argument(
        "--rpc-fault-rate", type=float, default=0.05,
        help="per-RPC probability of an injected in-flight fault "
        "(--cluster)",
    )
    chaos_cmd.add_argument(
        "--rejoin-rate", type=float, default=0.5,
        help="fraction of revivals that take the full crash path — "
        "recover the shard from its snapshot store, re-verify stats "
        "coverage, re-register (--cluster)",
    )
    chaos_cmd.set_defaults(handler=cmd_chaos)

    cluster_cmd = commands.add_parser(
        "cluster",
        help="serve a sharded cluster with scatter-gather top-k, or "
        "verify its single-node identity (--check)",
    )
    cluster_cmd.add_argument(
        "--shards", type=int, default=2, help="number of corpus shards"
    )
    cluster_cmd.add_argument(
        "--replicas", type=int, default=1, help="replicas per shard"
    )
    cluster_cmd.add_argument(
        "--papers", type=int, default=36,
        help="seeded DBLP corpus size to shard and serve",
    )
    cluster_cmd.add_argument(
        "--seed", type=int, default=23, help="corpus/workload seed"
    )
    cluster_cmd.add_argument(
        "--check", action="store_true",
        help="run the identity battery (cluster answers must be "
        "bit-for-bit the single-node answers) instead of serving",
    )
    cluster_cmd.add_argument(
        "--shard-counts", type=int, nargs="*", default=None,
        help="shard counts the --check battery sweeps (default 1 2 4)",
    )
    cluster_cmd.add_argument("--host", default="127.0.0.1")
    cluster_cmd.add_argument(
        "--port", type=int, default=0,
        help="coordinator port (0 = ephemeral)",
    )
    cluster_cmd.add_argument(
        "--smoke", action="store_true",
        help="boot, answer one scatter-gather query over HTTP, shut down",
    )
    cluster_cmd.set_defaults(handler=cmd_cluster)

    trace_cmd = commands.add_parser(
        "trace",
        help="run a seeded traced workload (or fetch /traces from a "
        "server) and render span trees or canonical JSON",
    )
    trace_cmd.add_argument(
        "--cluster", action="store_true",
        help="trace through a LocalCluster: one stitched cross-process "
        "trace per query (scatter -> per-shard RPC -> remote evaluate)",
    )
    trace_cmd.add_argument(
        "--queries", type=int, default=3,
        help="number of seeded workload queries to trace",
    )
    trace_cmd.add_argument("-m", type=int, default=5, help="top-m results")
    trace_cmd.add_argument(
        "--papers", type=int, default=36,
        help="seeded DBLP corpus size",
    )
    trace_cmd.add_argument(
        "--seed", type=int, default=23, help="corpus/workload seed"
    )
    trace_cmd.add_argument(
        "--shards", type=int, default=2, help="cluster shards (--cluster)"
    )
    trace_cmd.add_argument(
        "--replicas", type=int, default=2,
        help="replicas per shard (--cluster)",
    )
    trace_cmd.add_argument(
        "--json", action="store_true",
        help="emit canonical JSON (timing stripped, siblings sorted): "
        "byte-stable across runs of the same seeded workload",
    )
    trace_cmd.add_argument(
        "--full-json", action="store_true",
        help="emit full JSON including durations and io deltas "
        "(not byte-stable)",
    )
    trace_cmd.add_argument(
        "--check", action="store_true",
        help="validate span-tree invariants over the captured traces "
        "and exit non-zero on any violation",
    )
    trace_cmd.add_argument(
        "--url", default=None,
        help="fetch /traces from a running server (host:port or URL) "
        "instead of running the seeded workload",
    )
    trace_cmd.set_defaults(handler=cmd_trace)

    profile_cmd = commands.add_parser(
        "profile",
        help="run a seeded profiled workload (or fetch /profile from a "
        "server) and render per-query cost profiles",
    )
    profile_cmd.add_argument(
        "--cluster", action="store_true",
        help="profile through a LocalCluster: per-worker registries "
        "merged cell-wise on the coordinator",
    )
    profile_cmd.add_argument(
        "--queries", type=int, default=12,
        help="number of seeded workload queries to profile",
    )
    profile_cmd.add_argument("-m", type=int, default=5, help="top-m results")
    profile_cmd.add_argument(
        "--papers", type=int, default=36, help="seeded DBLP corpus size"
    )
    profile_cmd.add_argument(
        "--seed", type=int, default=23, help="corpus/workload seed"
    )
    profile_cmd.add_argument(
        "--shards", type=int, default=2, help="cluster shards (--cluster)"
    )
    profile_cmd.add_argument(
        "--replicas", type=int, default=1,
        help="replicas per shard (--cluster)",
    )
    profile_cmd.add_argument(
        "--top", type=int, default=10,
        help="aggregate cells to show in the text rendering",
    )
    profile_cmd.add_argument(
        "--json", action="store_true",
        help="emit canonical JSON (cpu timings stripped, keys sorted): "
        "byte-identical across runs of the same seeded workload",
    )
    profile_cmd.add_argument(
        "--url", default=None,
        help="fetch /profile from a running server (host:port or URL) "
        "instead of running the seeded workload",
    )
    profile_cmd.set_defaults(handler=cmd_profile)

    slo_cmd = commands.add_parser(
        "slo",
        help="run a seeded workload and report multi-window SLO burn "
        "rates; --check exits 1 when the error budget is blown",
    )
    slo_cmd.add_argument(
        "--queries", type=int, default=48,
        help="number of seeded workload queries",
    )
    slo_cmd.add_argument("-m", type=int, default=5, help="top-m results")
    slo_cmd.add_argument(
        "--papers", type=int, default=36, help="seeded DBLP corpus size"
    )
    slo_cmd.add_argument(
        "--seed", type=int, default=23, help="corpus/workload/fault seed"
    )
    slo_cmd.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="per-read probability for each storage fault site; above "
        "zero the workload runs on checksummed storage with caches off",
    )
    slo_cmd.add_argument(
        "--check", action="store_true",
        help="exit 1 if any SLO's fast AND slow burn rates are over "
        "their thresholds",
    )
    slo_cmd.add_argument(
        "--json", action="store_true", help="emit the SLO snapshot as JSON"
    )
    slo_cmd.set_defaults(handler=cmd_slo)

    snapshot_cmd = commands.add_parser(
        "snapshot",
        help="save to / recover from / crash-test a generational "
        "snapshot store (repro.durability)",
    )
    snapshot_sub = snapshot_cmd.add_subparsers(
        dest="snapshot_action", required=True
    )
    snap_save = snapshot_sub.add_parser(
        "save", help="commit an engine file as the next generation"
    )
    snap_save.add_argument("dir", help="snapshot store directory")
    snap_save.add_argument(
        "--index", required=True, help="engine file from `repro index`"
    )
    snap_save.add_argument(
        "--keep", type=int, default=2,
        help="intact generations to retain after the save",
    )
    snap_save.set_defaults(handler=cmd_snapshot)
    snap_load = snapshot_sub.add_parser(
        "load",
        help="recover the newest intact generation (falling back past "
        "crash wreckage) and print its statistics",
    )
    snap_load.add_argument("dir", help="snapshot store directory")
    snap_load.add_argument(
        "--query", default=None, help="also answer one query"
    )
    snap_load.add_argument("-m", type=int, default=5, help="result count")
    snap_load.add_argument(
        "--kind", default="hdil", choices=list(INDEX_KINDS)
    )
    snap_load.set_defaults(handler=cmd_snapshot)
    snap_verify = snapshot_sub.add_parser(
        "verify",
        help="crash the snapshot writer at every structural boundary, "
        "seeded byte offsets and every write-side fault site; prove "
        "recover-or-fallback with bit-identical answers (exit 1 on any "
        "mixed state)",
    )
    snap_verify.add_argument(
        "--seed", type=int, default=0,
        help="seeds the interior crash offsets and the fault plans",
    )
    snap_verify.add_argument(
        "--offsets", type=int, default=12,
        help="seeded interior crash offsets beyond the structural "
        "boundaries",
    )
    snap_verify.add_argument(
        "--json", action="store_true",
        help="emit the canonical JSON report (bit-for-bit comparable)",
    )
    snap_verify.add_argument(
        "--keep-dir", default=None,
        help="keep working state under this directory (CI artifacts)",
    )
    snap_verify.set_defaults(handler=cmd_snapshot)

    fsck_cmd = commands.add_parser(
        "fsck",
        help="validate every generation in a snapshot store offline "
        "(exit 1 if nothing is recoverable)",
    )
    fsck_cmd.add_argument("dir", help="snapshot store directory")
    fsck_cmd.add_argument(
        "--json", action="store_true",
        help="emit the canonical JSON report",
    )
    fsck_cmd.set_defaults(handler=cmd_fsck)

    demo_cmd = commands.add_parser("demo", help="run a tiny built-in demo")
    demo_cmd.set_defaults(handler=cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (XRankError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
