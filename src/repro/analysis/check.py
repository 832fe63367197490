"""The ``repro check`` driver: lint + (strict) invariants + race detection.

Plain ``repro check`` lints the source tree with the project rules.
``--strict`` — the CI gate — additionally:

* builds a small deterministic corpus, materializes all three
  Dewey-family indexes, and runs every structural invariant validator
  against them (:mod:`repro.analysis.invariants`), ending with a
  seeded query batch after which every pooled B+-tree frame must equal
  a fresh decode of its page;
* runs the race detector's self-test (:func:`repro.analysis.races.selftest`:
  a planted ABBA ordering, a nested read and an unguarded counter MUST
  each be reported, so a silently blinded detector fails the build),
  then a reduced :mod:`repro.stress` storm — components, a live
  :class:`~repro.service.core.XRankService` under concurrent readers and
  a writer over its traced lock, and a sharded cluster — which must come
  back free of races, lock-order cycles, hazards and thread errors;
* runs the cluster identity battery
  (:func:`repro.cluster.verify.verify_cluster_identity`): sharded
  serving at shard counts 1/2/4 must return bit-for-bit the single-node
  engine's ranked answers;
* runs a reduced durability battery
  (:func:`repro.durability.verify.check_durability`): the snapshot
  writer is crashed at structural boundaries, seeded byte offsets and
  every write-side fault site, and every crash point must recover the
  new generation or fall back to the previous one with bit-identical
  answers — never a mixed state.

``--json PATH`` writes the full machine-readable report; ``--github``
re-prints each finding as a GitHub Actions ``::error`` workflow command
so findings annotate the offending lines in pull-request diffs.
Exit code 0 means every gate passed.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..harness import canonical_json
from .invariants import check_engine, check_parallel_build
from .linter import LintConfig, Linter, load_lint_config
from .races import selftest
from .rules import ALL_RULES, default_rules

#: Small nested corpus with known co-occurrences (xql+language in two
#: documents, workshop+xml across most) — enough to exercise multi-page
#: lists, ElemRank over hyperlinks, and cross-index agreement.
_CHECK_CORPUS = [
    (
        "workshop.xml",
        """<workshop><title>XML and Information Retrieval</title><sessions>
<session><title>Query Languages</title>
<paper xmlns:xlink="http://www.w3.org/1999/xlink">
<title>XQL and Proximal Nodes</title>
<body><section>the XQL query language extends pattern matching</section>
<section>ranked retrieval over XML element trees</section></body>
<cite xlink:href="survey.xml"/></paper>
<paper><title>Keyword Search in Databases</title>
<body><section>keyword proximity ranking for semistructured data</section>
</body></paper></session></sessions></workshop>""",
    ),
    (
        "survey.xml",
        """<survey><title>A Survey of XML Query Languages</title>
<chapter><title>Pattern Languages</title>
<para>the XQL language and its pattern operators</para>
<para>path expressions select element subtrees</para></chapter>
<chapter><title>Ranking</title>
<para>ranked keyword search needs inverted indexes</para></chapter></survey>""",
    ),
    (
        "thesis.xml",
        """<thesis><title>Indexing Semistructured Data</title>
<chapter><section><para>inverted lists keyed by element identifiers</para>
<para>tree encodings support ancestor queries</para></section></chapter>
<chapter><section><para>query evaluation over ranked inverted lists</para>
</section></chapter></thesis>""",
    ),
    (
        "notes.xml",
        """<notes xmlns:xlink="http://www.w3.org/1999/xlink">
<note><title>Reading: XQL</title>
<body>the query language workshop paper on XQL</body>
<ref xlink:href="workshop.xml"/></note>
<note><title>Reading: ranking</title>
<body>proximity ranking and element retrieval</body>
<ref xlink:href="survey.xml"/></note></notes>""",
    ),
    (
        "glossary.xml",
        """<glossary><entry><term>element</term>
<definition>a node of an XML document tree</definition></entry>
<entry><term>ranking</term>
<definition>ordering query results by relevance</definition></entry>
<entry><term>language</term>
<definition>a formal notation such as a query language</definition></entry>
</glossary>""",
    ),
    (
        "tutorial.xml",
        """<tutorial><title>XML Retrieval Tutorial</title>
<part><title>Basics</title><para>documents decompose into element trees
</para><para>keyword queries return ranked elements</para></part>
<part><title>Advanced</title><para>the XQL language integrates structure
and keyword search</para></part></tutorial>""",
    ),
]

_CHECK_KINDS = ("dil", "rdil", "hdil")


def build_check_engine():
    """Build the deterministic strict-mode corpus (all three kinds)."""
    from ..engine import XRankEngine

    engine = XRankEngine()
    for uri, source in _CHECK_CORPUS:
        engine.add_xml(source, uri=uri)
    engine.build(kinds=_CHECK_KINDS)
    return engine


# -- race detector gate ------------------------------------------------------------


def race_smoke() -> List[str]:
    """A reduced stress storm over components, service and cluster.

    Must come back free of races, lock-order cycles and scenario errors
    (thread exceptions, hung threads, lock hazards, an untouched service
    lock).
    """
    from ..stress import run_stress

    report = run_stress(seed=0, ops_scale=0.5)
    failures: List[str] = []
    for scenario in report.scenarios:
        for race in scenario.races:
            first, second = race["first"], race["second"]
            failures.append(
                f"stress {scenario.name}: race on "
                f"{race['object']}.{race['attr']} — {first['op']} at "
                f"{first['site']} vs {second['op']} at {second['site']}"
            )
        for error in scenario.errors:
            failures.append(f"stress {scenario.name}: error: {error}")
        for cycle in scenario.lock_cycles:
            failures.append(
                f"stress {scenario.name}: lock cycle " + " -> ".join(cycle)
            )
    return failures


# -- driver ------------------------------------------------------------------------


def _github_annotation(path: str, line: int, title: str, message: str) -> str:
    """One GitHub Actions workflow command annotating a source line."""
    clean = message.replace("%", "%25").replace("\n", "%0A")
    if path:
        return f"::error file={path},line={line},title={title}::{clean}"
    return f"::error title={title}::{clean}"


def run_check(
    paths: Optional[Sequence[str]] = None,
    strict: bool = False,
    config: Optional[LintConfig] = None,
    list_rules: bool = False,
    out=None,
    json_path: Optional[str] = None,
    github: bool = False,
    show_suppressed: bool = False,
) -> int:
    """Run the gates; print findings; return a process exit code.

    Args:
        json_path: write the machine-readable report here (``-`` = stdout).
        github: additionally emit GitHub Actions ``::error`` annotations.
        show_suppressed: print findings silenced by inline suppressions.
    """
    out = out or sys.stdout
    config = config if config is not None else load_lint_config()

    if list_rules:
        for rule in ALL_RULES:
            marker = " " if config.selects(rule.rule_id) else " (disabled)"
            print(f"{rule.rule_id}{marker}: {rule.description}", file=out)
        return 0

    failures = 0
    annotations: List[str] = []
    report: Dict[str, object] = {"strict": strict}

    lint_roots = [Path(p) for p in (paths or config.paths)] or [
        Path(__file__).resolve().parent.parent
    ]
    linter = Linter(default_rules(config))
    lint = linter.lint_paths_result(lint_roots)
    for violation in lint.violations:
        print(violation.format(), file=out)
        annotations.append(
            _github_annotation(
                violation.path,
                violation.line,
                f"repro-check [{violation.rule}]",
                violation.message,
            )
        )
    failures += len(lint.violations)
    if show_suppressed:
        for violation in lint.suppressed:
            print(f"suppressed: {violation.format()}", file=out)
    for path, line, rules in lint.unused_suppressions:
        message = (
            f"unused suppression `repro: ignore[{rules}]` — it silences "
            "nothing; delete it or fix the rule list"
        )
        print(f"{path}:{line}: [unused-suppression] {message}", file=out)
        annotations.append(
            _github_annotation(path, line, "repro-check [unused-suppression]", message)
        )
    failures += len(lint.unused_suppressions)
    roots_label = ", ".join(str(r) for r in lint_roots)
    print(
        f"lint: {len(lint.violations)} violation(s), "
        f"{len(lint.suppressed)} suppressed, "
        f"{len(lint.unused_suppressions)} unused suppression(s) across "
        f"{len(linter.rules)} rule(s) in {roots_label}",
        file=out,
    )
    report["lint"] = {
        "roots": [str(r) for r in lint_roots],
        "rules": [rule.rule_id for rule in linter.rules],
        "violations": [v.to_dict() for v in lint.violations],
        "suppressed": [v.to_dict() for v in lint.suppressed],
        "unused_suppressions": [
            {"path": path, "line": line, "rules": rules}
            for path, line, rules in lint.unused_suppressions
        ],
    }

    if strict:
        from ..cluster.verify import verify_cluster_identity
        from ..durability.verify import check_durability

        gates: Dict[str, List[str]] = {}
        for gate, check, summary in (
            (
                "invariants",
                lambda: [v.format() for v in check_engine(build_check_engine())],
                f"kinds {', '.join(_CHECK_KINDS)}",
            ),
            (
                "parallel_build",
                lambda: [v.format() for v in check_parallel_build(_CHECK_CORPUS)],
                "workers 2/3 vs sequential, byte-identity",
            ),
            (
                "races",
                lambda: selftest() + race_smoke(),
                "detector self-test + reduced stress storm",
            ),
            (
                # Smaller than the CLI battery's defaults: the strict gate
                # runs on every CI push, so one replica and a compact
                # corpus — the shard-count sweep carries the argument.
                "cluster_identity",
                lambda: [
                    str(v)
                    for v in verify_cluster_identity(
                        shard_counts=(1, 2, 4), num_papers=18, m=8
                    )
                ],
                "shards 1/2/4 vs single-node, bit-for-bit",
            ),
            (
                # A reduced crash-point sweep: structural boundaries + a
                # few seeded interior offsets + every write-side fault
                # site, each proving recover-or-fallback.
                "durability",
                check_durability,
                "crash-point sweep, recover-or-fallback",
            ),
        ):
            messages = check()
            for message in messages:
                print(message, file=out)
                annotations.append(
                    _github_annotation("", 0, f"repro-check [{gate}]", message)
                )
            failures += len(messages)
            gates[gate] = messages
            print(f"{gate}: {len(messages)} failure(s) ({summary})", file=out)
        report["gates"] = gates

    report["failures"] = failures
    report["ok"] = not failures

    if github:
        for annotation in annotations:
            print(annotation, file=out)
    if json_path:
        payload = canonical_json(report)
        if json_path == "-":
            print(payload, file=out)
        else:
            Path(json_path).write_text(payload + "\n", encoding="utf-8")

    print("check: " + ("FAILED" if failures else "ok"), file=out)
    return 1 if failures else 0
