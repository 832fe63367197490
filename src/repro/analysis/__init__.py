"""Project-specific correctness tooling (``repro check``).

PR 1 made the reproduction concurrent, and with concurrency came three
disciplines that nothing in the language enforces:

* every evaluator loop that advances a posting stream must poll its
  cooperative :class:`~repro.service.admission.Deadline`, or a slow query
  blocks a worker forever;
* service code may only touch the engine while holding the
  reader-writer lock, or a query races an index rebuild;
* every engine mutation must bump the generation counter, or the
  generational caches serve results computed against a dead index.

This package machine-checks them, plus the paper's own structural
guarantees (Dewey-sorted inverted lists, B+-tree integrity, ElemRank
convergence):

* :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — an AST
  lint framework with project rules (deadline-discipline,
  lock-discipline, cache-generation, guarded-by) and general hygiene
  rules;
* :mod:`repro.analysis.races` — the one opt-in runtime lock monitor: its
  :class:`~repro.analysis.races.RaceDetector` wraps locks and
  instruments ``guarded by:`` fields, and reports data races (lockset +
  happens-before), lock-order cycles (potential ABBA deadlocks) and
  same-thread read re-entry / upgrade hazards of the writer-preference
  lock in one report;
* :mod:`repro.analysis.invariants` — deep validators for the built
  index structures;
* :mod:`repro.analysis.check` — the ``repro check`` driver wiring them
  into one CLI subcommand / CI gate.
"""

from .invariants import InvariantViolation, check_engine
from .linter import LintConfig, Linter, LintRule, Violation, load_lint_config
from .rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "InvariantViolation",
    "LintConfig",
    "Linter",
    "LintRule",
    "Violation",
    "check_engine",
    "default_rules",
    "load_lint_config",
]
