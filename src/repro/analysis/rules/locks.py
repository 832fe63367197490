"""lock-discipline: service code touches the engine only under the lock.

``XRankEngine`` is single-threaded; the service wraps it in a
writer-preference :class:`~repro.service.concurrency.ReadWriteLock`.  An
engine attribute read outside ``with lock.read()`` / ``with
lock.write()`` races concurrent rebuilds — it can observe a half-built
index, a stale generation, or torn I/O counters.

The rule flags any ``<something>.engine.<attr>`` access in ``service/``
that is not lexically inside a ``with X.read()`` / ``with X.write()``
block where the receiver chain names a lock.  ``__init__`` is exempt
(no concurrent access exists before construction returns).  Helpers that
run with the lock held by their caller carry a
``# repro: ignore[lock-discipline]`` naming that caller.
"""

from __future__ import annotations

import ast
from typing import List

from ..linter import LintRule, Violation
from .common import dotted_name, iter_functions

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class LockDisciplineRule(LintRule):
    rule_id = "lock-discipline"
    description = (
        "service/ engine-attribute access must sit inside a lock.read() "
        "or lock.write() context"
    )
    scopes = ("service/",)

    def check(self, tree: ast.Module, source: str, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for func in iter_functions(tree):
            if func.name == "__init__":
                continue
            for child in func.body:
                self._visit(child, locked=False, path=path, out=violations)
        return violations

    def _visit(
        self, node: ast.AST, locked: bool, path: str, out: List[Violation]
    ) -> None:
        if isinstance(node, _SCOPE_NODES):
            return  # nested defs are visited as functions of their own
        if isinstance(node, ast.With):
            entered = locked or any(
                _is_lock_context(item.context_expr) for item in node.items
            )
            for item in node.items:
                self._visit(item, locked, path, out)
            for child in node.body:
                self._visit(child, entered, path, out)
            return
        if isinstance(node, ast.Attribute) and _is_engine_attribute(node):
            if not locked:
                out.append(
                    self.violation(
                        path,
                        node,
                        f"engine attribute `{dotted_name(node) or node.attr}` "
                        "accessed outside a lock.read()/lock.write() context",
                    )
                )
            return  # the nested `.engine` chain is the same access
        for child in ast.iter_child_nodes(node):
            self._visit(child, locked, path, out)


class RawLockRule(LintRule):
    """raw-lock: no bare ``threading.Lock()`` in the concurrent layers.

    ``service/`` and ``cluster/`` state is supposed to live behind
    :class:`~repro.service.concurrency.GuardedLock` — a *named* mutex the
    race detector can wrap and report on.  An anonymous
    ``threading.Lock()`` is invisible to it: it cannot appear in a
    lock-order cycle and the stress harness cannot build happens-before
    edges through it.  A site that genuinely needs a
    raw primitive (the one construction site inside ``GuardedLock``
    itself, say) carries ``# repro: ignore[raw-lock]`` with the reason.
    """

    rule_id = "raw-lock"
    description = (
        "bare threading.Lock()/RLock() in service/ or cluster/; use "
        "GuardedLock (or a traced wrapper) so analysis tooling can see it"
    )
    scopes = ("service/", "cluster/")

    _BANNED = ("threading.Lock", "threading.RLock")

    def check(self, tree: ast.Module, source: str, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in self._BANNED or name in ("Lock", "RLock"):
                violations.append(
                    self.violation(
                        path,
                        node,
                        f"bare {name}() is invisible to the lock-order "
                        "tracer and race detector; construct a named "
                        "GuardedLock instead",
                    )
                )
        return violations


def _is_engine_attribute(node: ast.Attribute) -> bool:
    """True for ``X.engine.<attr>`` — reading *through* the engine.

    A bare ``self.engine`` (handing the object somewhere) is not an index
    state access and is not flagged.
    """
    value = node.value
    return (isinstance(value, ast.Name) and value.id == "engine") or (
        isinstance(value, ast.Attribute) and value.attr == "engine"
    )


def _is_lock_context(expr: ast.AST) -> bool:
    if not isinstance(expr, ast.Call) or not isinstance(expr.func, ast.Attribute):
        return False
    if expr.func.attr not in ("read", "write"):
        return False
    receiver = dotted_name(expr.func.value)
    return receiver is not None and "lock" in receiver.lower()
