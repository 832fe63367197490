"""One shape for the seeded self-check batteries: one verdict, one report.

``repro chaos``, ``repro chaos --cluster``, ``repro stress`` and ``repro
snapshot verify`` each run a seeded plan, judge what happened against a
referee, and print a canonical JSON report that a second run at the same
seed must reproduce byte for byte (the CI smoke jobs diff them).  The
parts they share are written here, once:

* :data:`OUTCOMES` and :class:`Verdicts` — the five-way classification
  of one answer against its oracle, and the rule that a run is ``ok``
  iff no answer was a silent ``mismatch`` and no ``untyped_error``
  escaped;
* :func:`fingerprint` — what "the same answer" means: the exact, ordered
  ``(dewey, rank)`` pairs, with no rounding;
* :class:`CanonicalReport` and :func:`canonical_json` — the report
  serializer: a dataclass's fields plus its verdict, sorted keys,
  two-space indent.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Callable, Dict, List, Tuple

from .errors import ReproError

#: Outcome labels, in report order.
OUTCOMES = ("match", "degraded", "typed_error", "mismatch", "untyped_error")


def fingerprint(hits) -> List[Tuple[str, float]]:
    """Order-sensitive answer identity: exact ``(dewey, rank)`` pairs."""
    return [(hit.dewey, hit.rank) for hit in hits]


class Verdicts:
    """Per-outcome counts for one run, plus a record per invariant break."""

    def __init__(self) -> None:
        self.outcomes: Dict[str, int] = {name: 0 for name in OUTCOMES}
        self.violations: List[Dict[str, object]] = []

    @property
    def ok(self) -> bool:
        """No silent wrong answer, and no untyped error escaped."""
        return self.outcomes["mismatch"] == 0 and self.outcomes["untyped_error"] == 0

    def judge(
        self,
        ask: Callable[[], Tuple[bool, object]],
        expected: object,
        **context: object,
    ) -> str:
        """Run ``ask`` and classify its answer; return the outcome label.

        ``ask`` queries the system under test and returns ``(degraded,
        answer)``.  A :class:`~repro.errors.ReproError` is a typed error
        and any other exception an untyped one; an undegraded answer
        that differs from ``expected`` is a mismatch.  The two invariant
        breaks are recorded as violations carrying ``context``.
        """
        detail: Dict[str, object] = {}
        try:
            degraded, answer = ask()
        except ReproError:
            outcome = "typed_error"
        except Exception as exc:  # noqa: BLE001 — the classification point
            outcome = "untyped_error"
            detail = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            if degraded:
                outcome = "degraded"
            elif answer == expected:
                outcome = "match"
            else:
                outcome = "mismatch"
                detail = {"expected": expected, "actual": answer}
        self.outcomes[outcome] += 1
        if detail:
            self.violations.append({**context, "outcome": outcome, **detail})
        return outcome


def canonical_json(payload: Dict[str, object]) -> str:
    """The report serialization: sorted keys, two-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2)


class CanonicalReport:
    """Mixin for a report dataclass: every field plus the verdict is the payload.

    ``VERDICT`` names the boolean attribute (``ok`` or ``clean``) that
    joins the fields; nested reports serialize through their own
    :meth:`to_dict`.  A report therefore carries no data it does not
    print — keep wall-clock and scheduler-dependent values out of its
    fields.
    """

    VERDICT = "ok"

    def to_dict(self) -> Dict[str, object]:
        """The canonical payload: every dataclass field, then the verdict."""
        payload = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        payload[self.VERDICT] = getattr(self, self.VERDICT)
        return payload

    def to_json(self) -> str:
        """Canonical JSON: bit-for-bit stable across same-seed runs."""
        return canonical_json(self.to_dict())


def _plain(value: object) -> object:
    """A JSON-ready copy of one report field."""
    if isinstance(value, CanonicalReport):
        return value.to_dict()
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value
