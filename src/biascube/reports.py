"""Structured results for inequality and identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one checked relation.

    ``slack`` is always rhs - lhs; ``orientation`` states which direction was
    asserted: ``le`` means lhs <= rhs (slack must be >= -tol), ``ge`` means
    lhs >= rhs (slack must be <= tol), ``eq`` means |slack| <= tol.
    """

    label: str
    lhs: float
    rhs: float
    passed: bool
    orientation: str = "le"
    tol: float = 0.0
    context: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
            "orientation": self.orientation,
            "tol": self.tol,
            "context": self.context,
        }


def checked(label: str, lhs: float, rhs: float, orientation: str = "le",
            tol: float = 0.0, **context) -> BoundReport:
    """Build a report, deciding pass from the orientation and tolerance."""
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    if orientation == "le":
        ok = slack >= -tol
    elif orientation == "ge":
        ok = slack <= tol
    elif orientation == "eq":
        ok = abs(slack) <= tol
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    return BoundReport(label, lhs, rhs, bool(ok), orientation, tol, dict(context))
