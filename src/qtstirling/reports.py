"""Outcome records for symbolic identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .algebra import RationalFn, canonical_str

__all__ = ["IdentityReport", "equality_report"]


@dataclass
class IdentityReport:
    """One symbolic identity check: id, indices used, pass/fail, failure witness."""

    identity_id: str
    index_data: dict[str, Any] = field(default_factory=dict)
    passed: bool = True
    witness: Optional[str] = None
    elapsed: float = 0.0

    def to_json_dict(self) -> dict[str, Any]:
        out = {
            "identity_id": self.identity_id,
            "index_data": self.index_data,
            "passed": self.passed,
            "elapsed": self.elapsed,
        }
        if not self.passed:
            out["witness"] = self.witness
        return out


def equality_report(identity_id: str, index_data: dict, lhs: RationalFn, rhs: RationalFn) -> IdentityReport:
    """Report asserting lhs == rhs; the witness is the canonical LHS - RHS."""
    passed = lhs == rhs
    return IdentityReport(
        identity_id=identity_id,
        index_data=index_data,
        passed=passed,
        witness=None if passed else canonical_str(lhs - rhs),
    )
