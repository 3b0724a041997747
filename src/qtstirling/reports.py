"""Outcome records for symbolic identity checks, each built by `verify._Row.judge`
from one check's verdict (flags, witness)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["IdentityReport"]


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

