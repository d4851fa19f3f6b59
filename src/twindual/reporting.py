"""Uniform pass/fail reports for the relation-checking operations."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def matrix_witness(m) -> str:
    """Compact JSON witness for a failed matrix identity (small sizes only)."""
    if m.rows * m.cols > 144:
        return f"residual matrix {m.rows}x{m.cols}, max |entry| = {m.max_abs()}"
    return json.dumps(m.to_json(), sort_keys=True)


@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class CheckReport:
    """A named batch of individual relation checks."""

    title: str
    items: list[CheckItem] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.items.append(CheckItem(name, bool(passed), detail))

    def extend(self, other: "CheckReport") -> None:
        self.items.extend(other.items)

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": i.name, "passed": i.passed, **({"detail": i.detail} if i.detail else {})}
                for i in self.items
            ],
        }
