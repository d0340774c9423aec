"""Verification report objects shared by all suite runners."""

from __future__ import annotations

from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class Report:
    """Outcome of one verification suite: it passes exactly when it carries
    no counterexample, a payload restricted to JSON-serializable data so
    the CLI can emit it verbatim.  `elapsed` is set by the runner that
    times the whole check (`regver.cli`); a direct call leaves it 0.0."""

    suite: str
    params: dict
    counterexample: object = None
    stats: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "status": "pass" if self.passed else "fail",
            "counterexample": self.counterexample,
            "elapsed": self.elapsed,
            "stats": self.stats,
        }
