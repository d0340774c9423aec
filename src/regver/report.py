"""Verification report objects shared by all suite runners."""

from __future__ import annotations

from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class Report:
    """Outcome of one verification suite.

    A failing report always carries a counterexample payload; the payload is
    restricted to JSON-serializable data so the CLI can emit it verbatim.
    """

    suite: str
    params: dict
    status: str  # "pass" | "fail"
    counterexample: object = None
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"bad report status {self.status!r}")
        if self.status == "fail" and self.counterexample is None:
            raise ValueError("failing report without a counterexample")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "status": self.status,
            "counterexample": self.counterexample,
            "elapsed": self.elapsed,
            "stats": self.stats,
        }


def report(suite, params, counterexample, elapsed, stats=None) -> Report:
    """Build a Report, deriving the status from the counterexample."""
    return Report(
        suite=suite,
        params=params,
        status="fail" if counterexample is not None else "pass",
        counterexample=counterexample,
        elapsed=elapsed,
        stats=stats or {},
    )
