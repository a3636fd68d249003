"""Structured results for the verification suites."""

from __future__ import annotations


class VerificationReport:
    """Outcome of one verification sweep.

    ``failures`` holds canonical one-line descriptions of every
    counterexample; the suite passed exactly when it is empty.  Reports
    are deterministic apart from ``wall_time``.  Two reports are equal
    when all five fields are.
    """

    __slots__ = ("suite", "parameters", "cases", "failures", "wall_time")
    __hash__ = None  # mutable, compared by value

    def __init__(self, suite: str, parameters: dict | None = None, cases: int = 0,
                 failures: list[str] | None = None, wall_time: float = 0.0):
        self.suite = suite
        self.parameters = {} if parameters is None else parameters
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.wall_time = wall_time

    def _fields(self) -> tuple:
        return (self.suite, self.parameters, self.cases, self.failures, self.wall_time)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"VerificationReport(suite={self.suite!r}, parameters={self.parameters!r}, "
                f"cases={self.cases!r}, failures={self.failures!r}, "
                f"wall_time={self.wall_time!r})")

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "cases": self.cases,
            "failures": list(self.failures),
            "wall_time": self.wall_time,
        }

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        if self.parameters:
            params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
            lines.append(f"parameters: {params}")
        lines.append(f"cases checked: {self.cases}")
        lines.append(f"failures: {len(self.failures)}")
        for f in self.failures:
            lines.append(f"  {f}")
        lines.append(f"wall time: {self.wall_time:.2f}s")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)
