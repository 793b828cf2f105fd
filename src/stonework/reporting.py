"""Law-check reports shared by the lemma suites, the duality checks and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


@dataclass
class LawResult:
    """Outcome of one named law: how many instances ran, which failed."""

    name: str
    instances: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def tick(self, count: int = 1) -> None:
        self.instances += count

    def fail(self, witness) -> None:
        self.failures.append(witness)

    def fail_where(self, bad) -> None:
        """One failure per true entry of a boolean array, named by its index
        tuple, in ascending order."""
        for index in np.argwhere(bad).tolist():
            self.fail(tuple(index))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "ok": self.ok,
            "failures": _jsonable(self.failures),
        }


@dataclass
class LawReport:
    """A batch of law results for one subject (monoid, groupoid, map...)."""

    subject: str
    results: list[LawResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failure_count(self) -> int:
        return sum(len(r.failures) for r in self.results)

    def new(self, name: str) -> LawResult:
        result = LawResult(name)
        self.results.append(result)
        return result

    def extend(self, other: "LawReport") -> None:
        self.results.extend(other.results)

    def get(self, name: str) -> LawResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "failures": self.failure_count,
            "laws": [r.to_json() for r in self.results],
        }


def one_law(subject: str, name: str, witness) -> LawReport:
    """A report of one law instance, failed with ``witness`` unless it is None."""
    report = LawReport(subject)
    law = report.new(name)
    law.tick()
    if witness is not None:
        law.fail(witness)
    return report
