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


@dataclass(frozen=True)
class LawResult:
    """Outcome of one named law: how many instances ran, which failed."""

    name: str
    instances: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "ok": self.ok,
            "failures": _jsonable(self.failures),
        }


def where(bad) -> list[tuple[int, ...]]:
    """The index tuple of each true entry of a boolean array, in ascending order."""
    return [tuple(index) for index in np.argwhere(bad).tolist()]


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

    def add(self, name: str, instances: int, witnesses: list) -> None:
        """Record the law ``name``: ``instances`` ran and the list ``witnesses`` failed."""
        self.results.append(LawResult(name, instances, witnesses))

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
    report.add(name, 1, [] if witness is None else [witness])
    return report
