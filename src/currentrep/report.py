"""Verification report records and their JSON / TSV / pretty renderings."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class Check:
    """One verified claim: computed oracle value against the formula value."""

    claim: str
    paper_ref: str
    params: dict
    formula_value: object
    oracle_value: object
    match: bool
    seed: int
    millis: int = 0

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "paper_ref": self.paper_ref,
            "params": self.params,
            "formula_value": _jsonable(self.formula_value),
            "oracle_value": _jsonable(self.oracle_value),
            "match": self.match,
            "seed": self.seed,
            "millis": self.millis,
        }


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if hasattr(v, "item"):  # numpy scalars
        return v.item()
    return v


@dataclass
class SuiteReport:
    """Checks and skips of one suite run.

    Each check's ``millis`` is the time since the previous check or skip was
    recorded (for the first one, since the report was created), so the
    check times add up to the suite time.
    """

    suite: str
    config: dict
    checks: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    _mark: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._mark = time.monotonic()

    def _lap(self) -> int:
        now = time.monotonic()
        millis = int((now - self._mark) * 1000)
        self._mark = now
        return millis

    def add(self, claim, paper_ref, params, formula_value, oracle_value, seed) -> Check:
        chk = Check(claim, paper_ref, params, formula_value, oracle_value,
                    _values_match(formula_value, oracle_value), seed, self._lap())
        self.checks.append(chk)
        return chk

    def skip(self, claim, reason):
        self._lap()
        self.skipped.append({"claim": claim, "reason": reason})

    @property
    def passed(self) -> bool:
        return all(c.match for c in self.checks)

    @property
    def counts(self):
        good = sum(1 for c in self.checks if c.match)
        return good, len(self.checks)

    def to_json(self, drop_millis: bool = False) -> str:
        body = [c.to_dict() for c in self.checks]
        if drop_millis:
            for c in body:
                c.pop("millis", None)
        doc = {"suite": self.suite, "config": self.config,
               "checks": body, "skipped": self.skipped}
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_tsv(self) -> str:
        cols = ["claim", "paper_ref", "params", "formula_value",
                "oracle_value", "match", "seed", "millis"]
        lines = ["\t".join(cols)]
        for c in self.checks:
            d = c.to_dict()
            lines.append("\t".join(json.dumps(d[k], sort_keys=True)
                                   if not isinstance(d[k], str) else d[k]
                                   for k in cols))
        return "\n".join(lines)

    def to_pretty(self) -> str:
        good, total = self.counts
        lines = [f"suite {self.suite}  [{good}/{total} checks pass]  config {self.config}"]
        for c in self.checks:
            mark = "PASS" if c.match else "FAIL"
            lines.append(f"  {mark}  {c.claim}  (anchor: {c.paper_ref})")
            lines.append(f"        formula={c.formula_value}  oracle={c.oracle_value}")
        for s in self.skipped:
            lines.append(f"  SKIP  {s['claim']}  ({s['reason']})")
        return "\n".join(lines)


def _values_match(a, b) -> bool:
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_values_match(x, y) for x, y in zip(a, b))
    return a == b
