"""Generic check toolkit for replication evals.

A *check* turns experiment results into a :class:`CheckResult` with a
three-valued verdict:

* ``PASS`` — the measured values satisfy the claim within its declared
  tolerance band.
* ``FAIL`` — the values are present and definitively outside the band:
  the reproduction regressed on this claim.
* ``SKIP`` — the claim could not be evaluated (the experiment cell
  errored, a metric is absent, ``None`` or NaN).  SKIP is never a
  crash: a half-broken run still yields a scored report.

Tolerance boundaries are **inclusive** on both ends (``lo <= x <= hi``),
so a value landing exactly on a band edge scores deterministically —
``tests/test_evals.py::test_band_boundaries_are_inclusive`` pins this.
A check that states a strict inequality (``x > lo``) passes
``strict=True``, which excludes both edges: then a tie, such as two runs
of a knob that no longer has any effect, FAILs.

A claim declares each of its bands once, as a :class:`Band`; its check
scores a value by calling the band, and its expected text and the
traceability table in ``docs/replication.md`` are generated from the
declarations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

STATUSES = (PASS, FAIL, SKIP)


class MissingMetric(Exception):
    """A metric a check needs is absent, ``None`` or NaN.

    Raised by :func:`metric` and converted to a ``SKIP`` verdict by the
    runner — a failed or partial experiment cell must never crash the
    replication report.
    """


@dataclass
class CheckResult:
    """Outcome of one claim check."""

    status: str
    measured: object = None  #: JSON-able measured value(s) behind the verdict
    expected: str = ""  #: human-readable restatement of the tolerance band
    delta: Optional[float] = None  #: signed margin to the nearest band edge
    detail: str = ""  #: one-line explanation (why SKIP / what failed)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {self.status!r}")

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "measured": self.measured,
            "expected": self.expected,
            "delta": self.delta,
            "detail": self.detail,
        }


def metric(results: object, *path):
    """Walk ``results`` through nested dict keys / sequence indices.

    Raises :class:`MissingMetric` when any step is absent or the leaf
    is ``None`` or NaN, so checks never propagate bogus numbers into a
    PASS/FAIL verdict.
    """
    node = results
    for step in path:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            raise MissingMetric(
                f"missing metric at {'/'.join(map(str, path))!r} (step {step!r})"
            ) from None
    if node is None:
        raise MissingMetric(f"metric {'/'.join(map(str, path))!r} is None")
    if isinstance(node, float) and math.isnan(node):
        raise MissingMetric(f"metric {'/'.join(map(str, path))!r} is NaN")
    return node


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with a zero guard → :class:`MissingMetric`."""
    if denominator == 0:
        raise MissingMetric("ratio denominator is zero")
    return numerator / denominator


def in_band(
    value: float, lo: Optional[float], hi: Optional[float], strict: bool = False
) -> bool:
    """Band membership, inclusive unless ``strict``; ``None`` is unbounded."""
    if lo is not None and (value <= lo if strict else value < lo):
        return False
    if hi is not None and (value >= hi if strict else value > hi):
        return False
    return True


def band_margin(value: float, lo: Optional[float], hi: Optional[float]) -> float:
    """Signed distance to the nearest band edge (>= 0 inside the band)."""
    margins = []
    if lo is not None:
        margins.append(value - lo)
    if hi is not None:
        margins.append(hi - value)
    return min(margins) if margins else float("inf")


def check_band(
    value: float,
    lo: Optional[float],
    hi: Optional[float],
    label: str,
    measured: object = None,
    strict: bool = False,
) -> CheckResult:
    """One-number band check with an auto-generated expected string."""
    ok = in_band(value, lo, hi, strict)
    expected = _describe_band(label, lo, hi, strict)
    return CheckResult(
        status=PASS if ok else FAIL,
        measured=measured if measured is not None else value,
        expected=expected,
        delta=band_margin(value, lo, hi),
        detail="" if ok else f"{label} = {value:.4g} outside [{lo}, {hi}]",
    )


@dataclass(frozen=True)
class Band:
    """One declared tolerance band: ``lo <= value <= hi`` (``<`` if strict).

    ``what`` names the quantity for the generated docs.  A band whose
    edge comes from the results (a pair count of ``GPUs / 2``, a
    request count of ``submitted``) sets ``equals`` to that quantity's
    name instead of ``lo``/``hi``, and its check passes the value as
    ``equal_to``.
    """

    lo: Optional[float] = None
    hi: Optional[float] = None
    strict: bool = False
    what: str = ""
    equals: str = ""

    def __call__(
        self,
        value: float,
        label: str,
        measured: object = None,
        equal_to: Optional[float] = None,
    ) -> CheckResult:
        """Score ``value`` (sub-check ``label``) against this band."""
        if bool(self.equals) != (equal_to is not None):
            raise TypeError(
                f"band {self.what!r} takes equal_to iff it declares equals"
            )
        lo, hi = (equal_to, equal_to) if self.equals else (self.lo, self.hi)
        return check_band(value, lo, hi, label, measured=measured, strict=self.strict)

    def describe(self) -> str:
        """The band as the docs state it, e.g. ``"speedup >= 4"``."""
        if self.equals:
            return f"{self.what} = {self.equals}"
        return _describe_band(self.what, self.lo, self.hi, self.strict)


def check_all(results: Sequence[CheckResult]) -> CheckResult:
    """Conjunction of sub-checks: FAIL dominates, then SKIP, then PASS."""
    if not results:
        return CheckResult(SKIP, detail="no sub-checks ran")
    worst = min(
        results, key=lambda r: {FAIL: 0, SKIP: 1, PASS: 2}[r.status]
    )
    if worst.status == PASS:
        deltas = [r.delta for r in results if r.delta is not None]
        return CheckResult(
            PASS,
            measured=[r.measured for r in results],
            delta=min(deltas) if deltas else None,
            detail="",
        )
    return worst


def _describe_band(
    label: str, lo: Optional[float], hi: Optional[float], strict: bool = False
) -> str:
    le, ge = ("<", ">") if strict else ("<=", ">=")
    if lo is not None and lo == hi:
        return f"{label} = {lo:g}"
    if lo is not None and hi is not None:
        return f"{lo:g} {le} {label} {le} {hi:g}"
    if lo is not None:
        return f"{label} {ge} {lo:g}"
    if hi is not None:
        return f"{label} {le} {hi:g}"
    return f"{label} unconstrained"
