"""Claim registry: the catalog of per-claim replication evaluators.

Each :class:`Claim` binds one paper claim (a figure/table result stated
in the Aqua paper's evaluation) to the experiment cell(s) that measure
it, the check function that scores it, and the tolerance bands inside
which the reproduction counts as replicating the claim.  The registry
is the single source of truth consumed by the runner
(:mod:`repro.evals.runner`), the CLI (``aqua-repro replicate --list``)
and the traceability table in ``docs/replication.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

from repro.evals.checks import Band, CheckResult


@dataclass(frozen=True)
class Claim:
    """One evaluable claim from the paper's evaluation.

    Parameters
    ----------
    id:
        Stable kebab-case identifier, prefixed with the experiment it
        rides on (``fig07-speedup``) — ``--only fig07`` selects every
        claim with this prefix.
    figure:
        The paper artifact the claim comes from (``"Figure 7"``).
    claim:
        The claim as the paper states it (quoted or tightly
        paraphrased).
    experiments:
        Names of the :data:`repro.experiments.runall.EXPERIMENTS`
        cells the check consumes.  The runner executes each needed cell
        exactly once through :mod:`repro.experiments.pool`, so claims
        sharing a cell share its (cached) run.
    check:
        ``check(results, tol) -> CheckResult`` where ``results`` maps
        experiment name → that cell's value and ``tol`` is the claim's
        ``tolerance``.  Checks compute their values with
        :func:`repro.evals.checks.metric`, so absent/None/NaN metrics
        surface as SKIP, never as a crash, and score each one by
        calling its band: ``tol["min_ttft_gap"](value, label)``.
    tolerance:
        The claim's bands, name → :class:`~repro.evals.checks.Band`.
        Each band is stated here and nowhere else: the expected text
        and the traceability table in ``docs/replication.md`` are
        generated from it, and the runner scores a check that never
        consults one of them SKIP.
    """

    id: str
    figure: str
    claim: str
    experiments: Tuple[str, ...]
    check: Callable[[Mapping[str, object], Mapping[str, Band]], CheckResult]
    tolerance: Mapping[str, Band] = field(default_factory=dict)

    @property
    def expected(self) -> str:
        """The expected outcome, generated from the declared bands."""
        return "; ".join(band.describe() for band in self.tolerance.values())


class EvalRegistry:
    """Ordered registry of claims, keyed by id."""

    def __init__(self) -> None:
        self._claims: dict[str, Claim] = {}

    def register(self, claim: Claim) -> Claim:
        if claim.id in self._claims:
            raise ValueError(f"duplicate claim id {claim.id!r}")
        if not claim.experiments:
            raise ValueError(f"claim {claim.id!r} consumes no experiment cells")
        self._claims[claim.id] = claim
        return claim

    def claims(self) -> list[Claim]:
        """All claims, in registration order (grouped by figure)."""
        return list(self._claims.values())

    def ids(self) -> list[str]:
        return list(self._claims)

    def get(self, claim_id: str) -> Claim:
        try:
            return self._claims[claim_id]
        except KeyError:
            raise KeyError(
                f"unknown claim {claim_id!r}; known: {', '.join(self._claims)}"
            ) from None

    def select(self, only: Optional[Sequence[str]] = None) -> list[Claim]:
        """Claims matched by the ``--only`` selectors.

        A selector matches a claim when it equals the claim id, is a
        ``-``-separated prefix of it, or names one of the experiment
        cells the claim consumes (``fig09`` selects every fig09-*
        claim).  Unknown selectors raise ``KeyError`` so typos fail
        loudly instead of silently evaluating nothing.
        """
        if not only:
            return self.claims()
        selected: dict[str, Claim] = {}
        for selector in only:
            matches = [
                c
                for c in self._claims.values()
                if c.id == selector
                or c.id.startswith(selector + "-")
                or selector in c.experiments
            ]
            if not matches:
                raise KeyError(
                    f"selector {selector!r} matches no claim; "
                    f"known claims: {', '.join(self._claims)}"
                )
            for claim in matches:
                selected[claim.id] = claim
        return [c for c in self._claims.values() if c.id in selected]

    def experiments(self, claims: Optional[Sequence[Claim]] = None) -> list[str]:
        """Deduplicated experiment cells the given claims consume."""
        chosen = self.claims() if claims is None else list(claims)
        names: dict[str, None] = {}
        for claim in chosen:
            for name in claim.experiments:
                names[name] = None
        return list(names)


#: The default registry; populated by importing :mod:`repro.evals.claims`.
REGISTRY = EvalRegistry()
