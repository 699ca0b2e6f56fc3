"""The replication runner: execute cells, score claims, build the verdict.

:func:`replicate` is the engine behind ``aqua-repro replicate``.  It

1. selects claims from the registry (all of them, or a ``--only``
   subset),
2. executes each *distinct* experiment cell the claims consume exactly
   once through :mod:`repro.experiments.pool` — so ``--jobs N`` fans
   cells out over worker processes and the content-addressed
   :class:`~repro.experiments.pool.RunCache` replays unchanged cells
   instead of re-simulating them (only cells whose code changed
   recompute on a warm cache),
3. scores every claim PASS/FAIL/SKIP with measured-vs-expected deltas,
   and
4. returns a schema-valid replication document
   (:mod:`repro.evals.schema`).

Cell failures are *contained*: the pool task (:func:`run_cell`) catches
the experiment's exception and returns an error record, so a broken
figure scores its claims SKIP (with the error in ``detail``) while
every other claim still gets a verdict.  The verdict is ``PASS`` only
when every selected claim passes: a SKIP fails it as a FAIL does.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional, Sequence

from repro.evals.checks import PASS, SKIP, CheckResult, MissingMetric
from repro.evals.registry import REGISTRY, Claim, EvalRegistry
from repro.evals.schema import REPLICATION_SCHEMA, validate_replication
from repro.experiments.pool import RunCache, RunSpec, code_fingerprint, run_specs

# Importing the catalog populates the default registry.
import repro.evals.claims  # noqa: F401  (side-effect import)


def run_cell(name: str) -> dict:
    """Pool task: run one ``runall`` experiment cell, containing errors.

    Module-level and fed only plain data, so it is spawn-safe and
    cacheable like every other pool task.  Returns ``{"ok": True,
    "value": ...}`` or ``{"ok": False, "error": ...}`` — the runner
    converts errored cells into SKIP verdicts instead of crashing.
    """
    from repro.experiments.runall import EXPERIMENTS

    try:
        return {"ok": True, "value": EXPERIMENTS[name].cell()}
    except Exception as exc:  # noqa: BLE001 - contained by design
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


class _Consulted(dict):
    """A claim's bands, recording which ones its check reads."""

    def __init__(self, bands) -> None:
        super().__init__(bands)
        self.read: set[str] = set()

    def __getitem__(self, name: str):
        self.read.add(name)
        return super().__getitem__(name)


def evaluate_claim(claim: Claim, cells: dict) -> dict:
    """Score one claim against the (possibly partial) cell results.

    ``cells`` maps experiment name → :func:`run_cell` payload.  Missing
    or errored cells, absent/None/NaN metrics and check bugs all score
    SKIP — a replication report is always produced.  So does a check
    that would pass without consulting every declared band: the docs
    state each band, so each must be checked.
    """
    errors = []
    results = {}
    for name in claim.experiments:
        payload = cells.get(name)
        if payload is None:
            errors.append(f"cell {name} was not run")
        elif not payload.get("ok"):
            errors.append(f"cell {name} failed: {payload.get('error')}")
        else:
            results[name] = payload["value"]
    if errors:
        outcome = CheckResult(SKIP, detail="; ".join(errors))
    else:
        bands = _Consulted(claim.tolerance)
        try:
            outcome = claim.check(results, bands)
        except MissingMetric as exc:
            outcome = CheckResult(SKIP, detail=str(exc))
        except Exception as exc:  # noqa: BLE001 - never crash the report
            outcome = CheckResult(
                SKIP, detail=f"check raised {type(exc).__name__}: {exc}"
            )
        unused = ", ".join(name for name in claim.tolerance if name not in bands.read)
        if outcome.status == PASS and unused:
            outcome = dataclasses.replace(
                outcome, status=SKIP, detail=f"declared bands never checked: {unused}"
            )
    return {
        "id": claim.id,
        "figure": claim.figure,
        "claim": claim.claim,
        "experiments": list(claim.experiments),
        "check": claim.check.__name__,
        "tolerance": {
            name: dataclasses.asdict(band) for name, band in claim.tolerance.items()
        },
        "expected": claim.expected,
        "status": outcome.status,
        "measured": outcome.measured,
        "delta": outcome.delta,
        "detail": outcome.detail,
    }


def replicate(
    only: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    registry: Optional[EvalRegistry] = None,
) -> dict:
    """Run the replication suite; return a schema-valid document.

    ``only`` selects claims by id, id prefix or experiment name
    (see :meth:`~repro.evals.registry.EvalRegistry.select`); ``jobs``
    and ``cache_dir`` behave exactly like the rest of the experiment
    CLI (``docs/parallelism.md``).
    """
    registry = registry if registry is not None else REGISTRY
    claims = registry.select(only)
    names = registry.experiments(claims)
    say = progress if progress is not None else (lambda line: None)

    cache = RunCache(cache_dir) if cache_dir else None
    specs = [
        RunSpec(task=f"{__name__}:run_cell", kwargs={"name": name}, label=name)
        for name in names
    ]
    started = time.perf_counter()
    results = run_specs(specs, jobs=jobs, cache=cache, progress=say)
    elapsed = time.perf_counter() - started

    cells = {}
    cell_meta = {}
    for name, result in zip(names, results):
        cells[name] = result.value
        cell_meta[name] = {
            "seconds": round(result.seconds, 3),
            "cached": result.cached,
            "ok": bool(result.value.get("ok")),
        }

    scored = [evaluate_claim(claim, cells) for claim in claims]
    counts = {
        "total": len(scored),
        "pass": sum(1 for c in scored if c["status"] == "PASS"),
        "fail": sum(1 for c in scored if c["status"] == "FAIL"),
        "skip": sum(1 for c in scored if c["status"] == "SKIP"),
    }
    doc = {
        "schema": REPLICATION_SCHEMA,
        "code_fingerprint": code_fingerprint(),
        "jobs": jobs,
        "cache": (
            {"dir": str(cache.dir), **cache.stats.to_dict()} if cache else None
        ),
        "seconds": round(elapsed, 3),
        "cells": cell_meta,
        "claims": scored,
        "summary": {
            **counts,
            "verdict": "PASS" if counts["pass"] == counts["total"] else "FAIL",
        },
    }
    return validate_replication(doc)
