"""Replication-grade evaluation suite for the Aqua reproduction.

One evaluator per figure/table claim the paper makes, a runner that
executes the needed experiment cells through
:mod:`repro.experiments.pool` (parallel + content-addressed cache), and
a scored ``REPLICATION.json`` + markdown report.  The one-command
verdict: ``aqua-repro replicate``.  See ``docs/replication.md`` for the
claim-by-claim traceability table.
"""

from repro.evals.checks import (
    FAIL,
    PASS,
    SKIP,
    Band,
    CheckResult,
    MissingMetric,
)
from repro.evals.registry import REGISTRY, Claim, EvalRegistry
from repro.evals.runner import evaluate_claim, replicate, run_cell
from repro.evals.report import (
    render_catalog,
    render_markdown,
    render_text,
    write_markdown,
)
from repro.evals.schema import (
    REPLICATION_SCHEMA,
    SchemaError,
    dump_replication,
    validate_replication,
    write_replication,
)

# Importing the catalog registers the built-in claims.
import repro.evals.claims  # noqa: F401  (side-effect import)


def get_claims():
    """All registered claims, in registration order."""
    return REGISTRY.claims()


__all__ = [
    "PASS",
    "FAIL",
    "SKIP",
    "Band",
    "CheckResult",
    "MissingMetric",
    "Claim",
    "EvalRegistry",
    "REGISTRY",
    "REPLICATION_SCHEMA",
    "SchemaError",
    "replicate",
    "run_cell",
    "evaluate_claim",
    "get_claims",
    "render_catalog",
    "render_text",
    "render_markdown",
    "write_markdown",
    "dump_replication",
    "write_replication",
    "validate_replication",
]
