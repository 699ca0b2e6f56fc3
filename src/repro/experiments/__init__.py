"""Experiment harness: rigs, figure reproductions and reports.

Every table and figure of the paper's evaluation has a function in
:mod:`repro.experiments.figures` that builds the corresponding rig
(server + engines + AQUA), runs the workload, and returns the series
the paper plots; :mod:`repro.experiments.ablations` does the same for
the design ablations and extensions.  :data:`repro.experiments.runall.EXPERIMENTS`
wraps them as cells, one ``aqua-repro`` command each, that
``aqua-repro replicate`` scores; ``EXPERIMENTS.md`` records the outcomes.
"""

from repro.experiments.harness import ConsumerRig, Seat, build_consumer_rig, build_rig, drain
from repro.experiments.observe import observe_experiment
from repro.experiments.pool import (
    RunCache,
    RunResult,
    RunSpec,
    code_fingerprint,
    default_jobs,
    derive_seed,
    run_specs,
)
from repro.experiments.report import format_table, summarize_requests
from repro.experiments.resilience import default_fault_schedule, resilience_experiment

__all__ = [
    "ConsumerRig",
    "RunCache",
    "RunResult",
    "RunSpec",
    "Seat",
    "build_consumer_rig",
    "build_rig",
    "code_fingerprint",
    "default_fault_schedule",
    "default_jobs",
    "derive_seed",
    "drain",
    "format_table",
    "observe_experiment",
    "resilience_experiment",
    "run_specs",
    "summarize_requests",
]
