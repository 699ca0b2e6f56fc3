"""Parameter sweeps over the scheduler comparison.

The paper evaluates two request rates (2 and 5 req/s); this module
generalizes that to a sweep, exposing where the trade-offs cross over:
at low rates all schedulers look alike, in the mid-range CFS's TTFT win
appears while its DRAM variant pays the largest RCT penalty, and at
saturation every scheduler's queue grows without bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.experiments.figures import run_scheduler_comparison
from repro.experiments.pool import RunSpec, run_specs


@dataclass
class SweepPoint:
    """Scheduler comparison at one request rate."""

    rate: float
    summaries: dict[str, dict] = field(default_factory=dict)

    def metric(self, system: str, key: str) -> float:
        """A summary metric, or NaN when the system or key is absent.

        Missing data is NaN in both directions — an unknown system
        label behaves exactly like an unknown metric key, so partial
        sweeps tabulate instead of raising.
        """
        return self.summaries.get(system, {}).get(key, float("nan"))

    def rct_penalty(self, system: str) -> float:
        """System RCT mean over vLLM's (1.0 = free fairness)."""
        return self.metric(system, "rct_mean") / self.metric("vllm", "rct_mean")


def _sweep_cell(rate: float, count: int, seed: int, **kwargs) -> dict:
    """One sweep point's summaries (module-level: a pool-safe task)."""
    systems = run_scheduler_comparison(rate=rate, count=count, seed=seed, **kwargs)
    return {label: data["summary"] for label, data in systems.items()}


def sweep_request_rate(
    rates: Sequence[float] = (1.0, 2.0, 4.0, 6.0),
    count: int = 40,
    seed: int = 0,
    jobs: Optional[int] = 1,
    **kwargs,
) -> list[SweepPoint]:
    """Run the vLLM / CFS-DRAM / AQUA comparison across request rates.

    Each rate point is an independent simulation, so ``jobs > 1`` fans
    the points out over a process pool; results are rate-ordered and
    byte-identical to a serial run either way (kwargs must stay
    JSON-serialisable — pass model presets by registry name).
    """
    specs = [
        RunSpec(
            task=f"{__name__}:_sweep_cell",
            kwargs={"rate": rate, "count": count, "seed": seed, **kwargs},
            label=f"rate={rate:g}",
        )
        for rate in rates
    ]
    results = run_specs(specs, jobs=jobs)
    return [
        SweepPoint(rate=rate, summaries=result.value)
        for rate, result in zip(rates, results)
    ]


def sweep_rows(points: Sequence[SweepPoint]) -> list[list]:
    """Tabular view of a sweep (for reports and the CLI)."""
    rows = []
    for p in points:
        rows.append(
            [
                p.rate,
                p.metric("vllm", "ttft_p95"),
                p.metric("cfs-dram", "ttft_p95"),
                p.metric("aqua", "ttft_p95"),
                p.rct_penalty("cfs-dram"),
                p.rct_penalty("aqua"),
            ]
        )
    return rows
