"""Calibrate link models from measured bandwidth points.

The NVLink preset in :mod:`repro.hardware.specs` was derived from the
paper's two published measurements (Figure 3a): ~100 GB/s effective at
2 MB transfers and ~250 GB/s at saturation.  This module makes that
derivation a first-class tool: given any set of ``(transfer_size,
observed_bandwidth)`` points from a real machine (e.g. the output of
``nccl-tests`` or ``p2pBandwidthLatencyTest``), it fits the
``latency + size/peak`` model and returns a :class:`LinkSpec`, so the
simulator can be re-calibrated to new hardware without code changes.

The model ``t(s) = L + s/P`` is linear in ``(1, s)``, so the fit is an
ordinary least-squares on transfer *times* ``t_i = s_i / bw_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hardware.specs import LinkSpec


class CalibrationError(ValueError):
    """Raised when the measurements cannot produce a sane link model."""


@dataclass(frozen=True)
class BandwidthPoint:
    """One measurement: ``nbytes`` transfers observed at ``bandwidth`` B/s."""

    nbytes: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.nbytes <= 0 or self.bandwidth <= 0:
            raise CalibrationError(
                f"measurement must be positive, got {self.nbytes}B @ {self.bandwidth}B/s"
            )

    @property
    def transfer_time(self) -> float:
        return self.nbytes / self.bandwidth


#: How far below zero, as a fraction of the longest measured transfer, a
#: fitted latency may round before :func:`fit_link` rejects it.
_LATENCY_TOLERANCE = 1e-9


def fit_link(
    points: Sequence[BandwidthPoint], name: str = "calibrated-link"
) -> LinkSpec:
    """Least-squares fit of a :class:`LinkSpec` to measured points.

    Requires at least two measurements at distinct transfer sizes.

    Raises
    ------
    CalibrationError
        If the fit produces a non-positive peak bandwidth or negative
        latency (inconsistent measurements).
    """
    if len(points) < 2:
        raise CalibrationError("need at least two measurements to fit a link")
    sizes = np.array([p.nbytes for p in points], dtype=float)
    if len(set(sizes)) < 2:
        raise CalibrationError("measurements must span at least two transfer sizes")
    times = np.array([p.transfer_time for p in points], dtype=float)
    design = np.column_stack([np.ones_like(sizes), sizes])
    (latency, inv_peak), *_ = np.linalg.lstsq(design, times, rcond=None)
    if inv_peak <= 0:
        raise CalibrationError(
            "fitted peak bandwidth is not positive; measurements are inconsistent "
            "with a latency+bandwidth model"
        )
    # Least squares may round an exact zero latency to just below it.
    if latency < -_LATENCY_TOLERANCE * times.max():
        raise CalibrationError(
            f"fitted latency {latency:.3g} s is negative; measurements are "
            "inconsistent with a latency+bandwidth model"
        )
    latency = max(0.0, float(latency))
    return LinkSpec(name=name, peak_bandwidth=float(1.0 / inv_peak), latency=latency)


def fit_link_from_pairs(
    pairs: Sequence[tuple[float, float]], name: str = "calibrated-link"
) -> LinkSpec:
    """Convenience wrapper taking raw ``(nbytes, bandwidth)`` tuples."""
    return fit_link([BandwidthPoint(n, bw) for n, bw in pairs], name=name)


def residuals(spec: LinkSpec, points: Sequence[BandwidthPoint]) -> list[float]:
    """Relative bandwidth error of the model at each measured point."""
    out = []
    for p in points:
        predicted = spec.effective_bandwidth(p.nbytes)
        out.append((predicted - p.bandwidth) / p.bandwidth)
    return out


def paper_fig3a_points() -> list[BandwidthPoint]:
    """The two anchor measurements the paper reports for an A100 pair."""
    GB = 10**9
    MB = 10**6
    return [
        BandwidthPoint(2 * MB, 100 * GB),
        BandwidthPoint(1024 * MB, 247 * GB),
    ]
