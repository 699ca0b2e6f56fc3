"""Tests for link-model calibration from measured bandwidth points."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.calibration import (
    BandwidthPoint,
    CalibrationError,
    fit_link,
    fit_link_from_pairs,
    paper_fig3a_points,
    residuals,
)
from repro.hardware.specs import GB, MB, NVLINK3_P2P, LinkSpec


def test_fit_recovers_known_link_exactly():
    """Sampling a synthetic link and fitting must return the same link."""
    truth = LinkSpec(name="truth", peak_bandwidth=250 * GB, latency=12e-6)
    points = [
        BandwidthPoint(n, truth.effective_bandwidth(n))
        for n in (64 * 1024, MB, 16 * MB, 256 * MB)
    ]
    fitted = fit_link(points)
    assert fitted.peak_bandwidth == pytest.approx(truth.peak_bandwidth, rel=1e-6)
    assert fitted.latency == pytest.approx(truth.latency, rel=1e-6)


def test_fit_paper_points_matches_preset():
    """Fitting the paper's two Fig. 3a anchors reproduces the NVLink preset."""
    fitted = fit_link(paper_fig3a_points(), name="a100-nvlink")
    assert fitted.peak_bandwidth == pytest.approx(NVLINK3_P2P.peak_bandwidth, rel=0.05)
    assert fitted.latency == pytest.approx(NVLINK3_P2P.latency, rel=0.25)


def test_fit_from_pairs():
    fitted = fit_link_from_pairs([(2 * MB, 100 * GB), (GB, 247 * GB)])
    assert 200 * GB < fitted.peak_bandwidth < 300 * GB


def test_residuals_zero_on_perfect_fit():
    points = paper_fig3a_points()
    fitted = fit_link(points)
    for r in residuals(fitted, points):
        assert abs(r) < 1e-6


def test_fit_needs_two_distinct_sizes():
    with pytest.raises(CalibrationError):
        fit_link([BandwidthPoint(MB, GB)])
    with pytest.raises(CalibrationError):
        fit_link([BandwidthPoint(MB, GB), BandwidthPoint(MB, 2 * GB)])


def test_invalid_measurements_rejected():
    with pytest.raises(CalibrationError):
        BandwidthPoint(0, GB)
    with pytest.raises(CalibrationError):
        BandwidthPoint(MB, -1)


def test_inconsistent_measurements_rejected():
    """Transfer *time* decreasing with size cannot fit the model."""
    with pytest.raises(CalibrationError):
        fit_link(
            [
                BandwidthPoint(100 * MB, 1 * GB),  # t = 0.1 s
                BandwidthPoint(200 * MB, 100 * GB),  # t = 0.002 s
            ]
        )


@given(
    peak=st.floats(min_value=1e9, max_value=1e12),
    latency=st.floats(min_value=0, max_value=1e-3),
)
@settings(max_examples=50, deadline=None)
def test_fit_roundtrip_property(peak, latency):
    """Property: fit(sample(link)) == link for any valid link."""
    truth = LinkSpec(name="t", peak_bandwidth=peak, latency=latency)
    points = [
        BandwidthPoint(n, truth.effective_bandwidth(n))
        for n in (10_000, 1_000_000, 50_000_000)
    ]
    fitted = fit_link(points)
    assert fitted.peak_bandwidth == pytest.approx(peak, rel=1e-4)
    assert fitted.latency == pytest.approx(latency, rel=1e-3, abs=1e-9)


def test_negative_fitted_latency_rejected():
    """Transfer time growing faster than size fits a negative latency,
    which no link has: the fit raises instead of clamping it to zero."""
    with pytest.raises(CalibrationError, match="latency"):
        fit_link(
            [
                BandwidthPoint(MB, 1 * GB),  # t = 1 ms
                BandwidthPoint(2 * MB, GB / 1.5),  # t = 3 ms
            ]
        )
