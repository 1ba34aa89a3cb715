"""Spin-exchange relaxation model tests."""

import math

import numpy as np
import pytest

from serfkit.errors import (
    FitFailureError,
    InvalidParameterError,
    InvalidSlowingFactorError,
)
from serfkit.serf import (
    LinewidthPoint,
    SerfParams,
    fit_tse,
    number_density,
    predict_linewidth,
    se_broadening_factor,
    se_rate,
)

TWO_PI = 2.0 * np.pi


def make_points(t_se, intrinsic, resonances, noise=0.0, seed=0):
    params = SerfParams(t_se_s=t_se, intrinsic_hwhm_hz=intrinsic)
    widths = predict_linewidth(np.asarray(resonances, dtype=float), params)
    if noise:
        widths = widths * (1.0 + np.random.default_rng(seed).normal(0, noise, len(widths)))
    return [LinewidthPoint(float(f), float(w)) for f, w in zip(resonances, widths)]


class TestRate:
    def test_potassium_factor_is_exactly_ten(self):
        assert se_broadening_factor(1.5, 6.0) == 10.0

    def test_zero_field_rate_vanishes(self):
        for q in (4.0, 6.0, 10.0):
            assert se_rate(0.0, SerfParams(slowing_q=q)) == 0.0

    def test_hand_evaluated_rate_at_100hz(self):
        rate = se_rate(100.0, SerfParams(t_se_s=8.6e-6))
        assert rate == pytest.approx(10.0 * (TWO_PI * 100.0) ** 2 * 8.6e-6, rel=1e-14)
        assert rate == pytest.approx(33.95, abs=0.01)
        assert rate / TWO_PI == pytest.approx(5.40, abs=0.01)

    def test_quadratic_scaling(self):
        params = SerfParams()
        assert se_rate(200.0, params) == pytest.approx(4.0 * se_rate(100.0, params), rel=1e-14)

    def test_too_small_slowing_factor_rejected(self):
        with pytest.raises(InvalidSlowingFactorError):
            se_rate(10.0, SerfParams(nuclear_spin_i=1.5, slowing_q=3.0))

    def test_boundary_slowing_factor_gives_zero(self):
        # q equal to 2I+1 zeroes the bracket; allowed, rate is zero.
        assert se_rate(100.0, SerfParams(nuclear_spin_i=1.5, slowing_q=4.0)) == 0.0


class TestPredictLinewidth:
    def test_zero_field_returns_intrinsic(self):
        params = SerfParams(intrinsic_hwhm_hz=10.45)
        assert predict_linewidth(0.0, params) == 10.45

    def test_reference_point_at_100hz(self):
        params = SerfParams(t_se_s=8.6e-6, intrinsic_hwhm_hz=10.45)
        assert predict_linewidth(100.0, params) == pytest.approx(15.85, abs=0.01)

    def test_zero_everything(self):
        params = SerfParams(intrinsic_hwhm_hz=0.0)
        assert predict_linewidth(0.0, params) == 0.0

    def test_monotone_in_frequency(self):
        params = SerfParams()
        freqs = np.linspace(0.0, 300.0, 100)
        widths = predict_linewidth(freqs, params)
        assert np.all(np.diff(widths) >= 0)


class TestFitTse:
    def test_noiseless_exact_recovery(self):
        points = make_points(8.6e-6, 10.45, np.arange(20.0, 201.0, 20.0))
        fit = fit_tse(points)
        assert fit.t_se_s == pytest.approx(8.6e-6, rel=1e-10, abs=0)
        assert fit.intrinsic_hwhm_hz == pytest.approx(10.45, rel=1e-10)

    def test_noisy_recovery_within_five_percent(self):
        points = make_points(8.6e-6, 10.45, np.arange(20.0, 201.0, 20.0), noise=0.02, seed=2)
        fit = fit_tse(points)
        assert fit.t_se_s == pytest.approx(8.6e-6, rel=0.05)

    def test_fixed_intrinsic_mode(self):
        points = make_points(8.6e-6, 10.45, np.arange(20.0, 201.0, 20.0))
        fit = fit_tse(points, intrinsic_hwhm_hz=10.45)
        assert fit.t_se_s == pytest.approx(8.6e-6, rel=1e-10, abs=0)
        assert fit.intrinsic_hwhm_hz == 10.45
        assert fit.covariance[1, 1] == 0.0

    @pytest.mark.parametrize("intrinsic", [-5.0, np.nan, np.inf])
    def test_held_intrinsic_must_be_finite_and_nonnegative(self, intrinsic):
        points = make_points(8.6e-6, 10.45, np.arange(20.0, 201.0, 20.0))
        with pytest.raises(InvalidParameterError, match="intrinsic_hwhm_hz"):
            fit_tse(points, intrinsic_hwhm_hz=intrinsic)

    def test_weights_respected(self):
        points = make_points(8.6e-6, 10.45, np.arange(20.0, 201.0, 20.0))
        # Corrupt one point but give it negligible weight.
        spoiled = [
            LinewidthPoint(p.resonance_hz, p.hwhm_hz, weight=1.0) for p in points[:-1]
        ]
        spoiled.append(LinewidthPoint(points[-1].resonance_hz, 500.0, weight=1e-14))
        fit = fit_tse(spoiled)
        assert fit.t_se_s == pytest.approx(8.6e-6, rel=1e-6)

    def test_weights_on_some_points_only_rejected(self):
        points = make_points(8.6e-6, 10.45, np.arange(20.0, 201.0, 20.0))
        mixed = [LinewidthPoint(points[0].resonance_hz, points[0].hwhm_hz, weight=4.0)]
        with pytest.raises(InvalidParameterError, match="every point or for none"):
            fit_tse(mixed + points[1:])

    def test_needs_three_points(self):
        points = make_points(8.6e-6, 10.0, [50.0, 100.0])
        with pytest.raises(InvalidParameterError):
            fit_tse(points)

    def test_needs_factor_two_span(self):
        points = make_points(8.6e-6, 10.0, [100.0, 120.0, 150.0])
        with pytest.raises(InvalidParameterError):
            fit_tse(points)

    def test_decreasing_widths_fail(self):
        points = [
            LinewidthPoint(20.0, 30.0),
            LinewidthPoint(60.0, 20.0),
            LinewidthPoint(120.0, 10.0),
            LinewidthPoint(200.0, 5.0),
        ]
        with pytest.raises(FitFailureError):
            fit_tse(points)


class TestNumberDensity:
    def test_reference_value(self):
        n = number_density(8.6e-6, 500.0, 2e-14)
        assert n == pytest.approx(1.163e14, rel=1e-3)
        # Consistent with the quoted approximate density of 1.2e14.
        assert n == pytest.approx(1.2e14, rel=0.05)

    def test_unit_bookkeeping(self):
        assert number_density(1.0, 1.0, 1.0) == pytest.approx(0.01, rel=1e-14)

    def test_reciprocal_scaling(self):
        assert number_density(4.3e-6) == pytest.approx(2.0 * number_density(8.6e-6), rel=1e-14)

    def test_density_time_round_trip(self):
        n = 1.2e14
        t_se = 1.0 / (n * 500.0 * 100.0 * 2e-14)
        assert number_density(t_se) == pytest.approx(n, rel=1e-12)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            number_density(0.0)
        with pytest.raises(InvalidParameterError):
            number_density(1e-6, -5.0)


class TestParams:
    def test_bad_spin_rejected(self):
        with pytest.raises(InvalidParameterError):
            SerfParams(nuclear_spin_i=0.7)

    def test_negative_tse_rejected(self):
        with pytest.raises(InvalidParameterError):
            SerfParams(t_se_s=-1e-6)

    def test_point_validation(self):
        with pytest.raises(InvalidParameterError):
            LinewidthPoint(-1.0, 5.0)
        with pytest.raises(InvalidParameterError):
            LinewidthPoint(10.0, 0.0)


# The demo's linewidth sweep: 10 resonances from 20 to 200 Hz, each width
# scattered by 1 % of itself, fitted with the matching weights 1/sigma^2.
TSE_TRUTH = SerfParams(t_se_s=8.6e-6, intrinsic_hwhm_hz=10.45)
TSE_RESONANCES_HZ = np.arange(20.0, 201.0, 20.0)
TSE_SEEDS = range(300)
# P(|t_dof| < 1) = 1 - I_{dof/(dof+1)}(dof/2, 1/2), with I the regularized
# incomplete beta function; dof = 10 points less the fitted parameters.
T8_WITHIN_ONE_SIGMA = 0.6534064929126657
T9_WITHIN_ONE_SIGMA = 0.6565636038620866


@pytest.mark.parametrize(
    "intrinsic, index, expected",
    [
        (None, 0, T8_WITHIN_ONE_SIGMA),
        (None, 1, T8_WITHIN_ONE_SIGMA),
        (TSE_TRUTH.intrinsic_hwhm_hz, 0, T9_WITHIN_ONE_SIGMA),
    ],
    ids=["t_se", "intrinsic", "t_se_fixed_intrinsic"],
)
def test_weighted_fit_one_sigma_coverage(intrinsic, index, expected):
    widths = predict_linewidth(TSE_RESONANCES_HZ, TSE_TRUTH)
    sigmas = 0.01 * widths
    truth = (TSE_TRUTH.t_se_s, TSE_TRUTH.intrinsic_hwhm_hz)[index]
    z = []
    for seed in TSE_SEEDS:
        noisy = widths + sigmas * np.random.default_rng(seed).normal(0.0, 1.0, len(widths))
        points = [
            LinewidthPoint(float(f), float(w), float(s**-2))
            for f, w, s in zip(TSE_RESONANCES_HZ, noisy, sigmas)
        ]
        fit = fit_tse(points, intrinsic_hwhm_hz=intrinsic)
        estimate = (fit.t_se_s, fit.intrinsic_hwhm_hz)[index]
        z.append((estimate - truth) / math.sqrt(fit.covariance[index, index]))
    bound = 4.0 * math.sqrt(expected * (1.0 - expected) / len(z))
    assert abs(np.mean(np.abs(z) < 1.0) - expected) < bound
