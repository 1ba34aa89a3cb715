"""Lorentzian evaluation and fitting tests."""

import math

import numpy as np
import pytest

from serfkit.constants import K_D1_FREQ_HZ
from serfkit.errors import (
    DegenerateDataError,
    InsufficientCoverageError,
    InvalidParameterError,
)
from serfkit.lineshape import (
    FrequencySweep,
    LorentzianFit,
    eval_lorentzian,
    fit_lorentzian,
    fit_response_curve,
    lorentzian_jacobian,
)


def make_sweep(center, hwhm, amplitude, baseline, span=5.0, n=400, noise=0.0, seed=0):
    freqs = np.linspace(center - span * hwhm, center + span * hwhm, n)
    vals = eval_lorentzian(center, hwhm, amplitude, baseline, freqs)
    if noise:
        vals = vals + np.random.default_rng(seed).normal(0.0, noise, n)
    return FrequencySweep(freqs, vals)


class TestEval:
    def test_peak_value(self):
        assert eval_lorentzian(0.0, 1.0, 1.0, 0.0, 0.0) == 1.0

    def test_half_maximum_at_hwhm(self):
        assert eval_lorentzian(0.0, 1.0, 1.0, 0.0, 1.0) == 0.5

    def test_absorption_dip_one_hwhm_out(self):
        value = eval_lorentzian(389.2879e12, 31.98e9, -0.8, 1.0, 389.2879e12 + 31.98e9)
        assert value == pytest.approx(0.6, rel=1e-12)

    def test_array_input(self):
        out = eval_lorentzian(0.0, 2.0, 1.0, 0.5, np.array([0.0, 2.0, -2.0]))
        assert out == pytest.approx([1.5, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_parameters_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            eval_lorentzian(bad, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            eval_lorentzian(0.0, 1.0, bad, 0.0, 0.0)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(InvalidParameterError):
            eval_lorentzian(0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            eval_lorentzian(0.0, -1.0, 1.0, 0.0, 0.0)


class TestSweepValidation:
    def test_too_short(self):
        with pytest.raises(InvalidParameterError):
            FrequencySweep(np.arange(4.0), np.zeros(4))

    def test_non_increasing(self):
        with pytest.raises(InvalidParameterError):
            FrequencySweep(np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.zeros(5))

    def test_nonfinite_values(self):
        with pytest.raises(InvalidParameterError):
            FrequencySweep(np.arange(5.0), np.array([0.0, 1.0, np.nan, 1.0, 0.0]))


class TestFitLorentzian:
    def test_noiseless_absorption_exact_recovery(self):
        sweep = make_sweep(389.2879e12, 31.98e9, -0.9, 1.0, span=1.6, n=300)
        fit = fit_lorentzian(sweep)
        assert fit.center_hz == pytest.approx(389.2879e12, rel=1e-9)
        assert fit.hwhm_hz == pytest.approx(31.98e9, rel=1e-9)
        assert fit.amplitude == pytest.approx(-0.9, rel=1e-9)
        assert fit.baseline == pytest.approx(1.0, rel=1e-9)
        # At 389 THz the model evaluation itself carries ~1e-11 rounding.
        assert fit.residual_rms < 1e-8

    def test_noisy_absorption_within_spec(self):
        sweep = make_sweep(389.2879e12, 31.98e9, -0.9, 1.0, span=1.6, n=300,
                           noise=0.005 * 0.9, seed=42)
        fit = fit_lorentzian(sweep)
        assert abs(fit.center_hz - 389.2879e12) < 0.5e9
        assert abs(fit.hwhm_hz / 31.98e9 - 1.0) < 0.01

    def test_round_trip_various_parameters(self):
        cases = [
            (0.0, 1.0, 1.0, 0.0),
            (120.0, 10.45, 1.0, 0.0),
            (-5.0, 0.3, -2.0, 7.0),
            (1e6, 250.0, 0.05, -1.0),
        ]
        for center, hwhm, amp, base in cases:
            sweep = make_sweep(center, hwhm, amp, base)
            fit = fit_lorentzian(sweep)
            assert fit.hwhm_hz == pytest.approx(hwhm, rel=1e-9)
            assert fit.amplitude == pytest.approx(amp, rel=1e-9)
            assert fit.baseline == pytest.approx(base, abs=1e-9 * max(1.0, abs(base)))
            assert abs(fit.center_hz - center) < 1e-9 * max(abs(center), hwhm)

    def test_shift_invariance(self):
        sweep = make_sweep(120.0, 10.0, 1.0, 0.2, noise=0.01, seed=3)
        fit = fit_lorentzian(sweep)
        shift = 5e4
        shifted = FrequencySweep(sweep.freqs_hz + shift, sweep.values)
        fit_shifted = fit_lorentzian(shifted)
        assert fit_shifted.center_hz - shift == pytest.approx(fit.center_hz, rel=1e-9)
        assert fit_shifted.hwhm_hz == pytest.approx(fit.hwhm_hz, rel=1e-9)

    def test_flat_sweep_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_lorentzian(FrequencySweep(np.arange(10.0), np.full(10, 3.0)))

    def test_pure_noise_degenerate(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DegenerateDataError):
            fit_lorentzian(FrequencySweep(np.arange(100.0), rng.normal(0, 1, 100)))

    def test_noise_robustness_sample(self):
        # Quick version of the recovery suite; the 100-trial run lives in
        # the acceptance tests.
        hits = 0
        for seed in range(10):
            sweep = make_sweep(100.0, 8.0, 1.0, 0.0, n=250, noise=0.01, seed=seed)
            fit = fit_lorentzian(sweep)
            hits += abs(fit.hwhm_hz / 8.0 - 1.0) < 0.05
        assert hits >= 9


class TestFitResponse:
    def test_linewidth_recovery(self):
        sweep = make_sweep(120.0, 10.45, 1.0, 0.0, span=5, n=300, noise=0.01, seed=11)
        fit = fit_response_curve(sweep)
        assert fit.hwhm_hz == pytest.approx(10.45, rel=0.03)
        assert fit.amplitude > 0

    def test_noiseless_narrow_resonance_exact(self):
        sweep = make_sweep(50.0, 1.0, 1.0, 0.0, span=8, n=400)
        fit = fit_response_curve(sweep)
        assert fit.center_hz == pytest.approx(50.0, abs=1e-9 * 50)
        assert fit.hwhm_hz == pytest.approx(1.0, rel=1e-9)

    def test_peak_at_boundary_rejected(self):
        freqs = np.linspace(120.0, 170.0, 100)
        vals = eval_lorentzian(120.0, 10.0, 1.0, 0.0, freqs)
        with pytest.raises(InsufficientCoverageError):
            fit_response_curve(FrequencySweep(freqs, vals))


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        freqs = np.linspace(-30.0, 30.0, 60)
        for _ in range(10):
            center = rng.uniform(-10, 10)
            hwhm = rng.uniform(0.5, 8.0)
            amp = rng.uniform(-2.0, 2.0)
            base = rng.uniform(-1.0, 1.0)
            params = np.array([center, hwhm, amp, base])
            jac = lorentzian_jacobian(center, hwhm, amp, freqs)
            steps = np.maximum(1e-6 * np.abs(params), 1e-8)
            for j in range(4):
                up, down = params.copy(), params.copy()
                up[j] += steps[j]
                down[j] -= steps[j]
                numeric = (
                    eval_lorentzian(up[0], up[1], up[2], up[3], freqs)
                    - eval_lorentzian(down[0], down[1], down[2], down[3], freqs)
                ) / (2.0 * steps[j])
                scale = np.max(np.abs(jac[:, j])) or 1.0
                assert np.max(np.abs(jac[:, j] - numeric)) / scale < 1e-6


class TestFitResult:
    def test_covariance_validated(self):
        with pytest.raises(InvalidParameterError):
            LorentzianFit(0.0, 1.0, 1.0, 0.0, residual_rms=0.0, covariance=np.zeros((3, 3)))

    def test_width_positive_required(self):
        with pytest.raises(InvalidParameterError):
            LorentzianFit(0.0, 0.0, 1.0, 0.0, residual_rms=0.0, covariance=np.zeros((4, 4)))

    def test_covariance_psd_on_noisy_fit(self):
        sweep = make_sweep(100.0, 8.0, 1.0, 0.0, n=250, noise=0.01, seed=5)
        fit = fit_lorentzian(sweep)
        assert np.allclose(fit.covariance, fit.covariance.T)
        assert np.all(np.linalg.eigvalsh(fit.covariance) >= -1e-25)


# The demo's absorption sweep: 401 points across the K D1 line, noise 0.2 % of
# the depth.
ABSORPTION_TRUTH = np.array([K_D1_FREQ_HZ + 1.916e9, 31.878e9, -0.9, 1.0])
ABSORPTION_NOISE = 0.0018
ABSORPTION_SEEDS = range(300)


@pytest.fixture(scope="module")
def absorption_fits():
    """Estimates and reported 1-sigma errors over seeded absorption sweeps, (seeds, 4) each."""
    freqs = np.linspace(389.24e12, 389.34e12, 401)
    clean = eval_lorentzian(*ABSORPTION_TRUTH, freqs)
    estimates, sigmas = [], []
    for seed in ABSORPTION_SEEDS:
        noise = np.random.default_rng(seed).normal(0.0, ABSORPTION_NOISE, len(freqs))
        fit = fit_lorentzian(FrequencySweep(freqs, clean + noise))
        estimates.append([fit.center_hz, fit.hwhm_hz, fit.amplitude, fit.baseline])
        sigmas.append(np.sqrt(np.diag(fit.covariance)))
    return np.array(estimates), np.array(sigmas)


class TestAbsorptionUncertainty:
    def test_center_sigma_matches_seeded_scatter(self, absorption_fits):
        estimates, sigmas = absorption_fits
        assert np.all(np.isfinite(sigmas[:, 0]))
        scatter = float(np.std(estimates[:, 0]))
        assert scatter / 2.0 < float(np.median(sigmas[:, 0])) < 2.0 * scatter

    @pytest.mark.parametrize("index", range(4), ids=["center", "hwhm", "amplitude", "baseline"])
    def test_one_sigma_coverage(self, absorption_fits, index):
        estimates, sigmas = absorption_fits
        z = (estimates[:, index] - ABSORPTION_TRUTH[index]) / sigmas[:, index]
        # 397 degrees of freedom: P(|t| < 1) is the normal value to within 1e-3.
        expected = math.erf(1.0 / math.sqrt(2.0))
        n = len(z)
        bound = 4.0 * math.sqrt(expected * (1.0 - expected) / n)
        assert abs(np.mean(np.abs(z) < 1.0) - expected) < bound
