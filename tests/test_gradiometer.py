"""Gradiometer calibration and frequency-domain subtraction tests."""

import collections
import copy
import dataclasses
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from serfkit.errors import (
    DegenerateDataError,
    InvalidParameterError,
    MissingToneError,
    ShapeError,
)
from serfkit.gradiometer import (
    GradCalibration,
    PhasePoint,
    amplitude_ratio,
    fit_phase_model,
    magnitude_ratio,
    phase_difference,
    phase_extremum,
    reduction_ratio,
    subtract,
)
from serfkit.noisepsd import calibrate_tesla, hann_window, welch_asd
from serfkit.records import TwoChannelRecord
from serfkit.simulator import NoiseModel, SimConfig, simulate_record

F1, F2 = 49.9, 68.8
FS = 1000.0


def tone_record(freq=10.0, amp=16e-12, n=8192, fs=FS, top_gain=1.0, bottom_gain=1.0,
                noise=0.0, seed=0):
    t = np.arange(n) / fs
    rng = np.random.default_rng(seed)
    x = amp * np.sin(2 * np.pi * freq * t)
    top = top_gain * x + (rng.normal(0, noise, n) if noise else 0.0)
    bottom = bottom_gain * x + (rng.normal(0, noise, n) if noise else 0.0)
    return TwoChannelRecord(fs, top, bottom)


class TestPhaseModel:
    def test_identical_channels_zero_phase(self):
        for f in (0.0, 1.0, 58.6, 500.0):
            assert phase_difference(f, 50.0, 50.0) == 0.0

    def test_reference_extremum(self):
        f_ext, phi = phase_extremum(F1, F2)
        assert f_ext == pytest.approx(58.6, abs=0.1)
        assert abs(phi) == pytest.approx(0.16, abs=0.01)

    def test_value_at_calibration_tone(self):
        assert phase_difference(10.0, F1, F2) == pytest.approx(-0.0534, abs=5e-4)

    def test_odd_under_bandwidth_swap(self):
        f = np.linspace(0.1, 300.0, 57)
        assert phase_difference(f, F1, F2) == pytest.approx(
            -phase_difference(f, F2, F1), rel=1e-14, abs=0
        )

    def test_limits_vanish(self):
        assert phase_difference(0.0, F1, F2) == 0.0
        assert abs(phase_difference(1e9, F1, F2)) < 1e-6

    def test_arctan_difference_identity(self):
        f = np.linspace(0.001, 500.0, 10000)
        lhs = phase_difference(f, F1, F2)
        rhs = np.arctan(f / F2) - np.arctan(f / F1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_grid_extremum_matches_analytic(self):
        f = np.arange(0.01, 200.0, 0.01)
        i = np.argmax(np.abs(phase_difference(f, F1, F2)))
        assert abs(f[i] - math.sqrt(F1 * F2)) <= 0.01 + 1e-9


class TestFitPhaseModel:
    def make_points(self, noise=0.0, seed=0, f1=F1, f2=F2):
        freqs = np.arange(5.0, 201.0, 5.0)
        phases = phase_difference(freqs, f1, f2)
        if noise:
            phases = phases + np.random.default_rng(seed).normal(0, noise, len(freqs))
        return [PhasePoint(float(f), float(p)) for f, p in zip(freqs, phases)]

    def test_noiseless_exact(self):
        fit = fit_phase_model(self.make_points())
        assert fit.f1_hz == pytest.approx(F1, abs=1e-8)
        assert fit.f2_hz == pytest.approx(F2, abs=1e-8)

    def test_noisy_within_five_percent(self):
        fit = fit_phase_model(self.make_points(noise=0.005, seed=4))
        assert fit.f1_hz == pytest.approx(F1, rel=0.05)
        assert fit.f2_hz == pytest.approx(F2, rel=0.05)

    def test_swapped_bandwidths_sign_convention(self):
        fit = fit_phase_model(self.make_points(f1=F2, f2=F1))
        assert fit.f1_hz == pytest.approx(F2, abs=1e-8)
        assert fit.f2_hz == pytest.approx(F1, abs=1e-8)

    def test_zero_phases_degenerate(self):
        points = [PhasePoint(float(f), 0.0) for f in (5.0, 10.0, 20.0, 40.0)]
        with pytest.raises(DegenerateDataError):
            fit_phase_model(points)

    def test_needs_four_points(self):
        with pytest.raises(InvalidParameterError):
            fit_phase_model([PhasePoint(5.0, -0.01), PhasePoint(10.0, -0.02),
                             PhasePoint(20.0, -0.05)])

    def test_phase_point_range_validated(self):
        with pytest.raises(InvalidParameterError):
            PhasePoint(10.0, 3.5)

    @pytest.mark.parametrize("freq", [math.nan, math.inf])
    def test_phase_point_frequency_must_be_finite(self, freq):
        with pytest.raises(InvalidParameterError, match="freq_hz"):
            PhasePoint(freq, 0.01)


class TestAmplitudeRatio:
    def test_identical_channels(self):
        rec = tone_record()
        assert amplitude_ratio(rec, 10.0) == pytest.approx(1.0, abs=1e-6)

    def test_scaled_bottom_channel(self):
        rec = tone_record(bottom_gain=0.8)
        assert amplitude_ratio(rec, 10.0) == pytest.approx(1.25, rel=1e-9)

    def test_simulated_first_order_channels(self):
        cfg = SimConfig(FS, 20.0, seed=1, f1_hz=F1, f2_hz=F2,
                        tones=((10.0, 16e-12, 0.0),),
                        noise=NoiseModel(sensor_asd_t_sqrthz=1e-16))
        rec = simulate_record(cfg)
        expected = math.sqrt((1 + (10 / F2) ** 2) / (1 + (10 / F1) ** 2))
        assert amplitude_ratio(rec, 10.0) == pytest.approx(expected, rel=1e-3)
        assert expected == pytest.approx(0.9907, abs=2e-4)

    def test_missing_tone_rejected(self):
        rng = np.random.default_rng(0)
        rec = TwoChannelRecord(FS, rng.normal(0, 1, 8192), rng.normal(0, 1, 8192))
        with pytest.raises(MissingToneError):
            amplitude_ratio(rec, 10.0)

    def test_tone_in_top_channel_only_names_bottom(self):
        rng = np.random.default_rng(1)
        rec = tone_record(noise=1e-15)
        rec = TwoChannelRecord(FS, rec.top_t, rng.normal(0, 1e-15, len(rec)))
        with pytest.raises(MissingToneError, match="bottom channel"):
            amplitude_ratio(rec, 10.0)

    @pytest.mark.parametrize("freq", [FS / 2, 0.6 * FS])
    def test_tone_at_or_above_nyquist_rejected(self, freq):
        # A strong tone at Nyquist: alternating samples.
        noise = np.random.default_rng(2).normal(0, 1e-15, 8192)
        x = 16e-12 * np.cos(np.pi * np.arange(8192)) + noise
        with pytest.raises(MissingToneError, match="Nyquist"):
            amplitude_ratio(TwoChannelRecord(FS, x, x.copy()), freq)
        with pytest.raises(MissingToneError, match="Nyquist"):
            calibrate_tesla(welch_asd(x, FS), freq, 16e-12)


class TestSubtract:
    def cal(self, ratio=1.0, tone_freq=10.0):
        return GradCalibration(amplitude_ratio=ratio, f1_hz=F1, f2_hz=F2,
                               tone_freq_hz=tone_freq, tone_amp_t=16e-12)

    def test_identical_channels_cancel_exactly(self):
        rec = tone_record()
        out = subtract(rec, self.cal(), phase_correct=False)
        rms_in = np.sqrt(np.mean(rec.top_t**2))
        assert np.sqrt(np.mean(out**2)) <= 1e-12 * rms_in

    def test_output_mean_is_difference_of_means(self):
        rng = np.random.default_rng(2)
        top = rng.normal(0.5, 1.0, 4096)
        bottom = rng.normal(-0.25, 1.0, 4096)
        rec = TwoChannelRecord(FS, top, bottom)
        out = subtract(rec, self.cal(ratio=1.3), phase_correct=True)
        expected = top.mean() - bottom.mean()
        assert out.mean() == pytest.approx(expected, rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        rec_x = TwoChannelRecord(FS, rng.normal(0, 1, 4096), rng.normal(0, 1, 4096))
        rec_y = TwoChannelRecord(FS, rng.normal(0, 1, 4096), rng.normal(0, 1, 4096))
        a, b = 0.6, -2.2
        combined = TwoChannelRecord(
            FS, a * rec_x.top_t + b * rec_y.top_t, a * rec_x.bottom_t + b * rec_y.bottom_t
        )
        cal = self.cal(ratio=0.99)
        lhs = subtract(combined, cal)
        rhs = a * subtract(rec_x, cal) + b * subtract(rec_y, cal)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_amplitude_only_residual_matches_phasor_geometry(self):
        cfg = SimConfig(FS, 30.0, seed=5, f1_hz=F1, f2_hz=F2,
                        tones=((10.0, 16e-12, 0.0),),
                        noise=NoiseModel(sensor_asd_t_sqrthz=1e-17))
        rec = simulate_record(cfg)
        cal = self.cal(ratio=amplitude_ratio(rec, 10.0))
        out = subtract(rec, cal, phase_correct=False)
        mag_top, _ = _reference_magnitude(rec.top_t)
        mag_out, _ = _reference_magnitude(out)
        residual_over_top = (mag_out[_reference_bin(mag_out, len(rec), 10.0)]
                             / mag_top[_reference_bin(mag_top, len(rec), 10.0)])
        predicted = 2.0 * math.sin(abs(phase_difference(10.0, F1, F2)) / 2.0)
        assert residual_over_top == pytest.approx(predicted, rel=0.05)

    def test_phase_corrected_common_mode_rejection(self):
        # Purely common-mode input: broadband common noise plus the tone.
        cfg = SimConfig(FS, 30.0, seed=6, f1_hz=F1, f2_hz=F2,
                        tones=((10.0, 16e-12, 0.0),),
                        noise=NoiseModel(common_asd_t_sqrthz=8e-15))
        rec = simulate_record(cfg)
        ratio = amplitude_ratio(rec, 10.0)
        out = subtract(rec, self.cal(ratio=ratio), phase_correct=True)

        def band_rms(series):
            psd = welch_asd(series, FS, segment_len=4096)
            sel = (psd.freqs_hz >= 5.0) & (psd.freqs_hz <= 200.0)
            return math.sqrt(np.sum(psd.asd_t_sqrthz[sel] ** 2) * psd.bin_width_hz)

        assert band_rms(out) <= 0.03 * band_rms(rec.top_t)

    def test_mismatched_channel_lengths_rejected(self):
        with pytest.raises(ShapeError):
            TwoChannelRecord(FS, np.zeros(100), np.zeros(101))


class TestReductionRatio:
    def test_identical_channels_report_infinity(self):
        # Equal bandwidths make the correction exactly 1 at every bin.
        rec = tone_record()
        cal = GradCalibration(1.0, F1, F1, tone_freq_hz=10.0)
        assert reduction_ratio(rec, cal, 10.0) == math.inf

    def test_simulated_tone_reduction(self):
        cfg = SimConfig(FS, 30.0, seed=7, f1_hz=F1, f2_hz=F2,
                        tones=((10.0, 16e-12, 0.0),),
                        noise=NoiseModel(common_asd_t_sqrthz=8e-15,
                                         sensor_asd_t_sqrthz=1.2e-15 / math.sqrt(2)))
        rec = simulate_record(cfg)
        ratio = amplitude_ratio(rec, 10.0)
        cal = GradCalibration(ratio, F1, F2, tone_freq_hz=10.0, tone_amp_t=16e-12)
        assert reduction_ratio(rec, cal, 10.0) >= 50.0

    def test_missing_tone_rejected(self):
        rng = np.random.default_rng(8)
        rec = TwoChannelRecord(FS, rng.normal(0, 1, 8192), rng.normal(0, 1, 8192))
        cal = GradCalibration(1.0, F1, F2)
        with pytest.raises(MissingToneError):
            reduction_ratio(rec, cal, 10.0)


def _scaled_demo_record(k):
    """10 s of a demo-like record (16 pT tone at 10 Hz) with every sample scaled by ``2**k``."""
    cfg = SimConfig(FS, 10.0, seed=41, f1_hz=F1, f2_hz=F2, tones=((10.0, 16e-12, 0.0),),
                    noise=NoiseModel(common_asd_t_sqrthz=8e-15, sensor_asd_t_sqrthz=0.85e-15))
    rec = simulate_record(cfg)
    return TwoChannelRecord(FS, np.ldexp(rec.top_t, k), np.ldexp(rec.bottom_t, k))


@pytest.mark.parametrize(
    "k, ratio, call, what",
    [
        (1050, 1.0, lambda rec, cal: amplitude_ratio(rec, 10.0), "top channel's spectrum"),
        (1050, 1.0, lambda rec, cal: subtract(rec, cal), "difference"),
        (1050, 1.0, lambda rec, cal: subtract(rec, cal, phase_correct=False), "difference"),
        (1050, 1.0, lambda rec, cal: reduction_ratio(rec, cal, 10.0), "top channel's spectrum"),
        # Finite channel spectra, but the corrected bottom spectrum overflows.
        (1000, 1e300, lambda rec, cal: subtract(rec, cal), "difference"),
        (1000, 1e300, lambda rec, cal: reduction_ratio(rec, cal, 10.0), "residual's spectrum"),
    ],
    ids=["amplitude_ratio", "subtract", "subtract_no_phase", "reduction_ratio",
         "subtract_huge_ratio", "reduction_ratio_huge_ratio"],
)
def test_overflow_is_rejected_with_the_record_peak(k, ratio, call, what):
    # pyproject.toml turns numpy's overflow warnings into errors, so any
    # warning on the way fails this test too.
    rec = _scaled_demo_record(k)
    peak = max(np.abs(rec.top_t).max(), np.abs(rec.bottom_t).max())
    cal = GradCalibration(ratio, F1, F2, tone_freq_hz=10.0, tone_amp_t=16e-12)
    with pytest.raises(InvalidParameterError, match=f"the {what} overflows") as excinfo:
        call(rec, cal)
    assert str(excinfo.value).endswith(f"record samples reach {peak:.3g} T")


@pytest.mark.parametrize(
    "cal, where",
    [
        (GradCalibration(0.99, F1, F2, tone_freq_hz=1e200), "0 Hz"),
        (GradCalibration(0.99, 1e-320, F2, tone_freq_hz=10.0), "0 Hz"),
        (GradCalibration(0.99, F1, 1e-160), "0.12207 Hz"),
    ],
    ids=["huge_tone", "subnormal_f1", "tiny_f2"],
)
@pytest.mark.parametrize("call", [subtract, lambda rec, cal: reduction_ratio(rec, cal, 10.0)],
                         ids=["subtract", "reduction_ratio"])
def test_non_finite_model_correction_names_the_calibration(cal, where, call):
    # An ordinary record: the fault is the calibration's, not the samples'.
    rec = tone_record(noise=1e-14, seed=3)
    with pytest.raises(InvalidParameterError, match=r"^calibration \(f1 ") as excinfo:
        call(rec, cal)
    message = str(excinfo.value)
    assert "non-finite model correction" in message and "record samples" not in message
    if call is subtract:
        assert message.endswith(f"at {where}")


def test_near_overflow_record_scales_exactly():
    # 2**1000 still fits: every result is the 2**0 one, scaled by the power of two.
    small, big = _scaled_demo_record(0), _scaled_demo_record(1000)
    cal = GradCalibration(amplitude_ratio(small, 10.0), F1, F2, tone_freq_hz=10.0)
    assert amplitude_ratio(big, 10.0) == cal.amplitude_ratio
    assert np.array_equal(subtract(big, cal), np.ldexp(subtract(small, cal), 1000))
    assert reduction_ratio(big, cal, 10.0) == reduction_ratio(small, cal, 10.0)


class TestCalibrationType:
    def test_positive_ratio_required(self):
        with pytest.raises(InvalidParameterError):
            GradCalibration(0.0, F1, F2)

    def test_positive_bandwidths_required(self):
        with pytest.raises(InvalidParameterError):
            GradCalibration(1.0, -1.0, F2)

    def test_magnitude_ratio_anchors(self):
        assert magnitude_ratio(0.0, F1, F2) == 1.0
        assert magnitude_ratio(10.0, F1, F2) == pytest.approx(0.99081, abs=1e-5)


def _reference_subtract(record, cal, phase_correct=True):
    """subtract written with plain full-length expressions, for bit-exact checks."""
    n = len(record)
    freqs = np.fft.rfftfreq(n, 1.0 / record.sample_rate_hz)
    top = np.fft.rfft(record.top_t)
    bottom = np.fft.rfft(record.bottom_t)
    correction = np.full(len(freqs), cal.amplitude_ratio, dtype=complex)
    if phase_correct:
        anchor = (
            magnitude_ratio(cal.tone_freq_hz, cal.f1_hz, cal.f2_hz)
            if cal.tone_freq_hz > 0
            else 1.0
        )
        correction *= magnitude_ratio(freqs, cal.f1_hz, cal.f2_hz) / anchor
        correction *= np.exp(1j * phase_difference(freqs, cal.f1_hz, cal.f2_hz))
    correction[0] = 1.0
    if n % 2 == 0:
        correction[-1] = abs(correction[-1])
    return np.fft.irfft(top - correction * bottom, n)


def _reference_magnitude(series):
    """Hann-windowed magnitude spectrum and the window sum."""
    window = hann_window(len(series))
    return np.abs(np.fft.rfft(series * window)), float(window.sum())


def _reference_bin(mag, n, tone_freq_hz):
    """Peak bin within +-2 bins of the nominal tone bin of an n-sample series."""
    nominal = int(round(tone_freq_hz / (FS / n)))
    return nominal - 2 + int(np.argmax(mag[nominal - 2:nominal + 3]))


REFERENCE_CONFIGS = {
    "two_tones": SimConfig(FS, 8.0, seed=3, f1_hz=F1, f2_hz=F2,
                           tones=((10.0, 16e-12, 0.0), (35.0, 5e-12, 1.0)),
                           noise=NoiseModel(common_asd_t_sqrthz=8e-15)),
    "gains": SimConfig(FS, 8.0, seed=4, f1_hz=F1, f2_hz=F2, channel_gains=(1.3, 0.7),
                       tones=((10.0, 16e-12, 0.0),),
                       noise=NoiseModel(common_asd_t_sqrthz=8e-15, gradient_asd_t_sqrthz=2e-15,
                                        sensor_asd_t_sqrthz=(1e-15, 2e-15))),
    "bench_60k": SimConfig(FS, 60.0, seed=101, f1_hz=F1, f2_hz=F2,
                           tones=((10.0, 16e-12, 0.0),),
                           noise=NoiseModel(common_asd_t_sqrthz=8e-15,
                                            sensor_asd_t_sqrthz=8.5e-16)),
}


# subtract must match the reference bit for bit. The ratios read the
# Hann-windowed tone bins through the window's three-bin kernel on the plain
# spectrum, so they match only to rounding.
@pytest.mark.parametrize("name", ["odd_n", *sorted(REFERENCE_CONFIGS)])
def test_subtract_and_ratios_match_reference_bit_for_bit(name):
    if name == "odd_n":
        rec = tone_record(n=8191, bottom_gain=0.97, noise=1e-14, seed=9)
    else:
        rec = simulate_record(REFERENCE_CONFIGS[name])
    mag_top, window_sum = _reference_magnitude(rec.top_t)
    mag_bottom, _ = _reference_magnitude(rec.bottom_t)
    k = _reference_bin(mag_top, len(rec), 10.0)
    ratio = amplitude_ratio(rec, 10.0)
    assert ratio == pytest.approx(mag_top[k] / mag_bottom[k], rel=1e-10)

    cal = GradCalibration(ratio, F1, F2, tone_freq_hz=10.0, tone_amp_t=16e-12)
    top_amp = float(2.0 * mag_top[k] / window_sum)
    for phase in (True, False):
        expected = _reference_subtract(rec, cal, phase_correct=phase)
        assert np.array_equal(subtract(rec, cal, phase_correct=phase), expected)
        if phase:  # the ratio is the phase-corrected one
            mag_diff, _ = _reference_magnitude(expected)
            residual_amp = float(
                2.0 * mag_diff[_reference_bin(mag_diff, len(rec), 10.0)] / window_sum
            )
            assert reduction_ratio(rec, cal, 10.0) == pytest.approx(
                top_amp / residual_amp, rel=1e-10
            )


def test_subtract_without_calibration_tone_matches_reference():
    # tone_freq_hz = 0 anchors the magnitude dispersion at 1.
    rec = tone_record(n=8191, bottom_gain=0.97, noise=1e-14, seed=9)
    cal = GradCalibration(1.02, F1, F2)
    assert np.array_equal(subtract(rec, cal), _reference_subtract(rec, cal))


# Nominal bin 16 clips the gate's neighborhood at DC; 499 Hz clips it at
# Nyquist, for an even and an odd length.
@pytest.mark.parametrize("n, freq", [(8192, 2.0), (8191, 2.0), (8192, 499.0), (8191, 499.0)])
def test_ratios_match_reference_at_either_end_of_the_spectrum(n, freq):
    rec = tone_record(freq=freq, n=n, bottom_gain=0.97, noise=1e-14, seed=12)
    mag_top, _ = _reference_magnitude(rec.top_t)
    mag_bottom, _ = _reference_magnitude(rec.bottom_t)
    k = _reference_bin(mag_top, n, freq)
    assert min(k, n // 2 - k) <= 22
    ratio = amplitude_ratio(rec, freq)
    assert ratio == pytest.approx(mag_top[k] / mag_bottom[k], rel=1e-10)

    cal = GradCalibration(ratio, F1, F2, tone_freq_hz=freq)
    mag_diff, _ = _reference_magnitude(_reference_subtract(rec, cal))
    expected = mag_top[k] / mag_diff[_reference_bin(mag_diff, n, freq)]
    assert reduction_ratio(rec, cal, freq) == pytest.approx(expected, rel=1e-10)


# The demo's phase sweep: 40 points from 5 to 200 Hz, phase noise 3 mrad.
PHASE_SWEEP_HZ = np.arange(5.0, 201.0, 5.0)
PHASE_NOISE_RAD = 0.003
PHASE_SEEDS = range(300)
# P(|t_38| < 1) = 1 - I_{38/39}(19, 1/2), with I the regularized incomplete
# beta function; 38 = 40 points - 2 parameters.
T38_WITHIN_ONE_SIGMA = 0.6763639161355925


def test_phase_fit_one_sigma_coverage():
    clean = phase_difference(PHASE_SWEEP_HZ, F1, F2)
    z = []
    for seed in PHASE_SEEDS:
        noise = np.random.default_rng(seed).normal(0.0, PHASE_NOISE_RAD, len(clean))
        fit = fit_phase_model(
            [PhasePoint(float(f), float(p)) for f, p in zip(PHASE_SWEEP_HZ, clean + noise)]
        )
        z.append((np.array([fit.f1_hz, fit.f2_hz]) - (F1, F2)) / np.sqrt(np.diag(fit.covariance)))
    expected = T38_WITHIN_ONE_SIGMA
    bound = 4.0 * math.sqrt(expected * (1.0 - expected) / len(z))
    within = np.mean(np.abs(z) < 1.0, axis=0)  # f1, f2
    assert np.all(np.abs(within - expected) < bound)


# 32 768-bin correction blocks: n = 131070 fills exactly two blocks, n = 131072
# leaves the Nyquist bin alone in a third block, n = 131073 (odd) leaves a
# bin that is not Nyquist alone there. Without phase correction only the DC
# and Nyquist bins differ from the flat ratio, so the even n covers that case.
@pytest.mark.parametrize("n, phase", [(2 * 65536 - 2, True), (2 * 65536, True),
                                      (2 * 65536, False), (2 * 65536 + 1, True)])
def test_subtract_and_reduction_ratio_match_reference_at_block_edges(n, phase):
    rec = tone_record(n=n, bottom_gain=0.97, noise=1e-14, seed=10)
    cal = GradCalibration(1.03, F1, F2, tone_freq_hz=10.0)
    expected = _reference_subtract(rec, cal, phase_correct=phase)
    diff = subtract(rec, cal, phase_correct=phase)
    # tobytes() also tells -0.0 from 0.0, which array_equal does not.
    assert diff.tobytes() == expected.tobytes()

    mag_top, window_sum = _reference_magnitude(rec.top_t)
    mag_diff, _ = _reference_magnitude(expected)
    top_amp = float(2.0 * mag_top[_reference_bin(mag_top, n, 10.0)] / window_sum)
    residual_amp = float(2.0 * mag_diff[_reference_bin(mag_diff, n, 10.0)] / window_sum)
    if phase:
        assert reduction_ratio(rec, cal, 10.0) == pytest.approx(top_amp / residual_amp, rel=1e-10)


# At n = 131 073 the last block holds one bin. At these seeds an in-place
# product rounded that bin differently from the full-length reference.
@pytest.mark.parametrize("seed", [13, 19])
def test_subtract_matches_reference_when_the_last_block_holds_one_bin(seed):
    rec = tone_record(n=2 * 65536 + 1, bottom_gain=0.97, noise=1e-14, seed=seed)
    cal = GradCalibration(1.03, F1, F2, tone_freq_hz=10.0)
    assert subtract(rec, cal).tobytes() == _reference_subtract(rec, cal).tobytes()


def _traced_peak(func):
    tracemalloc.start()
    try:
        func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# 2**20 samples, so that one 32 768-bin block is small next to a channel.
MEMORY_N = 2**20


@pytest.fixture(scope="module")
def memory_channels():
    rng = np.random.default_rng(11)
    tone = 16e-12 * np.sin(2 * np.pi * 10.0 * np.arange(MEMORY_N) / FS)
    return tone + rng.normal(0, 1e-14, MEMORY_N), 0.97 * tone + rng.normal(0, 1e-14, MEMORY_N)


@pytest.fixture
def memory_record(memory_channels):
    # A new record per test, so that no test finds spectra another left on it.
    return TwoChannelRecord(FS, *memory_channels)


def test_subtract_extra_memory_is_two_channels(memory_record):
    # The bottom and top spectra (one channel each), then the top spectrum
    # and the output; no full-length correction, frequency or rotation array.
    cal = GradCalibration(0.97, F1, F2, tone_freq_hz=10.0)
    peak = _traced_peak(lambda: subtract(memory_record, cal, phase_correct=True))
    assert peak <= 2.25 * memory_record.top_t.nbytes


# The tone estimates hold one channel's spectrum at a time (one channel length
# of complex bins) and window only the bins around the tone.
def test_reduction_ratio_extra_memory_without_difference(memory_record):
    cal = GradCalibration(0.97, F1, F2, tone_freq_hz=10.0)
    peak = _traced_peak(lambda: reduction_ratio(memory_record, cal, 10.0))
    assert peak <= 1.25 * memory_record.top_t.nbytes


def test_amplitude_ratio_extra_memory(memory_record):
    # Both channel spectra stay on the record until subtract takes them, so
    # after subtract only its difference (and a few tone bins) is left.
    amplitude_ratio(tone_record(), 10.0)  # loads what a first call imports
    cal = GradCalibration(0.97, F1, F2, tone_freq_hz=10.0)
    tracemalloc.start()
    try:
        amplitude_ratio(memory_record, 10.0)
        _, peak = tracemalloc.get_traced_memory()
        difference = subtract(memory_record, cal)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * memory_record.top_t.nbytes
    assert current <= 1.05 * difference.nbytes


def test_gradiometric_chain_extra_memory(memory_record):
    # No more than subtract alone: the spectra amplitude_ratio keeps are the
    # ones subtract would have made.
    def chain():
        cal = GradCalibration(amplitude_ratio(memory_record, 10.0), F1, F2, tone_freq_hz=10.0)
        subtract(memory_record, cal)
        reduction_ratio(memory_record, cal, 10.0)

    assert _traced_peak(chain) <= 2.25 * memory_record.top_t.nbytes


def test_reduction_ratio_extra_memory_for_a_new_length(memory_record):
    # Nothing is cached per record length, so a length seen for the first
    # time (here odd) costs no more.
    record = TwoChannelRecord(FS, memory_record.top_t[:-1], memory_record.bottom_t[:-1])
    cal = GradCalibration(0.97, F1, F2, tone_freq_hz=10.0)
    peak = _traced_peak(lambda: reduction_ratio(record, cal, 10.0))
    assert peak <= 1.25 * memory_record.top_t.nbytes


def _count_transforms(monkeypatch):
    """Counts of numpy.fft calls, by function name, from here on."""
    calls = collections.Counter()
    for name in np.fft.__all__:
        if name.endswith(("fft", "fftn", "fft2")):
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
    return calls


def _fresh(record):
    """The same samples in a record that holds nothing."""
    return TwoChannelRecord(record.sample_rate_hz, record.top_t, record.bottom_t)


HAND_OVER_CAL = GradCalibration(0.97, F1, F2, tone_freq_hz=10.0, tone_amp_t=16e-12)


# amplitude_ratio leaves both channel spectra on the record: subtract takes
# them and reduction_ratio reads their bins at the tone. Before, the chain made
# 6 rffts and 1 irfft. A call on a record that holds nothing transforms as before.
@pytest.mark.parametrize("calls, expected", [
    ("chain", {"rfft": 2, "irfft": 1}),
    ("amplitude_ratio", {"rfft": 2}),
    ("subtract", {"rfft": 2, "irfft": 1}),
    ("reduction_ratio", {"rfft": 2}),
])
def test_transforms_per_gradiometer_call(monkeypatch, calls, expected):
    rec = tone_record(n=8191, bottom_gain=0.97, noise=1e-14, seed=9)
    counts = _count_transforms(monkeypatch)
    if calls in ("chain", "amplitude_ratio"):
        amplitude_ratio(rec, 10.0)
    if calls in ("chain", "subtract"):
        subtract(rec, HAND_OVER_CAL)
    if calls in ("chain", "reduction_ratio"):
        reduction_ratio(rec, HAND_OVER_CAL, 10.0)
    assert dict(counts) == expected


# n = 131 073 leaves one bin in subtract's last correction block.
@pytest.mark.parametrize("phase", [True, False])
@pytest.mark.parametrize("n", [8191, 60000, 2 * 65536 + 1])
def test_chain_matches_calls_on_fresh_records_byte_for_byte(n, phase):
    rec = tone_record(n=n, bottom_gain=0.97, noise=1e-14, seed=14)
    ratio = amplitude_ratio(rec, 10.0)
    assert ratio == amplitude_ratio(_fresh(rec), 10.0)
    cal = GradCalibration(ratio, F1, F2, tone_freq_hz=10.0)
    difference = subtract(rec, cal, phase_correct=phase)
    assert difference.tobytes() == subtract(_fresh(rec), cal, phase_correct=phase).tobytes()
    assert reduction_ratio(rec, cal, 10.0) == reduction_ratio(_fresh(rec), cal, 10.0)


def test_subtract_twice_transforms_again(monkeypatch):
    # The first subtract took and corrected the held spectra; the second finds none.
    rec = tone_record(n=8191, bottom_gain=0.97, noise=1e-14, seed=9)
    expected = subtract(_fresh(rec), HAND_OVER_CAL).tobytes()
    amplitude_ratio(rec, 10.0)
    counts = _count_transforms(monkeypatch)
    assert subtract(rec, HAND_OVER_CAL).tobytes() == expected
    assert dict(counts) == {"irfft": 1}
    assert subtract(rec, HAND_OVER_CAL).tobytes() == expected
    assert dict(counts) == {"rfft": 2, "irfft": 2}


def test_amplitude_ratio_twice_transforms_once(monkeypatch):
    rec = tone_record(n=8191, bottom_gain=0.97, noise=1e-14, seed=9)
    expected = subtract(_fresh(rec), HAND_OVER_CAL).tobytes()
    counts = _count_transforms(monkeypatch)
    assert amplitude_ratio(rec, 10.0) == amplitude_ratio(rec, 10.0)
    assert subtract(rec, HAND_OVER_CAL).tobytes() == expected
    assert dict(counts) == {"rfft": 2, "irfft": 1}


def test_held_tone_bins_serve_only_their_own_tone(monkeypatch):
    a, b = tone_record(noise=1e-14, seed=15), tone_record(freq=35.0, amp=5e-12)
    rec = TwoChannelRecord(FS, a.top_t + b.top_t, 0.97 * (a.bottom_t + b.bottom_t))
    expected = {f: reduction_ratio(_fresh(rec), HAND_OVER_CAL, f) for f in (10.0, 35.0)}
    ratio_35 = amplitude_ratio(_fresh(rec), 35.0)
    amplitude_ratio(rec, 10.0)
    counts = _count_transforms(monkeypatch)
    # Nothing held at 35 Hz yet: both channels are transformed again.
    assert reduction_ratio(rec, HAND_OVER_CAL, 35.0) == expected[35.0]
    assert dict(counts) == {"rfft": 2}
    # A second tone reads the held spectra, then both tones' bins are held.
    assert amplitude_ratio(rec, 35.0) == ratio_35
    for freq in (10.0, 35.0):
        assert reduction_ratio(rec, HAND_OVER_CAL, freq) == expected[freq]
    assert dict(counts) == {"rfft": 2}


def test_copies_of_a_record_and_its_held_spectra(monkeypatch):
    rec = tone_record(n=8191, bottom_gain=0.97, noise=1e-14, seed=9)
    expected = subtract(_fresh(rec), HAND_OVER_CAL).tobytes()
    amplitude_ratio(rec, 10.0)
    # A shallow copy shares the held spectra; the others are new records.
    copies = {"copy": copy.copy(rec), "deepcopy": copy.deepcopy(rec),
              "replace": dataclasses.replace(rec), "pickle": pickle.loads(pickle.dumps(rec))}
    counts = _count_transforms(monkeypatch)
    for name, twin in copies.items():
        assert not twin.top_t.flags.writeable and not twin.bottom_t.flags.writeable
        assert subtract(twin, HAND_OVER_CAL).tobytes() == expected
        assert counts.pop("rfft", 0) == (0 if name == "copy" else 2), name
    assert subtract(rec, HAND_OVER_CAL).tobytes() == expected
    assert counts["rfft"] == 2


def test_record_channels_are_read_only():
    top, bottom = np.zeros(64), np.ones(64)
    rec = TwoChannelRecord(FS, top, bottom)
    for channel in (rec.top_t, rec.bottom_t):
        with pytest.raises(ValueError, match="read-only"):
            channel[0] = 1.0
    # The caller's own arrays stay writable.
    top[0] = bottom[0] = 2.0


def test_threads_sharing_a_record_get_the_lone_results():
    # Each thread runs the chain on one shared record; a spectrum corrected by
    # one call and read by another would change some result.
    rec = tone_record(n=8191, bottom_gain=0.97, noise=1e-14, seed=9)
    expected = (amplitude_ratio(_fresh(rec), 10.0),
                subtract(_fresh(rec), HAND_OVER_CAL).tobytes(),
                reduction_ratio(_fresh(rec), HAND_OVER_CAL, 10.0))
    results = []

    def chain():
        for _ in range(25):
            results.append((amplitude_ratio(rec, 10.0), subtract(rec, HAND_OVER_CAL).tobytes(),
                            reduction_ratio(rec, HAND_OVER_CAL, 10.0)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=chain) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 100
    assert all(result == expected for result in results)
