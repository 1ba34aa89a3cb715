"""Welch ASD estimator, tesla calibration and band-floor tests."""

import math
import warnings

import numpy as np
import pytest

from serfkit.errors import (
    InsufficientBandError,
    InsufficientDataError,
    InvalidParameterError,
    MissingToneError,
)
from serfkit.noisepsd import (
    TONE_MIN_SNR,
    TONE_NEIGHBORHOOD_BINS,
    PsdEstimate,
    _hann_bins,
    band_floor,
    calibrate_tesla,
    hann_window,
    tone_amplitude,
    welch_asd,
)

FS = 1000.0


def white_noise(sigma=1.0, n=60000, seed=0):
    return np.random.default_rng(seed).normal(0.0, sigma, n)


class TestWelch:
    def test_white_noise_level(self):
        psd = welch_asd(white_noise(seed=1), FS, segment_len=1024)
        expected = 1.0 / math.sqrt(FS / 2.0)
        assert np.mean(psd.asd_t_sqrthz[1:]) == pytest.approx(expected, rel=0.05)
        assert expected == pytest.approx(0.0447, abs=2e-4)

    def test_white_noise_scales_with_sigma(self):
        x = white_noise(seed=2)
        psd1 = welch_asd(x, FS)
        psd3 = welch_asd(3.0 * x, FS)
        assert psd3.asd_t_sqrthz == pytest.approx(3.0 * psd1.asd_t_sqrthz, rel=1e-12)

    def test_pure_sine_integrated_power(self):
        t = np.arange(60000) / FS
        amp = 2.5
        x = amp * np.sin(2 * np.pi * 50.0 * t)
        psd = welch_asd(x, FS)
        measured = tone_amplitude(psd, 50.0)
        assert measured**2 / 2.0 == pytest.approx(amp**2 / 2.0, rel=0.02)

    def test_zero_input(self):
        psd = welch_asd(np.zeros(10000), FS)
        assert np.all(psd.asd_t_sqrthz == 0.0)

    def test_parseval_on_white_noise(self):
        x = white_noise(seed=3)
        psd = welch_asd(x, FS)
        integral = np.sum(psd.asd_t_sqrthz**2) * psd.bin_width_hz
        assert integral == pytest.approx(np.mean(x**2), rel=0.01)

    def test_frequency_axis(self):
        psd = welch_asd(white_noise(n=9000, seed=4), FS, segment_len=2048)
        assert psd.freqs_hz[0] == 0.0
        assert psd.freqs_hz[-1] == FS / 2.0
        assert psd.n_averages == (9000 - 2048) // 1024 + 1

    def test_series_shorter_than_segment(self):
        with pytest.raises(InsufficientDataError):
            welch_asd(np.zeros(1000), FS, segment_len=4096)

    def test_segment_too_small(self):
        with pytest.raises(InvalidParameterError):
            welch_asd(np.zeros(1000), FS, segment_len=32)

    def test_bad_overlap(self):
        with pytest.raises(InvalidParameterError):
            welch_asd(np.zeros(10000), FS, overlap_fraction=1.0)


class TestCalibrateTesla:
    def record_with_gain(self, gain, seed=5):
        t = np.arange(60000) / FS
        x = 16e-12 * np.sin(2 * np.pi * 10.0 * t)
        x = x + np.random.default_rng(seed).normal(0.0, 8e-15 * math.sqrt(FS / 2), len(t))
        return gain * x

    def test_recovers_tone_amplitude(self):
        psd = welch_asd(self.record_with_gain(3.7), FS)
        scale = calibrate_tesla(psd, 10.0, 16e-12)
        recovered = tone_amplitude(psd.scaled(scale), 10.0)
        assert recovered == pytest.approx(16e-12, rel=0.02, abs=0)

    def test_unity_gain_scale_near_one(self):
        psd = welch_asd(self.record_with_gain(1.0), FS)
        assert calibrate_tesla(psd, 10.0, 16e-12) == pytest.approx(1.0, rel=0.02)

    def test_doubling_gain_halves_scale(self):
        psd1 = welch_asd(self.record_with_gain(1.0), FS)
        psd2 = welch_asd(self.record_with_gain(2.0), FS)
        s1 = calibrate_tesla(psd1, 10.0, 16e-12)
        s2 = calibrate_tesla(psd2, 10.0, 16e-12)
        assert s2 == pytest.approx(s1 / 2.0, rel=1e-9)

    def test_missing_tone(self):
        psd = welch_asd(white_noise(seed=6), FS)
        with pytest.raises(MissingToneError):
            calibrate_tesla(psd, 123.0, 16e-12)

    @pytest.mark.parametrize("k", [1000, 1020])
    def test_subnormal_scale_rejected(self, k):
        # Mapping a unit tone scaled by 2**k onto 16 pT takes a subnormal
        # scale, whose few significant bits would round every scaled bin.
        t = np.arange(8192) / FS
        x = np.sin(2 * np.pi * 10.0 * t) + white_noise(1e-3, 8192, seed=3)
        psd = welch_asd(np.ldexp(x, k), FS)
        with pytest.raises(InvalidParameterError, match="below the smallest normal float"):
            calibrate_tesla(psd, 10.0, 16e-12)


@pytest.mark.parametrize("snr", [2.5, 5.0, 9.9])
def test_tone_gate_is_ten_times_the_local_floor(snr):
    # The documented gate, as a literal: a tone between 2 and 10 times its
    # local floor is rejected, one just above 10 times is kept.
    freqs = np.linspace(0.0, FS / 2.0, 2049)
    asd = np.ones(2049)
    asd[200] = snr
    with pytest.raises(MissingToneError, match=rf"has SNR {snr:.2f} < 10$"):
        tone_amplitude(PsdEstimate(freqs, asd, 4096, 0.5, 1), freqs[200])
    asd[200] = 10.5
    assert tone_amplitude(PsdEstimate(freqs, asd, 4096, 0.5, 1), freqs[200]) > 0


class TestBandFloor:
    def flat_psd(self, level=8e-15, nbins=2049):
        freqs = np.linspace(0.0, FS / 2.0, nbins)
        return PsdEstimate(freqs, np.full(nbins, level), 4096, 0.5, 10)

    def test_flat_floor(self):
        assert band_floor(self.flat_psd(), 20.0, 30.0) == pytest.approx(8e-15, rel=1e-12, abs=0)

    def test_flat_noise_floor_from_welch(self):
        x = white_noise(sigma=8e-15 * math.sqrt(FS / 2.0), seed=7)
        psd = welch_asd(x, FS)
        assert band_floor(psd, 20.0, 30.0) == pytest.approx(8e-15, rel=0.03, abs=0)

    def test_tone_excluded_from_floor(self):
        t = np.arange(60000) / FS
        x = white_noise(sigma=8e-15 * math.sqrt(FS / 2.0), seed=8)
        x_tone = x + 16e-12 * np.sin(2 * np.pi * 25.0 * t)
        clean = band_floor(welch_asd(x, FS), 20.0, 30.0)
        with_tone = band_floor(welch_asd(x_tone, FS), 20.0, 30.0)
        assert with_tone == pytest.approx(clean, rel=0.05)

    def test_zero_noise_floor(self):
        assert band_floor(self.flat_psd(level=0.0), 20.0, 30.0) == 0.0

    def test_band_too_narrow(self):
        with pytest.raises(InsufficientBandError):
            band_floor(self.flat_psd(), 20.0, 20.5)

    def test_band_outside_range(self):
        with pytest.raises(InsufficientBandError):
            band_floor(self.flat_psd(), 600.0, 700.0)

    def test_inverted_band(self):
        with pytest.raises(InsufficientBandError):
            band_floor(self.flat_psd(), 30.0, 20.0)

    @staticmethod
    def per_bin_floor(psd, f_lo_hz, f_hi_hz):
        # Reference: the per-bin loop over the truncated +-20-bin windows.
        freqs, asd = psd.freqs_hz, psd.asd_t_sqrthz
        keep = []
        for k in np.flatnonzero((freqs >= f_lo_hz) & (freqs <= f_hi_hz)):
            lo = max(0, k - TONE_NEIGHBORHOOD_BINS)
            hi = min(len(asd), k + TONE_NEIGHBORHOOD_BINS + 1)
            if not asd[k] > TONE_MIN_SNR * np.median(asd[lo:hi]):
                keep.append(k)
        return float(np.median(asd[keep]))

    @pytest.mark.parametrize(
        "segment_len, band",
        [(4096, (0.0, 2.0)), (4096, (0.0, 500.0)), (4096, (5.0, 15.0)), (4096, (20.0, 30.0)),
         (64, (0.0, 500.0))],
    )
    def test_matches_per_bin_loop(self, segment_len, band):
        t = np.arange(60000) / FS
        x = white_noise(sigma=8e-15 * math.sqrt(FS / 2.0), seed=10)
        x = x + 16e-12 * np.sin(2 * np.pi * 10.0 * t) + 1e-12 * np.sin(2 * np.pi * 499.0 * t)
        psd = welch_asd(x, FS, segment_len=segment_len)
        assert band_floor(psd, *band) == self.per_bin_floor(psd, *band)


class TestPsdEstimate:
    def test_scaled_returns_new_estimate(self):
        psd = welch_asd(white_noise(n=10000, seed=9), FS, segment_len=1024)
        scaled = psd.scaled(2.0)
        assert scaled.asd_t_sqrthz == pytest.approx(2.0 * psd.asd_t_sqrthz)
        assert scaled.segment_len == psd.segment_len

    def test_negative_asd_rejected(self):
        with pytest.raises(InvalidParameterError):
            PsdEstimate(np.arange(5.0), np.array([1.0, -1.0, 1.0, 1.0, 1.0]),
                        64, 0.5, 1)


@pytest.mark.parametrize(
    "n, segment_len, overlap",
    [(60000, 4096, 0.5), (10001, 1000, 0.25), (4097, 4096, 0.0), (5000, 255, 0.9)],
)
def test_welch_asd_matches_scipy(n, segment_len, overlap):
    signal = pytest.importorskip("scipy.signal")
    x = white_noise(n=n, seed=n)
    psd = welch_asd(x, FS, segment_len=segment_len, overlap_fraction=overlap)
    freqs, pxx = signal.welch(
        x, FS, window="hann", nperseg=segment_len,
        noverlap=int(overlap * segment_len), detrend=False,
    )
    np.testing.assert_allclose(psd.freqs_hz, freqs, rtol=1e-12)
    np.testing.assert_allclose(psd.asd_t_sqrthz, np.sqrt(pxx), rtol=1e-12)


# Ranges that start at DC, end at Nyquist, or both, for an odd, an even and a
# 3 x large-prime length.
@pytest.mark.parametrize("n", [8191, 8192, 131073])
def test_hann_bins_match_windowed_rfft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 1.0, n) + 100.0 * np.sin(2 * np.pi * 0.01 * np.arange(n))
    expected = np.abs(np.fft.rfft(x * hann_window(n)))
    spectrum = np.fft.rfft(x)
    n_bins = n // 2 + 1
    for lo, hi in ((0, 45), (n_bins - 45, n_bins), (0, n_bins)):
        got = _hann_bins(spectrum, n, lo, hi)
        assert np.max(np.abs(got - expected[lo:hi])) <= 1e-12 * expected.max()


# A power of two rounds nothing, so every estimate scales exactly, in the
# series or in the rate, far past where the unscaled squares would under- or
# overflow.
@pytest.mark.parametrize("k", [-900, -560, -36, 36, 530, 1000])
@pytest.mark.parametrize("n", [8192, 60000])
def test_power_of_two_scaling_is_exact(n, k):
    x = white_noise(n=n, seed=n) + 100.0 * np.sin(2 * np.pi * 10.0 * np.arange(n) / FS)
    psd = welch_asd(x, FS)
    scaled = welch_asd(np.ldexp(x, k), FS)
    assert scaled.asd_t_sqrthz.tobytes() == np.ldexp(psd.asd_t_sqrthz, k).tobytes()
    assert band_floor(scaled, 20.0, 30.0) == math.ldexp(band_floor(psd, 20.0, 30.0), k)
    assert tone_amplitude(scaled, 10.0) == math.ldexp(tone_amplitude(psd, 10.0), k)
    scale = calibrate_tesla(psd, 10.0, 100.0)
    assert calibrate_tesla(scaled, 10.0, 100.0) == math.ldexp(scale, -k)
    for j in (-500, -8, 8, 506):
        at_rate = welch_asd(x, FS * 4.0**j)
        assert at_rate.asd_t_sqrthz.tobytes() == np.ldexp(psd.asd_t_sqrthz, -j).tobytes()


@pytest.mark.parametrize("amp", [1e-310, 3.75e307], ids=["subnormal", "huge"])
def test_white_noise_level_at_the_ends_of_float_range(amp):
    x = np.random.default_rng(8).uniform(-amp, amp, 60000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psd = welch_asd(x, FS)
    level = np.mean(psd.asd_t_sqrthz[1:] / amp)  # divided first: the sum would overflow
    assert level == pytest.approx(math.sqrt(2.0 / (3.0 * FS)), rel=0.05)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_rejected(bad):
    x = white_noise(n=8192)
    x[100] = bad
    with pytest.raises(InvalidParameterError, match="non-finite samples"):
        welch_asd(x, FS)


def test_asd_beyond_float_range_rejected():
    # 1e300 T of white noise sampled once per 1e30 s reads about 1e315 T/sqrt(Hz).
    with pytest.raises(InvalidParameterError, match="ASD exceeds the float range at 1e-30 Hz"):
        welch_asd(white_noise(sigma=1e300, n=8192), 1e-30)
