"""Synthetic two-channel generator tests."""

import collections
import math
import tracemalloc

import numpy as np
import pytest

from serfkit.errors import ConfigError, InvalidParameterError
from serfkit.gradiometer import (
    GradCalibration,
    amplitude_ratio,
    phase_difference,
    subtract,
)
from serfkit.noisepsd import band_floor, tone_amplitude, welch_asd
from serfkit.simulator import NoiseModel, SimConfig, channel_transfer, simulate_record

FS = 1000.0
F1, F2 = 49.9, 68.8


class TestChannelTransfer:
    def test_dc_unity(self):
        assert channel_transfer(0.0, 50.0) == 1.0 + 0.0j

    def test_corner_frequency(self):
        h = channel_transfer(50.0, 50.0)
        assert abs(h) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert np.angle(h) == pytest.approx(-math.pi / 4.0, rel=1e-12)

    def test_phase_difference_identity(self):
        f = np.linspace(0.05, 500.0, 8000)
        dphi = np.angle(channel_transfer(f, F1)) - np.angle(channel_transfer(f, F2))
        assert np.max(np.abs(dphi - phase_difference(f, F1, F2))) < 1e-12

    def test_bad_bandwidth(self):
        with pytest.raises(InvalidParameterError):
            channel_transfer(10.0, 0.0)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = SimConfig(FS, 10.0, seed=42, tones=((10.0, 1e-12, 0.3),),
                        noise=NoiseModel(common_asd_t_sqrthz=5e-15,
                                         gradient_asd_t_sqrthz=1e-15,
                                         sensor_asd_t_sqrthz=2e-15))
        a = simulate_record(cfg)
        b = simulate_record(cfg)
        assert np.array_equal(a.top_t, b.top_t)
        assert np.array_equal(a.bottom_t, b.bottom_t)

    def test_different_seed_differs(self):
        base = dict(sample_rate_hz=FS, duration_s=10.0,
                    noise=NoiseModel(common_asd_t_sqrthz=5e-15))
        a = simulate_record(SimConfig(seed=1, **base))
        b = simulate_record(SimConfig(seed=2, **base))
        assert not np.array_equal(a.top_t, b.top_t)


class TestTones:
    def test_matched_channels_identical(self):
        cfg = SimConfig(FS, 10.0, seed=0, f1_hz=60.0, f2_hz=60.0,
                        tones=((10.0, 16e-12, 0.0),))
        rec = simulate_record(cfg)
        scale = np.max(np.abs(rec.top_t))
        assert np.max(np.abs(rec.top_t - rec.bottom_t)) <= 1e-12 * scale

    def test_tone_amplitudes_follow_response_and_gain(self):
        gains = (1.3, 0.7)
        cfg = SimConfig(FS, 20.0, seed=0, f1_hz=F1, f2_hz=F2,
                        channel_gains=gains, tones=((10.0, 16e-12, 0.0),))
        rec = simulate_record(cfg)
        top = tone_amplitude(welch_asd(rec.top_t, FS, len(rec)), 10.0)
        bottom = tone_amplitude(welch_asd(rec.bottom_t, FS, len(rec)), 10.0)
        expected = [16e-12 * abs(channel_transfer(10.0, f)) * g for f, g in zip((F1, F2), gains)]
        assert [top, bottom] == pytest.approx(expected, rel=0.01, abs=0)

    def test_injected_tone_phases_match_model(self):
        tones = tuple((f, 1e-12, 0.0) for f in (5.0, 20.0, 50.0, 100.0, 200.0))
        cfg = SimConfig(FS, 20.0, seed=0, f1_hz=F1, f2_hz=F2, tones=tones)
        rec = simulate_record(cfg)
        n = len(rec)
        top, bottom = np.fft.rfft(rec.top_t), np.fft.rfft(rec.bottom_t)
        for f, _, _ in tones:
            k = int(round(f * n / FS))
            measured = np.angle(top[k]) - np.angle(bottom[k])
            assert abs(measured - phase_difference(f, F1, F2)) < 0.002


class TestNoiseFloors:
    def test_common_floor_reads_back_on_both_channels(self):
        cfg = SimConfig(FS, 60.0, seed=3, f1_hz=F1, f2_hz=F2,
                        noise=NoiseModel(common_asd_t_sqrthz=8e-15))
        rec = simulate_record(cfg)
        for series in (rec.top_t, rec.bottom_t):
            psd = welch_asd(series, FS)
            assert band_floor(psd, 2.0, 10.0) == pytest.approx(8e-15, rel=0.05, abs=0)

    def test_sensor_floor_uncorrelated_sum_after_subtraction(self):
        cfg = SimConfig(FS, 60.0, seed=4, f1_hz=F1, f2_hz=F2,
                        tones=((10.0, 16e-12, 0.0),),
                        noise=NoiseModel(common_asd_t_sqrthz=8e-15,
                                         sensor_asd_t_sqrthz=1.2e-15))
        rec = simulate_record(cfg)
        cal = GradCalibration(amplitude_ratio(rec, 10.0), F1, F2,
                              tone_freq_hz=10.0, tone_amp_t=16e-12)
        diff = subtract(rec, cal, phase_correct=True)
        floor = band_floor(welch_asd(diff, FS), 20.0, 30.0)
        assert floor == pytest.approx(1.2e-15 * math.sqrt(2.0), rel=0.10, abs=0)

    def test_gradient_noise_survives_subtraction(self):
        base = dict(sample_rate_hz=FS, duration_s=30.0, f1_hz=F1, f2_hz=F2,
                    tones=((10.0, 16e-12, 0.0),))
        grad = 2e-15
        cfg = SimConfig(seed=5, noise=NoiseModel(common_asd_t_sqrthz=8e-15,
                                                 gradient_asd_t_sqrthz=grad), **base)
        rec = simulate_record(cfg)
        cal = GradCalibration(amplitude_ratio(rec, 10.0), F1, F2,
                              tone_freq_hz=10.0, tone_amp_t=16e-12)
        diff = subtract(rec, cal, phase_correct=True)
        floor = band_floor(welch_asd(diff, FS), 20.0, 30.0)
        # The antisymmetric split makes the difference carry the full
        # gradient density.
        assert floor == pytest.approx(grad, rel=0.15, abs=0)

    def test_one_over_f_corner_boosts_low_band(self):
        cfg = SimConfig(FS, 60.0, seed=6, f1_hz=F1, f2_hz=F2,
                        noise=NoiseModel(common_asd_t_sqrthz=8e-15,
                                         one_over_f_corner_hz=5.0))
        rec = simulate_record(cfg)
        psd = welch_asd(rec.top_t, FS)
        low = band_floor(psd, 1.0, 2.5)
        flat = band_floor(psd, 10.0, 30.0)
        assert 1.3 * flat < low < 3.0 * flat


class TestCancellation:
    def test_noise_free_cancellation_near_machine_precision(self):
        cfg = SimConfig(FS, 30.0, seed=7, f1_hz=F1, f2_hz=F2,
                        tones=((10.0, 16e-12, 0.0), (35.0, 5e-12, 1.0)),
                        noise=NoiseModel(common_asd_t_sqrthz=8e-15))
        rec = simulate_record(cfg)
        cal = GradCalibration(amplitude_ratio(rec, 10.0), F1, F2,
                              tone_freq_hz=10.0, tone_amp_t=16e-12)
        diff = subtract(rec, cal, phase_correct=True)
        assert np.sqrt(np.mean(diff**2)) <= 1e-3 * np.sqrt(np.mean(rec.top_t**2))


class TestValidation:
    def test_output_always_finite(self):
        cfg = SimConfig(FS, 10.0, seed=8,
                        noise=NoiseModel(common_asd_t_sqrthz=1e-12,
                                         gradient_asd_t_sqrthz=1e-13,
                                         sensor_asd_t_sqrthz=(1e-14, 2e-14),
                                         one_over_f_corner_hz=10.0))
        rec = simulate_record(cfg)
        assert np.all(np.isfinite(rec.top_t))
        assert np.all(np.isfinite(rec.bottom_t))

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(FS, 0.0)

    def test_too_short_record_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(FS, 1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidParameterError):
            NoiseModel(common_asd_t_sqrthz=-1.0)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(FS, 10.0, f1_hz=-5.0)

    # Before, a NaN corner was read as no corner and a NaN ASD as a valid one,
    # and an infinite duration raised OverflowError from n_samples.
    @pytest.mark.parametrize("name, value", [
        ("common_asd_t_sqrthz", math.nan),
        ("gradient_asd_t_sqrthz", math.inf),
        ("sensor_asd_t_sqrthz", (1e-15, math.nan)),
        ("one_over_f_corner_hz", math.nan),
    ], ids=["nan_common", "inf_gradient", "nan_sensor", "nan_corner"])
    def test_non_finite_noise_rejected_by_name(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite, got "):
            NoiseModel(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("sample_rate_hz", math.nan),
        ("duration_s", math.inf),
        ("f2_hz", math.inf),
        ("channel_gains", (1.0, -math.inf)),
        ("tones", ((10.0, math.nan, 0.0),)),
    ], ids=["nan_rate", "inf_duration", "inf_f2", "inf_gain", "nan_tone"])
    def test_non_finite_config_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got "):
            SimConfig(**{"sample_rate_hz": FS, "duration_s": 10.0, name: value})


def _reference_record(cfg):
    """simulate_record written with plain full-length expressions, for bit-exact checks.

    Same draws, operands and summation order as the library, without any of
    its in-place arithmetic or early releases. A zero ASD or an absent tone
    gives a spectrum of zeros here, where the library adds no term; adding
    zeros changes at most a sign of zero, which ``==`` ignores.
    """
    n = cfg.n_samples
    fs = cfg.sample_rate_hz
    t = np.arange(n) / fs
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    rng = np.random.default_rng(cfg.seed)

    def noise_spectrum(level, corner=0.0):
        re = rng.standard_normal(len(freqs))
        im = rng.standard_normal(len(freqs))
        spec = (re + 1j * im) * (level * np.sqrt(fs * n / 4.0))
        if corner > 0.0:
            spec = spec * np.concatenate(([1.0], np.sqrt(np.maximum(corner / freqs[1:], 1.0))))
        spec[0] = 0.0
        if n % 2 == 0:
            spec[-1] = spec[-1].real * np.sqrt(2.0)
        return spec

    noise = cfg.noise
    tone_sum = np.zeros(n)
    for tone_freq, amp, phase in cfg.tones:
        tone_sum = tone_sum + amp * np.sin(2.0 * np.pi * tone_freq * t + phase)
    common = noise_spectrum(noise.common_asd_t_sqrthz, noise.one_over_f_corner_hz) \
        + np.fft.rfft(tone_sum)
    half_gradient = noise_spectrum(0.5 * noise.gradient_asd_t_sqrthz)
    sensor_top_asd, sensor_bottom_asd = noise.sensor_pair
    sensor_top = noise_spectrum(sensor_top_asd)
    sensor_bottom = noise_spectrum(sensor_bottom_asd)

    g1, g2 = cfg.channel_gains
    top = g1 * channel_transfer(freqs, cfg.f1_hz) * common + half_gradient + sensor_top
    bottom = g2 * channel_transfer(freqs, cfg.f2_hz) * common - half_gradient + sensor_bottom
    return np.fft.irfft(top, n), np.fft.irfft(bottom, n)


def _time_domain_record(cfg):
    """The same record composed in the time domain, a second oracle.

    Each noise source is transformed on its own, the tones are added in time,
    and the common field is filtered through its own spectrum. The draws are
    the library's, so by linearity the channels agree with it to rounding.
    """
    n = cfg.n_samples
    fs = cfg.sample_rate_hz
    t = np.arange(n) / fs
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    rng = np.random.default_rng(cfg.seed)

    def shaped_noise(asd):
        re = rng.standard_normal(len(freqs))
        im = rng.standard_normal(len(freqs))
        spec = (re + 1j * im) * (asd * np.sqrt(fs * n / 4.0))
        spec[0] = 0.0
        if n % 2 == 0:
            spec[-1] = re[-1] * asd[-1] * np.sqrt(fs * n / 2.0)
        return np.fft.irfft(spec, n)

    noise = cfg.noise
    common_asd = np.full_like(freqs, noise.common_asd_t_sqrthz)
    corner = noise.one_over_f_corner_hz
    if corner > 0.0:
        with np.errstate(divide="ignore"):
            common_asd = common_asd * np.sqrt(np.maximum(corner / np.maximum(freqs, 1e-300), 1.0))
    common = shaped_noise(common_asd)
    for tone_freq, amp, phase in cfg.tones:
        common = common + amp * np.sin(2.0 * np.pi * tone_freq * t + phase)
    gradient = shaped_noise(np.full_like(freqs, noise.gradient_asd_t_sqrthz))
    sensor_top_asd, sensor_bottom_asd = noise.sensor_pair
    sensor_top = shaped_noise(np.full_like(freqs, sensor_top_asd))
    sensor_bottom = shaped_noise(np.full_like(freqs, sensor_bottom_asd))

    spec = np.fft.rfft(common)
    g1, g2 = cfg.channel_gains
    top = g1 * np.fft.irfft(channel_transfer(freqs, cfg.f1_hz) * spec, n)
    bottom = g2 * np.fft.irfft(channel_transfer(freqs, cfg.f2_hz) * spec, n)
    return top + sensor_top + 0.5 * gradient, bottom + sensor_bottom - 0.5 * gradient


REFERENCE_CONFIGS = {
    "silent": SimConfig(FS, 5.0, seed=1),
    "odd_n": SimConfig(FS, 4.097, seed=2, tones=((10.0, 16e-12, 0.0),),
                       noise=NoiseModel(common_asd_t_sqrthz=8e-15, sensor_asd_t_sqrthz=1e-15)),
    "two_tones": SimConfig(FS, 8.0, seed=3, tones=((10.0, 16e-12, 0.0), (35.0, 5e-12, 1.0)),
                           noise=NoiseModel(common_asd_t_sqrthz=8e-15)),
    "gains": SimConfig(FS, 8.0, seed=4, channel_gains=(1.3, 0.7), tones=((10.0, 16e-12, 0.0),),
                       noise=NoiseModel(common_asd_t_sqrthz=8e-15, sensor_asd_t_sqrthz=1e-15)),
    "gradient": SimConfig(FS, 8.0, seed=5, tones=((10.0, 16e-12, 0.0),),
                          noise=NoiseModel(common_asd_t_sqrthz=8e-15, gradient_asd_t_sqrthz=2e-15,
                                           sensor_asd_t_sqrthz=1e-15)),
    "one_over_f": SimConfig(FS, 8.0, seed=6, tones=((10.0, 16e-12, 0.0),),
                            noise=NoiseModel(common_asd_t_sqrthz=8e-15, one_over_f_corner_hz=5.0)),
    "sensor_pair": SimConfig(FS, 8.0, seed=7, tones=((10.0, 16e-12, 0.0),),
                             noise=NoiseModel(sensor_asd_t_sqrthz=(1e-15, 2e-15))),
    "bench_60k": SimConfig(FS, 60.0, seed=101, f1_hz=F1, f2_hz=F2, tones=((10.0, 16e-12, 0.0),),
                           noise=NoiseModel(common_asd_t_sqrthz=8e-15,
                                            sensor_asd_t_sqrthz=8.5e-16)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_simulate_record_matches_reference_bit_for_bit(name):
    cfg = REFERENCE_CONFIGS[name]
    rec = simulate_record(cfg)
    top, bottom = _reference_record(cfg)
    assert len(rec) == cfg.n_samples
    assert np.array_equal(rec.top_t, top)
    assert np.array_equal(rec.bottom_t, bottom)


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_simulate_record_matches_time_domain_composition(name):
    cfg = REFERENCE_CONFIGS[name]
    rec = simulate_record(cfg)
    for got, want in zip((rec.top_t, rec.bottom_t), _time_domain_record(cfg)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "tones, expected",
    [(((10.0, 16e-12, 0.0),), {"rfft": 1, "irfft": 2}), ((), {"irfft": 2})],
    ids=["tone", "no_tone"],
)
def test_one_inverse_transform_per_channel(monkeypatch, tones, expected):
    calls = collections.Counter()
    for name in np.fft.__all__:
        if name.endswith(("fft", "fftn", "fft2")):
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
    simulate_record(SimConfig(FS, 5.0, seed=1, tones=tones,
                              noise=NoiseModel(common_asd_t_sqrthz=8e-15,
                                               gradient_asd_t_sqrthz=2e-15,
                                               sensor_asd_t_sqrthz=1e-15)))
    assert dict(calls) == expected


def test_zero_noise_turns_negative_zeros_positive():
    # Negative gains on a silent record give -0.0 samples; adding the zero
    # sensor and gradient noise has always made them +0.0.
    rec = simulate_record(SimConfig(FS, 5.0, seed=1, channel_gains=(-1.0, -2.0)))
    zeros = np.zeros(len(rec)).tobytes()
    assert rec.top_t.tobytes() == zeros
    assert rec.bottom_t.tobytes() == zeros


def test_zero_gradient_extra_memory():
    # 2**20 samples. A zero gradient ASD still draws its normals but makes
    # no full-length series; the two output channels count in the peak.
    cfg = SimConfig(FS, 2**20 / FS, seed=5, tones=((10.0, 16e-12, 0.0),),
                    noise=NoiseModel(common_asd_t_sqrthz=8e-15, sensor_asd_t_sqrthz=8.5e-16))
    tracemalloc.start()
    try:
        rec = simulate_record(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * rec.top_t.nbytes
