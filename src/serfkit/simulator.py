"""Seeded synthetic two-channel magnetometer data.

Desk-scale oracle for the calibration and subtraction chain: a common field
(tones plus shaped noise) passes through per-channel first-order low-pass
responses, then independent sensor noise is added and gradient noise is
split antisymmetrically between the channels. The first-order responses make
the inter-channel phase difference follow
``arctan(f (f1 - f2) / (f^2 + f1 f2))`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .records import TwoChannelRecord

MIN_SAMPLES = 4096


@dataclass(frozen=True)
class NoiseModel:
    """Target amplitude spectral densities in T/sqrt(Hz).

    ``sensor_asd_t_sqrthz`` is a single value for both channels or a
    (top, bottom) pair; sensor noise is independent between channels.
    Gradient noise is one series applied as +half to the top channel and
    -half to the bottom, so channel subtraction adds it coherently.
    ``one_over_f_corner_hz`` steepens the common-mode noise below the
    corner as ASD * sqrt(corner / f); zero disables it.
    """

    common_asd_t_sqrthz: float = 0.0
    gradient_asd_t_sqrthz: float = 0.0
    sensor_asd_t_sqrthz: float | tuple[float, float] = 0.0
    one_over_f_corner_hz: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise InvalidParameterError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        top, bottom = self.sensor_pair
        if min(self.common_asd_t_sqrthz, self.gradient_asd_t_sqrthz, top, bottom) < 0:
            raise InvalidParameterError("noise ASDs must be nonnegative")
        if self.one_over_f_corner_hz < 0:
            raise InvalidParameterError("1/f corner must be nonnegative")

    @property
    def sensor_pair(self) -> tuple[float, float]:
        if isinstance(self.sensor_asd_t_sqrthz, (tuple, list)):
            top, bottom = self.sensor_asd_t_sqrthz
            return float(top), float(bottom)
        return float(self.sensor_asd_t_sqrthz), float(self.sensor_asd_t_sqrthz)


@dataclass(frozen=True)
class SimConfig:
    """Synthetic record configuration.

    ``tones`` is a sequence of (freq_hz, amp_t, phase_rad) common-mode
    calibration tones. Identical seed and config give bit-identical output.
    """

    sample_rate_hz: float
    duration_s: float
    seed: int = 0
    f1_hz: float = 49.9
    f2_hz: float = 68.8
    channel_gains: tuple[float, float] = (1.0, 1.0)
    tones: tuple = ()
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        for name in ("sample_rate_hz", "duration_s", "f1_hz", "f2_hz", "channel_gains", "tones"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.sample_rate_hz > 0 or not self.duration_s > 0:
            raise ConfigError("sample rate and duration must be positive")
        if self.n_samples < MIN_SAMPLES:
            raise ConfigError(
                f"record of {self.n_samples} samples too short, need {MIN_SAMPLES}"
            )
        if not (self.f1_hz > 0 and self.f2_hz > 0):
            raise ConfigError("channel bandwidths must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @property
    def n_samples(self) -> int:
        return int(round(self.sample_rate_hz * self.duration_s))


def channel_transfer(freq_hz, bandwidth_hz: float):
    """First-order low-pass response ``1 / (1 + i f / f_c)``.

    Unity at DC; magnitude ``1/sqrt(2)`` and phase ``-pi/4`` at the corner.
    """
    if not bandwidth_hz > 0:
        raise InvalidParameterError("bandwidth_hz must be positive")
    f = np.asarray(freq_hz, dtype=float)
    out = np.empty(f.shape, dtype=complex)
    out.real = 1.0
    np.divide(f, bandwidth_hz, out=out.imag)
    np.divide(1.0, out, out=out)
    return out if out.ndim else complex(out)


def _shaped_noise(rng, n: int, fs: float, level: float,
                  corner_hz: float = 0.0) -> np.ndarray | None:
    """Spectrum (``rfft`` layout) of a real series with one-sided ASD ``level``.

    A nonzero ``corner_hz`` steepens the ASD below the corner as
    ``level * sqrt(corner / f)``. Bins have E|X_k|^2 = PSD(f_k) * fs * n / 2,
    so Welch estimates read back the configured density; DC is zero and a
    Nyquist bin is real. The normals are drawn even for a zero ASD, so that
    the generator stream does not depend on the noise levels; then it returns None.
    """
    spec = np.empty(n // 2 + 1, dtype=complex)
    spec.real = rng.standard_normal(len(spec))
    spec.imag = rng.standard_normal(len(spec))
    if level == 0.0:
        return None
    spec *= level * np.sqrt(fs * n / 4.0)
    if corner_hz > 0.0:
        spec[1:] *= np.sqrt(np.maximum(corner_hz / np.fft.rfftfreq(n, 1.0 / fs)[1:], 1.0))
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = spec.real[-1] * np.sqrt(2.0)
    return spec


# Overflow shows as non-finite samples, which the final check reports.
@np.errstate(over="ignore", invalid="ignore")
def simulate_record(cfg: SimConfig) -> TwoChannelRecord:
    """Generate a deterministic two-channel record from the configuration.

    Each channel is one spectrum, transformed once:

        top    = irfft(g1 * H1 * C + G / 2 + S_top)
        bottom = irfft(g2 * H2 * C - G / 2 + S_bottom)

    ``C`` is the common-mode noise spectrum plus the ``rfft`` of the tone
    sum, ``H1`` and ``H2`` are the first-order responses at ``f1`` and
    ``f2``, and ``G`` and ``S`` are the gradient and sensor noise spectra.
    Terms are summed left to right; a zero ASD adds no term, and with no
    common field the sum starts from zeros. Draw order (common, gradient,
    sensor top, sensor bottom) is fixed for reproducibility.
    """
    n = cfg.n_samples
    fs = cfg.sample_rate_hz
    rng = np.random.default_rng(cfg.seed)
    noise = cfg.noise

    # The tones draw nothing, so their spectrum is built first, while little else is held.
    tones = None
    if cfg.tones:
        tones = np.zeros(n)
        for tone_freq, amp, phase in cfg.tones:
            wave = np.arange(n) / fs
            wave *= 2.0 * np.pi * tone_freq
            wave += phase
            np.sin(wave, out=wave)
            wave *= amp
            tones += wave
            del wave
        tones = np.fft.rfft(tones)
    common = _shaped_noise(rng, n, fs, noise.common_asd_t_sqrthz, noise.one_over_f_corner_hz)
    if common is None:
        common = tones
    elif tones is not None:
        common += tones
    del tones

    if common is None:
        channels = [np.zeros(n // 2 + 1, dtype=complex) for _ in range(2)]
    else:
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        channels = [channel_transfer(freqs, f_c) for f_c in (cfg.f1_hz, cfg.f2_hz)]
        del freqs
        for spec, gain in zip(channels, cfg.channel_gains):
            spec *= gain
            spec *= common
        del spec, common

    # Added before the sensor draws, so it is never held beside a sensor spectrum.
    half_gradient = _shaped_noise(rng, n, fs, 0.5 * noise.gradient_asd_t_sqrthz)
    if half_gradient is not None:
        channels[0] += half_gradient
        channels[1] -= half_gradient
        del half_gradient
    for i, sensor_asd in enumerate(noise.sensor_pair):
        sensor = _shaped_noise(rng, n, fs, sensor_asd)
        if sensor is not None:
            channels[i] += sensor
            del sensor
        channels[i] = np.fft.irfft(channels[i], n)
    top, bottom = channels

    if not (np.all(np.isfinite(top)) and np.all(np.isfinite(bottom))):
        raise ConfigError("simulation produced non-finite samples")
    return TwoChannelRecord(sample_rate_hz=fs, top_t=top, bottom_t=bottom)
