"""Seeded synthetic two-channel magnetometer data.

Desk-scale oracle for the calibration and subtraction chain: a common field
(tones plus shaped noise) passes through per-channel first-order low-pass
responses, then independent sensor noise is added and gradient noise is
split antisymmetrically between the channels. The first-order responses make
the inter-channel phase difference follow
``arctan(f (f1 - f2) / (f^2 + f1 f2))`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    out = 1.0 / (1.0 + 1j * f / bandwidth_hz)
    return out if out.ndim else complex(out)


def _shaped_noise(rng, freqs: np.ndarray, n: int, fs: float, level: float,
                  corner_hz: float = 0.0) -> np.ndarray | None:
    """Real series with one-sided ASD ``level``, synthesized spectrally.

    A nonzero ``corner_hz`` steepens the ASD below the corner as
    ``level * sqrt(corner / f)``. Bin variances are fixed by
    E|X_k|^2 = PSD(f_k) * fs * n / 2 so Welch estimates read back the
    configured density. Normal draws happen even for zero ASD to keep the
    generator stream independent of the noise levels; a zero ASD then
    returns None instead of a series of zeros.
    """
    re = rng.standard_normal(len(freqs))
    im = rng.standard_normal(len(freqs))
    if level == 0.0:
        return None
    asd = np.full_like(freqs, level)
    if corner_hz > 0.0:
        with np.errstate(divide="ignore"):
            asd *= np.sqrt(np.maximum(corner_hz / np.maximum(freqs, 1e-300), 1.0))
    nyquist = re[-1] * asd[-1] * np.sqrt(fs * n / 2.0)
    spec = 1j * im
    spec += re
    del re, im
    asd *= np.sqrt(fs * n / 4.0)
    spec *= asd
    del asd
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = nyquist
    return np.fft.irfft(spec, n)


def _filtered(spec: np.ndarray, freqs: np.ndarray, bandwidth_hz: float, gain: float,
              n: int) -> np.ndarray:
    """``gain`` times the series of ``spec`` passed through the channel response."""
    response = channel_transfer(freqs, bandwidth_hz)
    response *= spec
    out = np.fft.irfft(response, n)
    out *= gain
    return out


def simulate_record(cfg: SimConfig) -> TwoChannelRecord:
    """Generate a deterministic two-channel record from the configuration.

    Channel composition:

        top    = g1 * filt(common, f1) + sensor_top    + gradient / 2
        bottom = g2 * filt(common, f2) + sensor_bottom - gradient / 2

    where ``common`` is the tone sum plus the common-mode noise, filtered
    circularly through the first-order response. Draw order (common,
    gradient, sensor top, sensor bottom) is fixed for reproducibility. Each
    full-length intermediate is released as soon as it has been used.
    """
    n = cfg.n_samples
    fs = cfg.sample_rate_hz
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    rng = np.random.default_rng(cfg.seed)
    noise = cfg.noise

    common = _shaped_noise(
        rng, freqs, n, fs, noise.common_asd_t_sqrthz, noise.one_over_f_corner_hz
    )
    if common is None:
        common = np.zeros(n)
    if cfg.tones:
        t = np.arange(n) / fs
        for tone_freq, amp, phase in cfg.tones:
            wave = 2.0 * np.pi * tone_freq * t
            wave += phase
            np.sin(wave, out=wave)
            wave *= amp
            common += wave
            del wave
        del t
    spec = np.fft.rfft(common)
    del common
    g1, g2 = cfg.channel_gains
    top = _filtered(spec, freqs, cfg.f1_hz, g1, n)
    bottom = _filtered(spec, freqs, cfg.f2_hz, g2, n)
    del spec

    half_gradient = _shaped_noise(rng, freqs, n, fs, noise.gradient_asd_t_sqrthz)
    for channel, sensor_asd in zip((top, bottom), noise.sensor_pair):
        sensor = _shaped_noise(rng, freqs, n, fs, sensor_asd)
        # Zero noise is still added, as a scalar: it turns -0.0 into +0.0.
        channel += 0.0 if sensor is None else sensor
        del sensor
    # A zero gradient is skipped: x - 0.0 is x, and x + 0.0 differs from x
    # only at -0.0, which the sensor step leaves only where the channel and
    # its sensor noise were both exactly -0.0.
    if half_gradient is not None:
        half_gradient *= 0.5
        top += half_gradient
        bottom -= half_gradient

    if not (np.all(np.isfinite(top)) and np.all(np.isfinite(bottom))):
        raise ConfigError("simulation produced non-finite samples")
    return TwoChannelRecord(sample_rate_hz=fs, top_t=top, bottom_t=bottom)
