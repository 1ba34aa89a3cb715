"""Two-channel gradiometric calibration and frequency-domain subtraction.

The two photodiode channels behave as first-order low-pass systems with
different bandwidths f1 (top) and f2 (bottom), which makes their responses
differ in phase by

    dphi(f) = arctan(f * (f1 - f2) / (f^2 + f1 * f2))
            = arctan(f / f2) - arctan(f / f1)

(top phase minus bottom phase). Subtraction is done in the frequency domain:
the bottom spectrum is gain-matched and phase-rotated onto the top channel
before differencing, which cancels common-mode field noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidParameterError
from .fitting import fit_damped_least_squares
from .noisepsd import _hann_bins, _tone_bin, _tone_gate, _tone_span
from .records import TwoChannelRecord

_DEGENERATE_PHASE_RAD = 1e-9
# Bins per block of subtract's correction: few beside the two spectra it may hold.
_BLOCK = 32768


@dataclass(frozen=True)
class GradCalibration:
    """Amplitude ratio at the calibration tone plus the two channel bandwidths."""

    amplitude_ratio: float
    f1_hz: float
    f2_hz: float
    tone_freq_hz: float = 0.0
    tone_amp_t: float = 0.0

    def __post_init__(self):
        for name in ("amplitude_ratio", "f1_hz", "f2_hz", "tone_freq_hz", "tone_amp_t"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
            if name.startswith("tone_") and getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must not be negative (0 means no tone)")
        if not self.amplitude_ratio > 0:
            raise InvalidParameterError("amplitude_ratio must be positive")
        if not (self.f1_hz > 0 and self.f2_hz > 0):
            raise InvalidParameterError("channel bandwidths must be positive")


@dataclass(frozen=True)
class PhasePoint:
    """Measured inter-channel phase difference at one frequency."""

    freq_hz: float
    phase_rad: float

    def __post_init__(self):
        for name in ("freq_hz", "phase_rad"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
        if not abs(self.phase_rad) < math.pi:
            raise InvalidParameterError("|phase_rad| must be below pi")


@dataclass(frozen=True)
class PhaseModelFit:
    """Fitted channel bandwidths with their 2x2 covariance."""

    f1_hz: float
    f2_hz: float
    covariance: np.ndarray


def phase_difference(freq_hz, f1_hz: float, f2_hz: float):
    """Inter-channel phase difference (top minus bottom) in radians.

    Odd under swapping the bandwidths, zero at DC and at infinity, with the
    extremum at ``sqrt(f1 * f2)``.
    """
    if not (f1_hz > 0 and f2_hz > 0):
        raise InvalidParameterError("channel bandwidths must be positive")
    f = np.asarray(freq_hz, dtype=float)
    out = np.arctan2(f * (f1_hz - f2_hz), f * f + f1_hz * f2_hz)
    return out if out.ndim else float(out)


def phase_extremum(f1_hz: float, f2_hz: float) -> tuple[float, float]:
    """Frequency and value of the phase-difference extremum.

    The extremum sits at ``sqrt(f1*f2)`` where the difference equals
    ``arctan((f1 - f2) / (2*sqrt(f1*f2)))``.
    """
    if not (f1_hz > 0 and f2_hz > 0):
        raise InvalidParameterError("channel bandwidths must be positive")
    f_ext = math.sqrt(f1_hz * f2_hz)
    return f_ext, math.atan((f1_hz - f2_hz) / (2.0 * f_ext))


def magnitude_ratio(freq_hz, f1_hz: float, f2_hz: float):
    """Ratio |H1(f)| / |H2(f)| of the first-order channel responses."""
    f = np.asarray(freq_hz, dtype=float)
    out = np.sqrt((1.0 + (f / f2_hz) ** 2) / (1.0 + (f / f1_hz) ** 2))
    return out if out.ndim else float(out)


def fit_phase_model(points) -> PhaseModelFit:
    """Fit the two channel bandwidths to measured phase differences.

    Seeds from the extremum of the data (its frequency pins ``f1*f2``, its
    value pins ``f1 - f2``) and refines by damped least squares.

    Raises
    ------
    InvalidParameterError
        Fewer than 4 points.
    DegenerateDataError
        All phases indistinguishable from zero (bandwidth split unresolvable).
    """
    points = list(points)
    if len(points) < 4:
        raise InvalidParameterError("need at least 4 phase points")
    freqs = np.array([p.freq_hz for p in points])
    phases = np.array([p.phase_rad for p in points])
    if np.any(freqs <= 0):
        raise InvalidParameterError("phase-point frequencies must be positive")
    if np.max(np.abs(phases)) < _DEGENERATE_PHASE_RAD:
        raise DegenerateDataError("all phases are zero: bandwidths indistinguishable")

    i_ext = int(np.argmax(np.abs(phases)))
    f_ext = freqs[i_ext]
    diff = 2.0 * f_ext * math.tan(phases[i_ext])  # f1 - f2 at the extremum
    total = math.sqrt(diff * diff + 4.0 * f_ext * f_ext)  # f1 + f2
    p0 = np.array([0.5 * (total + diff), 0.5 * (total - diff)])

    def residual(p):
        return np.arctan2(freqs * (p[0] - p[1]), freqs**2 + p[0] * p[1]) - phases

    def jacobian(p):
        jac = np.empty((len(freqs), 2))
        jac[:, 0] = freqs / (p[0] ** 2 + freqs**2)
        jac[:, 1] = -freqs / (p[1] ** 2 + freqs**2)
        return jac

    res = fit_damped_least_squares(residual, jacobian, p0)
    f1, f2 = np.abs(res.params)
    return PhaseModelFit(f1_hz=float(f1), f2_hz=float(f2), covariance=res.covariance)


def _check_finite(value: float, record: TwoChannelRecord, what: str) -> None:
    """Reject a record whose ``what`` overflowed, given ``value``, a reduction of it."""
    if not math.isfinite(value):
        top, bottom = record.top_t, record.bottom_t
        peak = max(top.max(), -top.min(), bottom.max(), -bottom.min())
        raise InvalidParameterError(f"{what} overflows: record samples reach {peak:.3g} T")


def _spectrum(record: TwoChannelRecord, channel: str) -> np.ndarray:
    """A channel's rfft: taken off the record, so that no other call sees it changed, or made."""
    held = record._held.pop(channel, None)
    return np.fft.rfft(getattr(record, f"{channel}_t")) if held is None else held


@np.errstate(over="ignore", invalid="ignore")
def amplitude_ratio(record: TwoChannelRecord, tone_freq_hz: float) -> float:
    """Top/bottom response ratio at the calibration tone.

    The ratio of the channels' Hann-windowed spectral magnitudes is taken
    at the top channel's tone bin (local peak within +-2 bins of nominal),
    so any common leakage factor cancels exactly. Only the bins around the
    tone are windowed, from one channel's spectrum at a time.

    Once both tones pass, the channel spectra stay on the record for
    ``subtract``, and their bins around the tone for ``reduction_ratio``.

    Raises
    ------
    MissingToneError
        Tone below 10x the local spectral floor in either channel.
    InvalidParameterError
        Samples so large that a channel's spectrum overflows.
    """
    n = len(record)
    nominal, lo, hi, start, stop = _tone_span(n, record.sample_rate_hz, tone_freq_hz)
    top = _spectrum(record, "top")
    mag_top = _hann_bins(top, n, lo, hi)
    _check_finite(mag_top.max(), record, "the top channel's spectrum")
    k = _tone_bin(mag_top, nominal - lo)
    _tone_gate(mag_top, k, tone_freq_hz, " in top channel")
    bottom = _spectrum(record, "bottom")
    mag_bottom = _hann_bins(bottom, n, lo, hi)
    _check_finite(mag_bottom.max(), record, "the bottom channel's spectrum")
    _tone_gate(mag_bottom, k, tone_freq_hz, " in bottom channel")
    record._held[start, stop] = (top[start:stop].copy(), bottom[start:stop].copy())
    record._held.update(top=top, bottom=bottom)
    return float(mag_top[k] / mag_bottom[k])


def _corrected(bins, cal: GradCalibration, n: int, sample_rate_hz: float, start: int,
               phase_correct=True) -> np.ndarray:
    """``subtract``'s correction times ``bins``, bins ``start..`` of the bottom channel's rfft.

    Out of place: an in-place product can round a one-element block differently.
    Raises InvalidParameterError where the model correction is not finite.
    """
    stop = start + len(bins)
    correction = np.full(len(bins), cal.amplitude_ratio, dtype=complex)
    if phase_correct:
        freqs = np.arange(start, stop) * (1.0 / (n * (1.0 / sample_rate_hz)))  # as np.fft.rfftfreq
        # Anchored at the tone; magnitude_ratio(0, f1, f2) is exactly 1, as with no tone.
        anchor = magnitude_ratio(cal.tone_freq_hz, cal.f1_hz, cal.f2_hz)
        correction *= magnitude_ratio(freqs, cal.f1_hz, cal.f2_hz) / anchor
        rotation = 1j * phase_difference(freqs, cal.f1_hz, cal.f2_hz)
        correction *= np.exp(rotation, out=rotation)
        finite = np.isfinite(correction)
        if not finite.all():
            raise InvalidParameterError(
                f"calibration (f1 {cal.f1_hz:g} Hz, f2 {cal.f2_hz:g} Hz, tone"
                f" {cal.tone_freq_hz:g} Hz) has a non-finite model correction at"
                f" {freqs[finite.argmin()]:g} Hz"
            )
    if start == 0:
        correction[0] = 1.0
    if stop == n // 2 + 1 and n % 2 == 0:
        correction[-1] = abs(correction[-1])
    return correction * bins


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _check_correction(cal: GradCalibration, n: int, sample_rate_hz: float) -> None:
    """Raise as a phase-corrected ``subtract`` of ``n`` samples would on ``cal``'s correction."""
    n_bins = n // 2 + 1
    for start in range(0, n_bins, _BLOCK):
        _corrected(np.ones(min(_BLOCK, n_bins - start)), cal, n, sample_rate_hz, start)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def subtract(
    record: TwoChannelRecord, cal: GradCalibration, phase_correct: bool = True
) -> np.ndarray:
    """Gradiometric difference: top channel minus the calibrated bottom channel.

    Both channels are transformed to the frequency domain, or their spectra
    taken from the record if ``amplitude_ratio`` left them there; the bottom
    spectrum is multiplied by the calibration amplitude ratio and, with
    ``phase_correct``, rotated by the model phase difference at every frequency
    along with the model magnitude dispersion (anchored so the correction equals
    exactly the measured ratio at the calibration tone). The corrected bottom
    spectrum is subtracted from the top and the result transformed back.

    The DC bin is left uncorrected, so the output mean is exactly the
    difference of the channel means; the Nyquist bin receives no phase
    rotation (keeps the spectrum Hermitian). Any record length is handled
    directly by the FFT, no padding needed. The correction is built and
    applied in blocks of bins, in place, so the extra memory is about two
    record channels.

    Raises InvalidParameterError when the samples are so large that the
    difference or a channel's spectrum overflows, or when the calibration's
    model correction is not finite at some bin.
    """
    n = len(record)
    bottom = _spectrum(record, "bottom")
    n_bins = len(bottom)
    for start in range(0, n_bins, _BLOCK):
        bottom[start : start + _BLOCK] = _corrected(
            bottom[start : start + _BLOCK], cal, n, record.sample_rate_hz, start, phase_correct
        )
    top = _spectrum(record, "top")
    top -= bottom
    del bottom
    difference = np.fft.irfft(top, n)
    _check_finite(max(difference.max(), -difference.min()), record, "the difference")
    return difference


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def reduction_ratio(record: TwoChannelRecord, cal: GradCalibration, tone_freq_hz: float) -> float:
    """Tone amplitude in the top channel over its residual after subtraction.

    Infinite when the residual vanishes (perfectly matched channels).

    Both amplitudes are Hann-windowed magnitudes at the tone, taken from
    one spectrum at a time. The residual's spectrum ``T - C*B`` is built
    only at the bins around the tone, from the two channel spectra and
    ``subtract``'s correction ``C``; it equals that of
    ``subtract(record, cal)`` to rounding. After ``amplitude_ratio`` at
    the same tone, the bins it kept are read and nothing is transformed.

    Raises
    ------
    MissingToneError
        Tone not present in the input record.
    InvalidParameterError
        Samples so large that a channel's spectrum or the residual overflows,
        or a calibration whose model correction is not finite at the tone bins.
    """
    n = len(record)
    nominal, lo, hi, start, stop = _tone_span(n, record.sample_rate_hz, tone_freq_hz)
    held = record._held.get((start, stop))
    top_bins = held[0] if held else np.fft.rfft(record.top_t)[start:stop].copy()
    mag = _hann_bins(top_bins, n, lo, hi, start)
    _check_finite(mag.max(), record, "the top channel's spectrum")
    k = _tone_bin(mag, nominal - lo)
    _tone_gate(mag, k, tone_freq_hz, " in top channel")
    top_peak = mag[k]
    bottom_bins = held[1] if held else np.fft.rfft(record.bottom_t)[start:stop].copy()
    residual = top_bins - _corrected(bottom_bins, cal, n, record.sample_rate_hz, start)
    mag = _hann_bins(residual, n, lo, hi, start)
    _check_finite(mag.max(), record, "the residual's spectrum")
    residual_peak = mag[_tone_bin(mag, nominal - lo)]
    if residual_peak == 0.0:
        return math.inf
    return float(top_peak / residual_peak)
