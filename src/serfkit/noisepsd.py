"""Welch-averaged amplitude spectral density, tone calibration, band floors.

The estimator is one-sided and power-normalized: for white noise of standard
deviation sigma sampled at fs, the ASD reads sigma * sqrt(2 / fs), and the
integral of the PSD over frequency equals the mean-square signal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._median import median
from .constants import DEFAULT_OVERLAP, DEFAULT_SEGMENT_LEN
from .errors import (
    InsufficientBandError,
    InsufficientDataError,
    InvalidParameterError,
    MissingToneError,
)

MIN_SEGMENT_LEN = 64

# Tone handling, shared with the gradiometer: search and integration
# halfwidths around the peak bin, and the local-median SNR threshold used
# both for detection and for exclusion.
TONE_SEARCH_BINS = 2
TONE_INTEGRATE_BINS = 3
TONE_NEIGHBORHOOD_BINS = 20
TONE_MIN_SNR = 10.0


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided, Hann-windowed, power-normalized ASD with its estimation metadata."""

    freqs_hz: np.ndarray
    asd_t_sqrthz: np.ndarray
    segment_len: int
    overlap_fraction: float
    n_averages: int

    def __post_init__(self):
        freqs = np.asarray(self.freqs_hz, dtype=float)
        asd = np.asarray(self.asd_t_sqrthz, dtype=float)
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "asd_t_sqrthz", asd)
        if np.any(asd < 0):
            raise InvalidParameterError("ASD values must be nonnegative")

    @property
    def bin_width_hz(self) -> float:
        return float(self.freqs_hz[1] - self.freqs_hz[0])

    def scaled(self, factor: float) -> "PsdEstimate":
        """Multiplicatively rescaled copy (tesla calibration)."""
        return replace(self, asd_t_sqrthz=self.asd_t_sqrthz * factor)


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _hann_bins(spectrum: np.ndarray, n: int, lo: int, hi: int, start: int = 0) -> np.ndarray:
    """``|rfft(x * hann_window(n))|`` at bins ``lo`` to ``hi - 1``, from ``spectrum = rfft(x)[start:]``.

    The periodic Hann window is ``1/2 - e^{+i}/4 - e^{-i}/4`` in its phase,
    so its DFT is the exact three-bin kernel ``X[k]/2 - (X[k-1] + X[k+1])/4``
    (Harris 1978). Bins beyond DC and Nyquist are the conjugates of their
    mirror bins. Only rfft bins ``max(0, lo - 1)`` to ``min(n // 2, hi)`` are read.
    """
    k = np.arange(lo - 1, hi + 1)
    mirrored = (k < 0) | (k > n // 2)
    x = spectrum[np.where(k < 0, -k, np.where(mirrored, n - k, k)) - start]
    np.conjugate(x, out=x, where=mirrored)
    return np.abs(0.5 * x[1:-1] - 0.25 * (x[:-2] + x[2:]))


def welch_asd(
    series,
    sample_rate_hz: float,
    segment_len: int = DEFAULT_SEGMENT_LEN,
    overlap_fraction: float = DEFAULT_OVERLAP,
) -> PsdEstimate:
    """Welch estimate of the one-sided amplitude spectral density.

    Hann-windowed overlapping segments, power-normalized so that
    sum(PSD) * bin_width equals the mean-square input for stationary noise.

    Spectra are squared in units of ``2**e`` (just above the largest sample
    magnitude) and the rate taken in units of ``4**k``, which round nothing: the
    ASD is what the unscaled arithmetic gives wherever that neither under- nor overflows.

    Raises
    ------
    InsufficientDataError
        Series shorter than one segment.
    InvalidParameterError
        A series holding a NaN or infinite sample, or an ASD beyond the
        float range (a sample rate far below 1 Hz).
    """
    series = np.asarray(series, dtype=float)
    if not sample_rate_hz > 0:
        raise InvalidParameterError("sample_rate_hz must be positive")
    if segment_len < MIN_SEGMENT_LEN:
        raise InvalidParameterError(f"segment_len must be at least {MIN_SEGMENT_LEN}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise InvalidParameterError("overlap_fraction must be in [0, 1)")
    if len(series) < segment_len:
        raise InsufficientDataError(
            f"series of {len(series)} samples shorter than one segment ({segment_len})"
        )
    # max and min propagate NaN; neither makes a full-length temporary.
    peak = max(series.max(), -series.min())
    if not math.isfinite(peak):
        raise InvalidParameterError("series contains non-finite samples")
    # Subnormal series share the smallest normal exponent, so 2**-e stays finite.
    e = max(math.frexp(peak)[1], sys.float_info.min_exp)

    window = hann_window(segment_len)
    # At least 1: int(x * L) <= L - 1 for any float x < 1 and integer L < 2**53.
    step = segment_len - int(overlap_fraction * segment_len)
    starts = range(0, len(series) - segment_len + 1, step)
    k = math.frexp(sample_rate_hz)[1] // 2
    scale = 2.0 / (math.ldexp(sample_rate_hz, -2 * k) * float(window @ window))
    window *= 2.0**-e
    e -= k

    psd = np.zeros(segment_len // 2 + 1)
    for s in starts:
        seg = series[s : s + segment_len]
        spec = np.fft.rfft(seg * window)
        psd += scale * np.abs(spec) ** 2
    psd /= len(starts)
    # One-sided doubling does not apply to the DC and Nyquist bins.
    psd[0] *= 0.5
    if segment_len % 2 == 0:
        psd[-1] *= 0.5
    asd = np.sqrt(psd)
    # A finite series can still have a density beyond the float range, at a very low rate.
    if math.frexp(asd.max())[1] + e > sys.float_info.max_exp:
        raise InvalidParameterError(f"ASD exceeds the float range at {sample_rate_hz:g} Hz")

    freqs = np.fft.rfftfreq(segment_len, 1.0 / sample_rate_hz)
    return PsdEstimate(
        freqs_hz=freqs,
        asd_t_sqrthz=np.ldexp(asd, e),
        segment_len=segment_len,
        overlap_fraction=overlap_fraction,
        n_averages=len(starts),
    )


def _nominal_bin(n_bins: int, bin_width_hz: float, tone_freq_hz: float) -> int:
    """Bin nearest the tone, which must lie strictly inside a spectrum of ``n_bins`` bins."""
    if not math.isfinite(tone_freq_hz):
        raise InvalidParameterError(f"tone frequency must be finite, got {tone_freq_hz:g}")
    # Clipped first: a huge frequency over a small bin width is an infinite bin.
    nominal = int(round(min(max(tone_freq_hz / bin_width_hz, -1.0), n_bins)))
    if not (0 < nominal < n_bins - 1):
        raise MissingToneError(f"tone frequency {tone_freq_hz:g} Hz outside (0, Nyquist)")
    return nominal


def _tone_bin(spectrum: np.ndarray, nominal: int) -> int:
    """Peak bin within +-2 bins of ``nominal``, never the DC bin."""
    lo = max(1, nominal - TONE_SEARCH_BINS)
    hi = min(len(spectrum), nominal + TONE_SEARCH_BINS + 1)
    return lo + int(np.argmax(spectrum[lo:hi]))


def _tone_span(n: int, sample_rate_hz: float, tone_freq_hz: float) -> tuple[int, ...]:
    """Nominal tone bin of an ``n``-sample record, and the bins ``lo..hi-1`` a tone estimate reads.

    These are nominal +-(2 + 20), clipped to the spectrum: the peak search
    and the gate's neighborhood around any peak it can find. Also returned:
    ``start, stop``, where rfft bins ``start..stop-1`` are those ``_hann_bins`` reads.
    """
    n_bins = n // 2 + 1
    nominal = _nominal_bin(n_bins, sample_rate_hz / n, tone_freq_hz)
    reach = TONE_SEARCH_BINS + TONE_NEIGHBORHOOD_BINS
    lo, hi = max(0, nominal - reach), min(n_bins, nominal + reach + 1)
    return nominal, lo, hi, max(0, lo - 1), min(n_bins, hi + 1)


def _tone_gate(spectrum: np.ndarray, k: int, tone_freq_hz: float, where: str = "") -> float:
    """Local floor at tone bin ``k``: median of the +-20-bin neighborhood beyond +-3 bins.

    Raises MissingToneError, with ``where`` ending the message, when the peak
    is below 10x the floor; a zero floor under a nonzero peak passes.
    """
    lo = max(0, k - TONE_NEIGHBORHOOD_BINS)
    hi = min(len(spectrum), k + TONE_NEIGHBORHOOD_BINS + 1)
    skip = TONE_INTEGRATE_BINS
    neighborhood = np.r_[spectrum[lo : max(lo, k - skip)], spectrum[k + skip + 1 : hi]]
    floor = float(median(neighborhood)) if len(neighborhood) else 0.0
    peak = spectrum[k]
    if peak == 0.0 or (floor > 0.0 and peak / floor < TONE_MIN_SNR):
        snr = 0.0 if peak == 0.0 else peak / floor
        raise MissingToneError(
            f"tone at {tone_freq_hz:g} Hz has SNR {snr:.2f} < {TONE_MIN_SNR:g}{where}"
        )
    return floor


def tone_amplitude(psd: PsdEstimate, tone_freq_hz: float) -> float:
    """Tone amplitude (peak, in tesla) from integrated PSD around the peak bin.

    Power is summed over the peak +-3 bins above the local floor, then
    ``A = sqrt(2 * power)``.

    Raises
    ------
    MissingToneError
        Peak below 10x the local median ASD.
    """
    asd = psd.asd_t_sqrthz
    k = _tone_bin(asd, _nominal_bin(len(asd), psd.bin_width_hz, tone_freq_hz))
    floor = _tone_gate(asd, k, tone_freq_hz)
    lo = max(0, k - TONE_INTEGRATE_BINS)
    hi = min(len(asd), k + TONE_INTEGRATE_BINS + 1)
    # Squared in units of the peak's power of two, which rounds nothing.
    e = math.frexp(asd[k])[1]
    band, floor = np.ldexp(asd[lo:hi], -e), math.ldexp(floor, -e)
    power = float(np.sum(np.clip(band**2 - floor**2, 0.0, None))) * psd.bin_width_hz
    return math.ldexp(math.sqrt(2.0 * power), e)


def calibrate_tesla(psd: PsdEstimate, tone_freq_hz: float, tone_amp_t: float) -> float:
    """Multiplicative ASD scale that maps the measured tone onto ``tone_amp_t``.

    Raises
    ------
    MissingToneError
        Tone not visible above the local floor.
    InvalidParameterError
        ``tone_amp_t`` not finite and positive, or a scale that overflows or
        is subnormal, which would round the scaled ASD.
    """
    if not 0 < tone_amp_t < math.inf:
        raise InvalidParameterError(f"tone_amp_t must be finite and positive, got {tone_amp_t:g}")
    measured = tone_amplitude(psd, tone_freq_hz)
    scale = tone_amp_t / measured
    if not math.isfinite(scale):
        raise InvalidParameterError(f"tesla scale {tone_amp_t:g} T / {measured:g} T overflows")
    if scale < sys.float_info.min:
        raise InvalidParameterError(
            f"tesla scale {scale:g} is below the smallest normal float {sys.float_info.min:g}"
        )
    return scale


def band_floor(psd: PsdEstimate, f_lo_hz: float, f_hi_hz: float) -> float:
    """Median in-band ASD after excluding tone-like bins.

    A bin counts as tone-like when it exceeds 10x the median of its
    +-20-bin neighborhood.

    Raises
    ------
    InsufficientBandError
        Band outside the PSD range or spanning fewer than 5 bins.
    """
    if not f_lo_hz < f_hi_hz:
        raise InsufficientBandError("band must have f_lo < f_hi")
    freqs, asd = psd.freqs_hz, psd.asd_t_sqrthz
    sel = np.flatnonzero((freqs >= f_lo_hz) & (freqs <= f_hi_hz))
    if len(sel) < 5:
        raise InsufficientBandError(
            f"band {f_lo_hz:g}-{f_hi_hz:g} Hz spans {len(sel)} bins, need at least 5"
        )
    w = TONE_NEIGHBORHOOD_BINS
    local = np.empty(len(sel))
    # Bins whose full +-w window fits take one batched median (the window
    # length is odd, so each median is one element, exactly as per bin).
    inner = (sel >= w) & (sel < len(asd) - w)
    if inner.any():
        windows = sliding_window_view(asd, 2 * w + 1)[sel[inner] - w]
        local[inner] = median(windows, axis=1, overwrite_input=True)
    # Bins near either end of the spectrum keep their truncated window.
    for i in np.flatnonzero(~inner):
        k = sel[i]
        local[i] = median(asd[max(0, k - w) : k + w + 1])
    keep = sel[~(asd[sel] > TONE_MIN_SNR * local)]
    if not len(keep):
        raise InsufficientBandError("every bin in the band is tone-flagged")
    return float(median(asd[keep]))
