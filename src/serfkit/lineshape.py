"""Lorentzian line model and least-squares fits for frequency sweeps.

Covers both optical absorption spectra (negative amplitude on a transmission
baseline) and magnetometer resonance response curves (positive peak).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    FitFailureError,
    InsufficientCoverageError,
    InvalidParameterError,
)
from .fitting import fit_damped_least_squares

# Fraction of samples at each sweep edge used for the baseline estimate.
_EDGE_FRACTION = 0.05


@dataclass(frozen=True)
class FrequencySweep:
    """Sampled scalar curve versus frequency.

    ``values`` is dimensionless (transmission ratio or normalized response)
    and must match ``freqs_hz`` in length. Frequencies must be strictly
    increasing and everything finite; at least 5 samples.
    """

    freqs_hz: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs_hz, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "values", vals)
        if freqs.ndim != 1 or vals.ndim != 1 or len(freqs) != len(vals):
            raise InvalidParameterError("sweep arrays must be 1-D and equally long")
        if len(freqs) < 5:
            raise InvalidParameterError("sweep needs at least 5 samples")
        if not np.all(np.isfinite(freqs)) or not np.all(np.isfinite(vals)):
            raise InvalidParameterError("sweep contains non-finite samples")
        if np.any(np.diff(freqs) <= 0):
            raise InvalidParameterError("sweep frequencies must be strictly increasing")

    def __len__(self) -> int:
        return len(self.freqs_hz)


@dataclass(frozen=True)
class LorentzianFit:
    """Fitted Lorentzian parameters.

    ``covariance`` is the 4x4 parameter covariance in the order
    (center, hwhm, amplitude, baseline).
    """

    center_hz: float
    hwhm_hz: float
    amplitude: float
    baseline: float
    residual_rms: float
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "covariance", cov)
        if not self.hwhm_hz > 0:
            raise InvalidParameterError("hwhm_hz must be positive")
        if self.residual_rms < 0:
            raise InvalidParameterError("residual_rms must be nonnegative")
        if cov.shape != (4, 4):
            raise InvalidParameterError("covariance must be 4x4")

    def as_dict(self) -> dict:
        return {
            "center_hz": self.center_hz,
            "hwhm_hz": self.hwhm_hz,
            "amplitude": self.amplitude,
            "baseline": self.baseline,
            "residual_rms": self.residual_rms,
        }


def eval_lorentzian(center_hz, hwhm_hz, amplitude, baseline, freq_hz):
    """Evaluate ``baseline + amplitude * hwhm^2 / ((f - center)^2 + hwhm^2)``.

    The peak value is ``baseline + amplitude`` and the value one HWHM away
    from the center is ``baseline + amplitude / 2``. ``freq_hz`` may be a
    scalar or an array.
    """
    for name, par in (
        ("center_hz", center_hz),
        ("hwhm_hz", hwhm_hz),
        ("amplitude", amplitude),
        ("baseline", baseline),
    ):
        if not np.isfinite(par):
            raise InvalidParameterError(f"{name} is not finite")
    if not hwhm_hz > 0:
        raise InvalidParameterError("hwhm_hz must be positive")
    freq = np.asarray(freq_hz, dtype=float)
    g2 = hwhm_hz * hwhm_hz
    out = baseline + amplitude * g2 / ((freq - center_hz) ** 2 + g2)
    return out if out.ndim else float(out)


def lorentzian_jacobian(center_hz, hwhm_hz, amplitude, freqs_hz) -> np.ndarray:
    """Partial derivatives of the Lorentzian model.

    Returns an (m, 4) array with columns d/d(center), d/d(hwhm),
    d/d(amplitude), d/d(baseline).
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    dx = freqs - center_hz
    g2 = hwhm_hz * hwhm_hz
    denom = dx * dx + g2
    inv2 = 1.0 / (denom * denom)
    jac = np.empty((len(freqs), 4))
    jac[:, 0] = 2.0 * amplitude * g2 * dx * inv2
    jac[:, 1] = 2.0 * amplitude * hwhm_hz * dx * dx * inv2
    jac[:, 2] = g2 / denom
    jac[:, 3] = 1.0
    return jac


def _seed(sweep: FrequencySweep, i_peak: int | None = None) -> np.ndarray:
    """Derivative-free seed: edge-median baseline, peak center, half-max width.

    The peak is the largest deviation from the baseline unless ``i_peak`` is given.
    """
    freqs, vals = sweep.freqs_hz, sweep.values
    n_edge = max(1, int(len(vals) * _EDGE_FRACTION))
    baseline = float(np.median(np.r_[vals[:n_edge], vals[-n_edge:]]))
    dev = vals - baseline
    if i_peak is None:
        i_peak = int(np.argmax(np.abs(dev)))
    center = float(freqs[i_peak])
    amplitude = float(dev[i_peak])
    above = np.abs(dev) > 0.5 * abs(amplitude)
    span = float(freqs[above].max() - freqs[above].min()) if np.any(above) else 0.0
    hwhm = 0.5 * span
    if hwhm <= 0.0:
        hwhm = float(np.median(np.diff(freqs)))
    return np.array([center, hwhm, amplitude, baseline])


def _check_degenerate(values: np.ndarray) -> None:
    # Flat-data rule: structure must rise well above the sample-to-sample
    # scatter estimated from first differences.
    ptp = float(np.ptp(values))
    rms_diff = float(np.sqrt(np.mean(np.diff(values) ** 2)))
    if ptp == 0.0 or ptp < 10.0 * rms_diff:
        raise DegenerateDataError(
            "sweep looks flat: peak-to-peak below 10x the first-difference RMS"
        )


def _fit(sweep: FrequencySweep, p0: np.ndarray) -> LorentzianFit:
    freqs, vals = sweep.freqs_hz, sweep.values

    def residual(p):
        c, g, a, b = p
        g2 = g * g
        return b + a * g2 / ((freqs - c) ** 2 + g2) - vals

    def jacobian(p):
        return lorentzian_jacobian(p[0], p[1], p[2], freqs)

    try:
        res = fit_damped_least_squares(residual, jacobian, p0)
    except FitFailureError as err:
        if err.params is not None:
            c, g, a, b = err.params
            err.best_fit = {"center_hz": c, "hwhm_hz": abs(g), "amplitude": a, "baseline": b}
        raise
    center, hwhm, amplitude, baseline = res.params
    hwhm = abs(hwhm)  # model is even in the width
    if not (freqs[0] <= center <= freqs[-1]):
        raise FitFailureError(
            f"fitted center {center:g} Hz escaped the sweep range", params=res.params
        )
    return LorentzianFit(
        center_hz=float(center),
        hwhm_hz=float(hwhm),
        amplitude=float(amplitude),
        baseline=float(baseline),
        residual_rms=res.residual_rms,
        covariance=res.covariance,
    )


def fit_lorentzian(sweep: FrequencySweep) -> LorentzianFit:
    """Fit a Lorentzian with constant baseline to a sweep.

    Works for dips (negative amplitude, e.g. transmission spectra) and
    peaks alike. Self-initializes from the sweep.

    Raises
    ------
    DegenerateDataError
        If the sweep is flat (no line to fit).
    FitFailureError
        On non-convergence; best-so-far parameters ride on the exception.
    """
    _check_degenerate(sweep.values)
    return _fit(sweep, _seed(sweep))


def fit_response_curve(sweep: FrequencySweep) -> LorentzianFit:
    """Fit an absorptive magnitude response (positive Lorentzian peak).

    The resonance linewidth is the returned ``hwhm_hz``. The peak must lie
    strictly inside the sweep, otherwise the linewidth is unconstrained.

    Raises
    ------
    InsufficientCoverageError
        If the maximum sits on either sweep endpoint.
    """
    vals = sweep.values
    i_max = int(np.argmax(vals))
    if i_max == 0 or i_max == len(vals) - 1:
        raise InsufficientCoverageError("response maximum at a sweep endpoint")
    _check_degenerate(vals)
    return _fit(sweep, _seed(sweep, i_max))
