"""Spin-exchange relaxation model for the magnetometer resonance linewidth.

In the spin-exchange relaxation-free regime the spin-exchange contribution to
transverse relaxation is second order in the resonance frequency and vanishes
at zero field:

    1/T2_SE = omega0^2 * T_SE * (1/2 - (2I+1)^2 / (2 q^2)) * q^2

with omega0 the angular resonance frequency, I the nuclear spin and q the
slowing-down factor. Fitting measured linewidths against resonance frequency
yields T_SE, which converts to the alkali number density through
1/T_SE = n * vbar * sigma_SE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (DEFAULT_NUCLEAR_SPIN, DEFAULT_SIGMA_SE_CM2, DEFAULT_SLOWING_Q,
                        DEFAULT_VBAR_M_S)
from .errors import FitFailureError, InvalidParameterError, InvalidSlowingFactorError
from .fitting import fit_weighted_linear

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SerfParams:
    """Parameters of the spin-exchange broadening model."""

    nuclear_spin_i: float = DEFAULT_NUCLEAR_SPIN
    slowing_q: float = DEFAULT_SLOWING_Q
    t_se_s: float = 8.6e-6
    intrinsic_hwhm_hz: float = 0.0

    def __post_init__(self):
        se_broadening_factor(self.nuclear_spin_i, self.slowing_q)
        if not self.t_se_s > 0:
            raise InvalidParameterError("t_se_s must be positive")
        if self.intrinsic_hwhm_hz < 0:
            raise InvalidParameterError("intrinsic_hwhm_hz must be nonnegative")


@dataclass(frozen=True)
class LinewidthPoint:
    """One (resonance frequency, HWHM) measurement, optionally inverse-variance weighted."""

    resonance_hz: float
    hwhm_hz: float
    weight: float | None = None

    def __post_init__(self):
        for name in ("resonance_hz", "hwhm_hz", "weight"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
        if self.resonance_hz < 0:
            raise InvalidParameterError("resonance_hz must be nonnegative")
        if not self.hwhm_hz > 0:
            raise InvalidParameterError("hwhm_hz must be positive")
        if self.weight is not None and not self.weight > 0:
            raise InvalidParameterError("weight must be positive when given")


@dataclass(frozen=True)
class TseFit:
    """Result of the spin-exchange time fit.

    ``covariance`` is 2x2 over (t_se_s, intrinsic_hwhm_hz); rows/columns of a
    held-fixed intercept are zero.
    """

    t_se_s: float
    intrinsic_hwhm_hz: float
    covariance: np.ndarray


def se_broadening_factor(nuclear_spin_i: float, slowing_q: float) -> float:
    """The dimensionless factor ``(1/2 - (2I+1)^2/(2q^2)) * q^2``.

    Equals 10 for I = 3/2, q = 6. Negative values (q below 2I+1) are
    unphysical for this model and rejected.

    Raises
    ------
    InvalidParameterError
        I is not a positive half-integer, q is not finite and positive, or
        either is so large that the factor overflows.
    InvalidSlowingFactorError
        q is below 2I+1.
    """
    two_i = 2.0 * nuclear_spin_i
    if not (1 <= two_i < math.inf and abs(two_i - round(two_i)) <= 1e-9):
        raise InvalidParameterError(
            f"nuclear spin must be a positive half-integer, got {nuclear_spin_i:g}"
        )
    if not 0 < slowing_q < math.inf:
        raise InvalidParameterError(f"slowing_q must be finite and positive, got {slowing_q:g}")
    try:
        factor = 0.5 * slowing_q**2 - 0.5 * (2.0 * nuclear_spin_i + 1.0) ** 2
    except OverflowError:
        raise InvalidParameterError(
            f"q={slowing_q:g} and I={nuclear_spin_i:g} put the broadening factor"
            " beyond the float range"
        ) from None
    if factor < 0:
        raise InvalidSlowingFactorError(
            f"slowing factor q={slowing_q:g} too small for I={nuclear_spin_i:g}"
        )
    return factor


def se_rate(resonance_hz, params: SerfParams):
    """Spin-exchange transverse relaxation rate 1/T2_SE in 1/s.

    Zero at zero resonance frequency and quadratic in it.
    """
    factor = se_broadening_factor(params.nuclear_spin_i, params.slowing_q)
    omega0 = TWO_PI * np.asarray(resonance_hz, dtype=float)
    rate = omega0**2 * params.t_se_s * factor
    return rate if rate.ndim else float(rate)


def predict_linewidth(resonance_hz, params: SerfParams):
    """Resonance HWHM in Hz: intrinsic width plus the spin-exchange term."""
    width = params.intrinsic_hwhm_hz + se_rate(resonance_hz, params) / TWO_PI
    return width if np.ndim(width) else float(width)


def fit_tse(
    points,
    nuclear_spin_i: float = DEFAULT_NUCLEAR_SPIN,
    slowing_q: float = DEFAULT_SLOWING_Q,
    intrinsic_hwhm_hz: float | None = None,
) -> TseFit:
    """Fit the spin-exchange time from (resonance, linewidth) measurements.

    The model is linear in resonance_hz**2, so this is a weighted linear
    least squares with slope ``2*pi*factor*T_SE``. The zero-field linewidth
    is co-fitted when ``intrinsic_hwhm_hz`` is None and held at it otherwise.

    Raises
    ------
    InvalidParameterError
        Fewer than 3 points, weights on some points but not all, resonance
        frequencies spanning less than a factor 2, or a held intrinsic width
        that is negative or not finite.
    InvalidSlowingFactorError
        q is 2I+1 or below, where the model has no spin-exchange broadening.
    FitFailureError
        If the fitted T_SE comes out nonpositive (data inconsistent with
        spin-exchange broadening).
    """
    points = list(points)
    if len(points) < 3:
        raise InvalidParameterError("need at least 3 linewidth points")
    nu = np.array([p.resonance_hz for p in points])
    hwhm = np.array([p.hwhm_hz for p in points])
    given = [p.weight for p in points if p.weight is not None]
    if 0 < len(given) < len(points):
        raise InvalidParameterError("weight must be given for every point or for none")
    weights = np.array(given) if given else None
    if nu.max() < 2.0 * nu.min():
        raise InvalidParameterError("resonance frequencies must span at least a factor 2")
    if intrinsic_hwhm_hz is not None and not 0.0 <= intrinsic_hwhm_hz < np.inf:
        raise InvalidParameterError("intrinsic_hwhm_hz must be finite and nonnegative")

    factor = se_broadening_factor(nuclear_spin_i, slowing_q)
    if factor == 0.0:
        raise InvalidSlowingFactorError(
            f"slowing factor q={slowing_q:g} for I={nuclear_spin_i:g} leaves no"
            " spin-exchange broadening to fit T_SE from"
        )
    x = nu**2
    cov = np.zeros((2, 2))
    if intrinsic_hwhm_hz is None:
        design = np.column_stack([x, np.ones_like(x)])
        beta, cov_lin = fit_weighted_linear(design, hwhm, weights)
        slope, intercept = beta
        scale = np.diag([1.0 / (TWO_PI * factor), 1.0])
        cov = scale @ cov_lin @ scale.T
    else:
        design = x[:, None]
        beta, cov_lin = fit_weighted_linear(design, hwhm - intrinsic_hwhm_hz, weights)
        slope = beta[0]
        intercept = intrinsic_hwhm_hz
        try:
            cov[0, 0] = cov_lin[0, 0] / (TWO_PI * factor) ** 2
        except OverflowError:  # the square of a huge factor: the variance underflows to 0
            cov[0, 0] = 0.0

    t_se = slope / (TWO_PI * factor)
    if not t_se > 0:
        raise FitFailureError(
            f"fitted T_SE nonpositive ({t_se:.3g} s): no spin-exchange broadening in data",
            params=np.array([t_se, intercept]),
        )
    return TseFit(t_se_s=float(t_se), intrinsic_hwhm_hz=float(intercept), covariance=cov)


def number_density(
    t_se_s: float,
    vbar_m_s: float = DEFAULT_VBAR_M_S,
    sigma_se_cm2: float = DEFAULT_SIGMA_SE_CM2,
) -> float:
    """Alkali number density in cm^-3 from the spin-exchange time.

    ``n = 1 / (T_SE * vbar * sigma_SE)`` with vbar converted to cm/s.
    Raises InvalidParameterError unless all three are positive and ``n``
    is finite and nonzero.
    """
    if not (t_se_s > 0 and vbar_m_s > 0 and sigma_se_cm2 > 0):
        raise InvalidParameterError("t_se, vbar and sigma_se must be positive")
    product = t_se_s * vbar_m_s * 100.0 * sigma_se_cm2
    density = 1.0 / product if product else math.inf
    if not 0.0 < density < math.inf:
        raise InvalidParameterError(
            f"number density for T_SE {t_se_s:g} s, vbar {vbar_m_s:g} m/s and sigma_se"
            f" {sigma_se_cm2:g} cm^2 is out of float range"
        )
    return density
