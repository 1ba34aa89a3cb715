"""Damped least-squares minimization used by the nonlinear fit routines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FitFailureError

# Damping schedule: start small, multiply by 10 on a rejected step and
# divide by 10 on an accepted one.
DAMPING_START = 1e-3
DAMPING_GROW = 10.0
DAMPING_SHRINK = 10.0
DAMPING_MAX = 1e15
DAMPING_MIN = 1e-15

STEP_TOL = 1e-10
GRAD_TOL = 1e-12
MAX_ITER = 200


@dataclass
class LeastSquaresResult:
    params: np.ndarray
    covariance: np.ndarray
    residual_rms: float
    ssr: float
    n_iter: int


def fit_damped_least_squares(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    p0,
) -> LeastSquaresResult:
    """Minimize sum(residual**2) by a damped Gauss-Newton iteration.

    The normal equations are regularized with ``lambda * diag(J^T J)``
    (Marquardt scaling), which makes the step invariant under per-parameter
    rescaling; this matters here because line centers and widths differ by
    four orders of magnitude. The fit has converged when ``||step|| <=
    STEP_TOL * (STEP_TOL + ||params||)`` or the gradient infinity-norm falls
    below ``GRAD_TOL``; ``MAX_ITER`` bounds the trial steps, accepted or
    rejected.

    Parameters
    ----------
    residual_fn : callable
        Maps a parameter vector to the residual vector (model minus data).
    jacobian_fn : callable
        Maps a parameter vector to the (m, n) Jacobian of the residuals.
    p0 : array_like
        Starting parameter vector.

    Returns
    -------
    LeastSquaresResult
        Converged parameters with covariance ``ssr/dof * (J^T J)^+``.

    Raises
    ------
    FitFailureError
        If the step budget is exhausted or the damping overflows; the best
        parameters seen are attached to the exception.
    """
    p = np.asarray(p0, dtype=float).copy()
    r = residual_fn(p)
    if not np.all(np.isfinite(r)):
        raise FitFailureError("residuals not finite at the starting point", params=p)
    with np.errstate(over="ignore"):  # finite residuals may square past the float range
        ssr = float(r @ r)
    lam = DAMPING_START
    trials = 0

    while True:
        jac = jacobian_fn(p)
        grad = jac.T @ r
        if np.max(np.abs(grad)) < GRAD_TOL:
            break
        hess = jac.T @ jac
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = 1.0

        while True:
            if trials >= MAX_ITER:
                raise FitFailureError(
                    f"no convergence after {trials} trial steps",
                    params=p,
                )
            trials += 1
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                p_try = p + step
                r_try = residual_fn(p_try)
                with np.errstate(over="ignore"):  # an infinite sum is rejected below
                    ssr_try = float(r_try @ r_try)
                if np.isfinite(ssr_try) and ssr_try <= ssr:
                    break
            lam *= DAMPING_GROW
            if lam > DAMPING_MAX:
                raise FitFailureError("damping factor overflow, fit stalled", params=p)
        p, r, ssr = p_try, r_try, ssr_try
        lam = max(lam / DAMPING_SHRINK, DAMPING_MIN)
        if np.linalg.norm(step) <= STEP_TOL * (STEP_TOL + np.linalg.norm(p)):
            break

    jac = jacobian_fn(p)
    cov = covariance_from_jacobian(jac, ssr)
    m = len(r)
    return LeastSquaresResult(
        params=p,
        covariance=cov,
        residual_rms=float(np.sqrt(ssr / m)),
        ssr=ssr,
        n_iter=trials,
    )


def covariance_from_jacobian(jac: np.ndarray, ssr: float) -> np.ndarray:
    """Parameter covariance ``ssr/dof * (J^T J)^+``, symmetrized.

    The pseudo-inverse is taken with the columns scaled to unit norm,
    ``D^-1 ((J D^-1)^T (J D^-1))^+ D^-1`` with ``D`` the column norms (the
    scaling of MINPACK's Levenberg-Marquardt). Unscaled, a parameter in Hz
    near 1e14 gives a column some 1e-11 the size of a baseline's, and the
    pseudo-inverse cutoff zeroes its variance. An all-zero column gets zero
    variance either way.
    """
    m, n = jac.shape
    dof = max(m - n, 1)
    norms = np.linalg.norm(jac, axis=0)
    norms[norms == 0.0] = 1.0
    scaled = jac / norms
    cov = (ssr / dof) * np.linalg.pinv(scaled.T @ scaled) / np.outer(norms, norms)
    return 0.5 * (cov + cov.T)


def fit_weighted_linear(design: np.ndarray, y: np.ndarray, weights=None):
    """Weighted linear least squares ``y ~ design @ beta``.

    Returns ``(beta, covariance)``. Weights are inverse variances; equal
    weights when omitted. Raises FitFailureError when the residual sum of
    squares leaves the float range.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if weights is None:
        sw = np.ones(len(y))
    else:
        sw = np.sqrt(np.asarray(weights, dtype=float))
    aw = design * sw[:, None]
    yw = y * sw
    beta, *_ = np.linalg.lstsq(aw, yw, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that is not finite is rejected
        resid = yw - aw @ beta
        ssr = float(resid @ resid)
    if not np.isfinite(ssr):
        raise FitFailureError("residual sum of squares beyond the float range", params=beta)
    return beta, covariance_from_jacobian(aw, ssr)
