"""Tests for the damped least-squares core."""

import numpy as np
import pytest

from serfkit import fitting
from serfkit.errors import FitFailureError
from serfkit.fitting import (
    covariance_from_jacobian,
    fit_damped_least_squares,
    fit_weighted_linear,
)
from serfkit.gradiometer import PhaseModelFit
from serfkit.lineshape import LorentzianFit
from serfkit.serf import TseFit


def _quadratic_problem(target):
    x = np.linspace(-2.0, 2.0, 50)
    y = target[0] * x**2 + target[1] * x + target[2]

    def residual(p):
        return p[0] * x**2 + p[1] * x + p[2] - y

    def jacobian(p):
        return np.column_stack([x**2, x, np.ones_like(x)])

    return residual, jacobian


def test_converges_on_linear_in_parameters_problem():
    residual, jacobian = _quadratic_problem(np.array([2.0, -1.0, 0.5]))
    res = fit_damped_least_squares(residual, jacobian, np.zeros(3))
    assert res.params == pytest.approx([2.0, -1.0, 0.5], rel=1e-10)
    assert res.residual_rms < 1e-12


def test_converges_on_nonlinear_exponential():
    x = np.linspace(0.0, 3.0, 80)
    y = 2.5 * np.exp(-1.3 * x)

    def residual(p):
        return p[0] * np.exp(p[1] * x) - y

    def jacobian(p):
        e = np.exp(p[1] * x)
        return np.column_stack([e, p[0] * x * e])

    res = fit_damped_least_squares(residual, jacobian, np.array([1.0, -0.5]))
    assert res.params == pytest.approx([2.5, -1.3], rel=1e-8)


def test_failure_carries_best_params(monkeypatch):
    # One trial step cannot reach the optimum, so the budget runs out.
    monkeypatch.setattr(fitting, "MAX_ITER", 1)
    residual, jacobian = _quadratic_problem(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(FitFailureError) as excinfo:
        fit_damped_least_squares(residual, jacobian, np.zeros(3))
    assert excinfo.value.params is not None
    assert len(excinfo.value.params) == 3


def _exponential_problem(calls):
    """Seeded noisy decay 2500 exp(-1.3 x); ``calls`` counts Jacobian evaluations."""
    x = np.linspace(0.0, 3.0, 80)
    y = 2.5e3 * np.exp(-1.3 * x) + np.random.default_rng(7).normal(0.0, 10.0, len(x))

    def residual(p):
        return p[0] * np.exp(p[1] * x) - y

    def jacobian(p):
        calls.append(p)
        e = np.exp(p[1] * x)
        return np.column_stack([e, p[0] * x * e])

    return residual, jacobian


# Exact trial counts and parameter bits, so a change to the loop's arithmetic or
# exits shows. One Jacobian per accepted step plus one for the covariance: from
# the first start every trial is accepted; from the second, 18 of 33 are rejected.
# Both end on the small-step test, not the gradient test.
@pytest.mark.parametrize(
    "p0, n_iter, n_jacobians, params_hex",
    [
        ([2500.0, -1.3], 5, 6, ["0x1.384f0036fdc82p+11", "-0x1.4deb1fa1a93a4p+0"]),
        ([1000.0, 2.0], 33, 16, ["0x1.384f0036fc35dp+11", "-0x1.4deb1fa1a5d6bp+0"]),
    ],
    ids=["all_accepted", "rejected_steps"],
)
def test_trial_count_and_params_are_pinned(p0, n_iter, n_jacobians, params_hex):
    calls = []
    residual, jacobian = _exponential_problem(calls)
    res = fit_damped_least_squares(residual, jacobian, np.array(p0))
    assert res.n_iter == n_iter
    assert len(calls) == n_jacobians
    assert [float.hex(float(v)) for v in res.params] == params_hex


def test_trial_whose_squares_overflow_is_rejected_without_a_warning():
    # The exponent is clipped, so every residual is finite. The first trial,
    # from the start [10, 3], reaches a decay rate near -10.8: its largest
    # residual is about 2.5e304, and the sum of squares overflows to inf.
    # pyproject.toml's error::RuntimeWarning filter turns a leaked overflow
    # warning into a failure.
    x = np.linspace(0.0, 300.0, 100)
    y = 2.5 * np.exp(-1.3 * x) + np.random.default_rng(0).normal(0.0, 0.01, len(x))
    largest = []

    def residual(p):
        r = p[0] * np.exp(np.minimum(-p[1] * x, 700.0)) - y
        largest.append(np.abs(r).max())
        return r

    def jacobian(p):
        e = np.exp(np.minimum(-p[1] * x, 700.0))
        return np.column_stack([e, -p[0] * x * e])

    res = fit_damped_least_squares(residual, jacobian, np.array([10.0, 3.0]))
    assert 1e300 < largest[1] < np.inf  # its square overflows
    assert res.n_iter == 13
    assert [float.hex(float(v)) for v in res.params] == [
        "0x1.40291f5948df4p+1", "0x1.4ebad1e605776p+0"]


def test_damping_overflow_when_no_step_lowers_the_residual():
    # The Jacobian points the wrong way, so every trial raises the residual:
    # the damping grows tenfold from 1e-3 until it passes 1e15, at trial 19.
    points = []

    def residual(p):
        points.append(p)
        return np.array([1.0 + abs(p[0])])

    with pytest.raises(FitFailureError, match="damping factor overflow") as excinfo:
        fit_damped_least_squares(residual, lambda p: np.array([[-1.0]]), np.zeros(1))
    assert len(points) == 1 + 19  # the start and 19 trials
    assert excinfo.value.params.tolist() == [0.0]


def test_nonfinite_start_rejected():
    residual, jacobian = _quadratic_problem(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(FitFailureError):
        fit_damped_least_squares(residual, jacobian, np.array([np.nan, 0.0, 0.0]))


def test_covariance_shape_and_symmetry():
    rng = np.random.default_rng(5)
    x = np.linspace(-2.0, 2.0, 60)
    y = 3.0 * x + 1.0 + rng.normal(0, 0.1, len(x))

    def residual(p):
        return p[0] * x + p[1] - y

    def jacobian(p):
        return np.column_stack([x, np.ones_like(x)])

    res = fit_damped_least_squares(residual, jacobian, np.zeros(2))
    assert res.covariance.shape == (2, 2)
    assert np.allclose(res.covariance, res.covariance.T)
    assert np.all(np.linalg.eigvalsh(res.covariance) >= -1e-20)


def test_weighted_linear_recovers_exactly():
    x = np.linspace(0.0, 10.0, 20)
    design = np.column_stack([x, np.ones_like(x)])
    y = -0.75 * x + 4.0
    beta, cov = fit_weighted_linear(design, y)
    assert beta == pytest.approx([-0.75, 4.0], rel=1e-12)
    assert cov == pytest.approx(np.zeros((2, 2)), abs=1e-20)


def test_weighted_linear_rejects_an_overflowing_residual_sum():
    x = np.linspace(1.0, 10.0, 10)
    y = np.where(np.arange(10) % 2, 1e170, -1e170)
    with pytest.raises(FitFailureError, match="residual sum of squares beyond the float range"):
        fit_weighted_linear(x[:, None], y)


def test_weighted_linear_downweights_outlier():
    x = np.linspace(0.0, 10.0, 11)
    design = np.column_stack([x, np.ones_like(x)])
    y = 2.0 * x + 1.0
    y_out = y.copy()
    y_out[5] += 100.0
    weights = np.ones_like(x)
    weights[5] = 1e-12
    beta, _ = fit_weighted_linear(design, y_out, weights)
    assert beta == pytest.approx([2.0, 1.0], rel=1e-6)


def test_covariance_follows_parameter_units():
    # Rescaling a parameter by s rescales its Jacobian column by 1/s and its
    # variance by s^2, even when the columns differ by many orders of magnitude.
    rng = np.random.default_rng(2)
    jac = rng.normal(size=(40, 3))
    scale = np.array([1e11, 1.0, 1e-3])
    expected = covariance_from_jacobian(jac, 2.0) * np.outer(scale, scale)
    np.testing.assert_allclose(covariance_from_jacobian(jac / scale, 2.0), expected, rtol=1e-9)


def test_covariance_of_zero_column_is_zero():
    jac = np.column_stack([np.linspace(0.0, 1.0, 10), np.zeros(10)])
    cov = covariance_from_jacobian(jac, 1.0)
    assert np.all(np.isfinite(cov))
    assert cov[1, 1] == 0.0 and cov[0, 1] == 0.0
    assert cov[0, 0] > 0.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: PhaseModelFit(f1_hz=50.0, f2_hz=70.0),
        lambda: TseFit(t_se_s=8.6e-6, intrinsic_hwhm_hz=1.0),
        lambda: LorentzianFit(0.0, 1.0, 1.0, 0.0, residual_rms=0.0),
        lambda: LorentzianFit(0.0, 1.0, 1.0, 0.0, covariance=np.zeros((4, 4))),
    ],
    ids=["phase_model", "tse", "lorentzian_covariance", "lorentzian_rms"],
)
def test_fit_result_cannot_omit_its_uncertainty(build):
    # A fit result without its uncertainty would read as zero error.
    with pytest.raises(TypeError, match="missing 1 required"):
        build()
