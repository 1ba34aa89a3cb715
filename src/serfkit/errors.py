"""Exception hierarchy shared by all serfkit modules."""

from __future__ import annotations


class SerfkitError(Exception):
    """Base class for all serfkit errors."""


class ValidationError(SerfkitError):
    """Bad input data, parameters or configuration (CLI exit code 2)."""


class InvalidParameterError(ValidationError):
    """A parameter is non-finite or outside its physical domain."""


class DegenerateDataError(ValidationError):
    """Data carries no usable structure (e.g. a flat sweep, all-zero phases)."""


class InsufficientCoverageError(ValidationError):
    """Sweep does not cover the resonance peak (extremum at an endpoint)."""


class InsufficientDataError(ValidationError):
    """Series too short for the requested estimate."""


class InsufficientBandError(ValidationError):
    """Frequency band too narrow or outside the estimated range."""


class MissingToneError(ValidationError):
    """Expected calibration tone not detected above the local noise."""


class InvalidCoefficientsError(ValidationError):
    """Gas coefficient matrix is singular or unusable."""


class UnphysicalCompositionError(ValidationError):
    """Linear inversion produced a negative gas density.

    The raw (uncorrected) solution is kept on the ``solution`` attribute so
    callers can inspect how far out of range it fell.
    """

    def __init__(self, message: str, solution=None):
        super().__init__(message)
        self.solution = solution


class InvalidSlowingFactorError(ValidationError):
    """Slowing-down factor too small for the nuclear spin (negative rate)."""


class ShapeError(ValidationError):
    """Mismatched array lengths between channels."""


class ConfigError(InvalidParameterError):
    """Simulation or run configuration is unusable."""


class GeometryError(ValidationError):
    """Detector distance violates the point-dipole geometry."""


class FitFailureError(SerfkitError):
    """Nonlinear fit did not converge (CLI exit code 3).

    Carries the best parameter vector seen so far on ``params`` and, when a
    module wraps the failure, a domain-specific result on ``best_fit``.
    """

    def __init__(self, message: str, params=None, best_fit=None):
        super().__init__(message)
        self.params = params
        self.best_fit = best_fit
