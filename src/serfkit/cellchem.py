"""Buffer/quench gas composition from line shift and pressure broadening.

The optical line shift and broadening are linear in the gas densities, so a
measured (shift, width) pair inverts through a 2x2 system. Default
coefficients are the standard potassium D1 values for helium-4 buffer gas
and molecular-nitrogen quench gas, in GHz per amagat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidCoefficientsError,
    InvalidParameterError,
    UnphysicalCompositionError,
)


@dataclass(frozen=True)
class GasCoefficients:
    """Linear pressure shift/broadening coefficients (GHz/amg)."""

    shift_he_ghz_per_amg: float = 3.9
    shift_n2_ghz_per_amg: float = -15.7
    broaden_he_ghz_per_amg: float = 13.3
    broaden_n2_ghz_per_amg: float = 21.0

    def __post_init__(self):
        if not (self.broaden_he_ghz_per_amg > 0 and self.broaden_n2_ghz_per_amg > 0):
            raise InvalidCoefficientsError("broadening coefficients must be positive")
        if self.determinant == 0.0:
            raise InvalidCoefficientsError("coefficient matrix is singular")

    @property
    def matrix(self) -> np.ndarray:
        """Maps (he_amg, n2_amg) to (shift_ghz, width_ghz)."""
        return np.array(
            [
                [self.shift_he_ghz_per_amg, self.shift_n2_ghz_per_amg],
                [self.broaden_he_ghz_per_amg, self.broaden_n2_ghz_per_amg],
            ]
        )

    @property
    def determinant(self) -> float:
        return (
            self.shift_he_ghz_per_amg * self.broaden_n2_ghz_per_amg
            - self.shift_n2_ghz_per_amg * self.broaden_he_ghz_per_amg
        )


K_D1_COEFFICIENTS = GasCoefficients()


@dataclass(frozen=True)
class CellComposition:
    """Gas densities in amagat."""

    he_amagat: float
    n2_amagat: float

    def __post_init__(self):
        if self.he_amagat < 0 or self.n2_amagat < 0:
            raise InvalidParameterError("gas densities must be nonnegative")


def solve_composition(
    shift_ghz: float, width_ghz: float, coeffs: GasCoefficients | None = None
) -> CellComposition:
    """Invert measured line shift and broadening into gas densities.

    Parameters
    ----------
    shift_ghz : float
        Fitted line center minus the unperturbed reference, in GHz.
    width_ghz : float
        Pressure-broadened HWHM in GHz, must be positive.
    coeffs : GasCoefficients, optional
        Defaults to the potassium D1 values.

    Raises
    ------
    UnphysicalCompositionError
        If either solved density is negative (wrong coefficients or a
        misfit line); the raw solution rides on the exception.
    """
    if coeffs is None:
        coeffs = K_D1_COEFFICIENTS
    if not np.isfinite(shift_ghz) or not np.isfinite(width_ghz):
        raise InvalidParameterError("shift and width must be finite")
    if not width_ghz > 0:
        raise InvalidParameterError("width_ghz must be positive")
    try:
        he, n2 = np.linalg.solve(coeffs.matrix, [shift_ghz, width_ghz])
    except np.linalg.LinAlgError as err:
        raise InvalidCoefficientsError("coefficient matrix is singular") from err
    if he < 0 or n2 < 0:
        raise UnphysicalCompositionError(
            f"negative density in solution (he={he:.4g}, n2={n2:.4g}) amg",
            solution=(float(he), float(n2)),
        )
    return CellComposition(he_amagat=float(he), n2_amagat=float(n2))

