"""Gas composition inversion tests."""

import numpy as np
import pytest

from serfkit.cellchem import (
    K_D1_COEFFICIENTS,
    CellComposition,
    GasCoefficients,
    solve_composition,
)
from serfkit.errors import (
    InvalidCoefficientsError,
    InvalidParameterError,
    UnphysicalCompositionError,
)


def test_reference_cell_composition():
    comp = solve_composition(1.916, 31.878)
    assert comp.he_amagat == pytest.approx(1.86, abs=1e-10)
    assert comp.n2_amagat == pytest.approx(0.34, abs=1e-10)


def test_pure_helium_column():
    comp = solve_composition(3.9, 13.3)
    assert comp.he_amagat == pytest.approx(1.0, abs=1e-12)
    assert comp.n2_amagat == pytest.approx(0.0, abs=1e-12)


def test_pure_nitrogen_column():
    comp = solve_composition(-15.7, 21.0)
    assert comp.he_amagat == pytest.approx(0.0, abs=1e-12)
    assert comp.n2_amagat == pytest.approx(1.0, abs=1e-12)


def test_round_trip_random_compositions():
    rng = np.random.default_rng(9)
    for _ in range(50):
        comp = CellComposition(rng.uniform(0, 5), rng.uniform(0, 5))
        # The linear forward map, composition to (shift, width).
        shift_ghz, width_ghz = K_D1_COEFFICIENTS.matrix @ [comp.he_amagat, comp.n2_amagat]
        back = solve_composition(shift_ghz, width_ghz)
        assert back.he_amagat == pytest.approx(comp.he_amagat, rel=1e-12, abs=1e-12)
        assert back.n2_amagat == pytest.approx(comp.n2_amagat, rel=1e-12, abs=1e-12)


def test_negative_solution_reports_raw_values():
    with pytest.raises(UnphysicalCompositionError) as excinfo:
        solve_composition(-20.0, 21.0)
    he, n2 = excinfo.value.solution
    assert he < 0
    assert n2 > 0


def test_singular_coefficients_rejected():
    with pytest.raises(InvalidCoefficientsError):
        GasCoefficients(
            shift_he_ghz_per_amg=1.0,
            shift_n2_ghz_per_amg=2.0,
            broaden_he_ghz_per_amg=2.0,
            broaden_n2_ghz_per_amg=4.0,
        )


def test_nonpositive_width_rejected():
    with pytest.raises(InvalidParameterError):
        solve_composition(1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        solve_composition(1.0, -3.0)


def test_negative_density_type_invariant():
    with pytest.raises(InvalidParameterError):
        CellComposition(-0.1, 0.0)


def test_default_coefficients_are_reference_values():
    assert K_D1_COEFFICIENTS.shift_he_ghz_per_amg == 3.9
    assert K_D1_COEFFICIENTS.shift_n2_ghz_per_amg == -15.7
    assert K_D1_COEFFICIENTS.broaden_he_ghz_per_amg == 13.3
    assert K_D1_COEFFICIENTS.broaden_n2_ghz_per_amg == 21.0
