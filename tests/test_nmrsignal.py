"""Thermal polarization and dipole-field estimator tests."""

import json

import numpy as np
import pytest

from serfkit.errors import GeometryError, InvalidParameterError
from serfkit.nmrsignal import (
    SampleSpec,
    dipole_field,
    load_isotopes,
    thermal_polarization,
    water_proton_sample,
)

PROTON_GAMMA = 2.675e8


def water_spec(**overrides):
    base = dict(
        volume_m3=200e-9,
        spin_density_per_m3=6.7e28,
        natural_abundance=1.0,
        gyromag_rad_s_t=PROTON_GAMMA,
        spin=0.5,
        prepol_field_t=2.0,
        temperature_k=300.0,
        distance_m=0.01,
    )
    base.update(overrides)
    return SampleSpec(**base)


class TestPolarization:
    def test_zero_field(self):
        assert thermal_polarization(PROTON_GAMMA, 0.0, 300.0) == 0.0

    def test_water_protons_at_two_tesla(self):
        pol = thermal_polarization(PROTON_GAMMA, 2.0, 300.0)
        assert pol == pytest.approx(6.81e-6, abs=1e-8)

    def test_odd_in_field_sign(self):
        pol_pos = thermal_polarization(PROTON_GAMMA, 2.0, 300.0)
        pol_neg = thermal_polarization(PROTON_GAMMA, -2.0, 300.0)
        assert pol_neg == -pol_pos

    def test_saturates_below_one(self):
        assert thermal_polarization(PROTON_GAMMA, 1e6, 0.001) < 1.0

    def test_linear_regime(self):
        small = thermal_polarization(PROTON_GAMMA, 1e-4, 300.0)
        large = thermal_polarization(PROTON_GAMMA, 2.0, 300.0)
        assert small * (2.0 / 1e-4) == pytest.approx(large, rel=1e-9, abs=0)

    def test_temperature_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            thermal_polarization(PROTON_GAMMA, 2.0, 0.0)


class TestDipoleField:
    def test_water_reference_value(self):
        field = dipole_field(water_spec())
        assert field == pytest.approx(2.6e-10, rel=0.02)

    def test_inverse_cube_exact(self):
        near = dipole_field(water_spec(distance_m=0.01))
        far = dipole_field(water_spec(distance_m=0.02))
        assert near / far == 8.0

    def test_linear_in_volume_exact(self):
        assert dipole_field(water_spec(volume_m3=400e-9)) == 2.0 * dipole_field(water_spec())

    def test_abundance_scaling(self):
        full = dipole_field(water_spec(natural_abundance=1.0))
        labeled = dipole_field(water_spec(natural_abundance=0.011))
        assert full / labeled == pytest.approx(1.0 / 0.011, rel=1e-12)

    def test_linear_in_prepol_field_small_polarization(self):
        weak = dipole_field(water_spec(prepol_field_t=1e-4))
        strong = dipole_field(water_spec(prepol_field_t=2.0))
        assert weak * (2.0 / 1e-4) == pytest.approx(strong, rel=1e-9, abs=0)

    def test_positive_for_positive_prepol(self):
        assert dipole_field(water_spec()) > 0

    def test_detector_inside_sample_rejected(self):
        # 200 uL sphere has a 3.6 mm radius.
        with pytest.raises(GeometryError):
            dipole_field(water_spec(distance_m=0.003))

    def test_zero_abundance_rejected(self):
        with pytest.raises(InvalidParameterError):
            water_spec(natural_abundance=0.0)

    @pytest.mark.parametrize(
        "field", ["volume_m3", "spin_density_per_m3", "natural_abundance", "gyromag_rad_s_t",
                  "spin", "prepol_field_t", "temperature_k", "distance_m"],
    )
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_nonfinite_field_rejected_by_name(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"^{field} must be finite, got {value}$"):
            water_spec(**{field: value})

    def test_negative_gamma_isotope_gives_positive_field(self):
        # gamma < 0 flips both the polarization and the moment sign.
        field = dipole_field(water_spec(gyromag_rad_s_t=-2.7126e7))
        assert field > 0


class TestIsotopeTable:
    def test_bundled_table_loads(self):
        table = load_isotopes()
        assert {"1H", "2H", "13C", "15N", "19F", "31P"} <= set(table)
        proton = table["1H"]
        assert proton.gyromag_rad_s_t == pytest.approx(2.6752e8, rel=1e-4)
        assert proton.spin == 0.5
        assert table["13C"].natural_abundance == pytest.approx(0.0107, rel=1e-6)

    def test_env_override(self, tmp_path, monkeypatch):
        custom = {
            "version": 99,
            "provenance": "test",
            "isotopes": {"XX": {"gyromag_rad_s_t": 1.0, "spin": 0.5,
                                "natural_abundance": 0.5}},
        }
        (tmp_path / "isotopes.json").write_text(json.dumps(custom))
        monkeypatch.setenv("SERFKIT_DATA_DIR", str(tmp_path))
        table = load_isotopes()
        assert set(table) == {"XX"}

    def test_water_sample_helper(self):
        sample = water_proton_sample()
        assert sample.volume_m3 == 200e-9
        assert sample.distance_m == 0.01
        assert dipole_field(sample) == pytest.approx(2.6e-10, rel=0.02)
