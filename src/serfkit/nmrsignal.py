"""Detector-side field estimate for a thermally prepolarized NMR sample.

Order-of-magnitude tool: the sample is treated as an on-axis point dipole at
its center, with the spin-1/2 thermal polarization ``tanh(hbar*gamma*B /
(2*kB*T))``. For spins above 1/2 the same form is used with the isotope's
gyromagnetic ratio, which is a deliberate simplification.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import HBAR, K_BOLTZMANN, MU0
from .errors import ConfigError, GeometryError, InvalidParameterError

DATA_DIR_ENV = "SERFKIT_DATA_DIR"


@dataclass(frozen=True)
class SampleSpec:
    """Thermally prepolarized sample and detection geometry."""

    volume_m3: float
    spin_density_per_m3: float
    natural_abundance: float
    gyromag_rad_s_t: float
    spin: float
    prepol_field_t: float
    temperature_k: float
    distance_m: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise InvalidParameterError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        positive = {
            "volume_m3": self.volume_m3,
            "spin_density_per_m3": self.spin_density_per_m3,
            "gyromag_rad_s_t": abs(self.gyromag_rad_s_t),
            "spin": self.spin,
            "prepol_field_t": self.prepol_field_t,
            "temperature_k": self.temperature_k,
            "distance_m": self.distance_m,
        }
        for name, value in positive.items():
            if not value > 0:
                raise InvalidParameterError(f"{name} must be positive")
        if not 0.0 < self.natural_abundance <= 1.0:
            raise InvalidParameterError("natural_abundance must be in (0, 1]")

    @property
    def equivalent_radius_m(self) -> float:
        """Radius of a sphere with the sample volume."""
        return (3.0 * self.volume_m3 / (4.0 * np.pi)) ** (1.0 / 3.0)


@dataclass(frozen=True)
class Isotope:
    gyromag_rad_s_t: float
    spin: float
    natural_abundance: float


def thermal_polarization(
    gyromag_rad_s_t: float, prepol_field_t: float, temperature_k: float
) -> float:
    """Spin-1/2 thermal polarization ``tanh(hbar*gamma*B / (2*kB*T))``.

    Odd in the field sign, saturating below 1 in magnitude, and linear for
    small arguments.

    Raises
    ------
    InvalidParameterError
        Nonpositive temperature, ``2*kB*T`` that underflows to zero, or an
        argument that is NaN (an infinite field over an infinite temperature).
    """
    if not temperature_k > 0:
        raise InvalidParameterError("temperature_k must be positive")
    thermal_j = 2.0 * K_BOLTZMANN * temperature_k
    x = HBAR * gyromag_rad_s_t * prepol_field_t / thermal_j if thermal_j > 0 else math.nan
    if math.isnan(x):
        raise InvalidParameterError(
            f"thermal polarization at {temperature_k:g} K is out of float range"
        )
    pol = np.tanh(x)
    # float64 rounds tanh to +-1 for arguments beyond ~19; keep |P| < 1.
    cap = np.nextafter(1.0, 0.0)
    return float(np.clip(pol, -cap, cap))


def dipole_field(spec: SampleSpec) -> float:
    """On-axis point-dipole field at the detector, in tesla.

    The magnetic moment is ``N * abundance * P * (hbar * gamma / 2)`` and
    the field ``(mu0 / 4 pi) * 2 m / d^3``. Scales inverse-cube with
    distance and linearly with volume, abundance, and (in the linear
    regime) the prepolarization field.

    Raises
    ------
    GeometryError
        Detector distance inside the equivalent sample radius, where the
        point-dipole picture breaks down.
    InvalidParameterError
        The field, or a step of it, is out of float range.
    """
    if spec.distance_m <= spec.equivalent_radius_m:
        raise GeometryError(
            f"distance {spec.distance_m:g} m inside the sample radius "
            f"{spec.equivalent_radius_m:g} m"
        )
    pol = thermal_polarization(spec.gyromag_rad_s_t, spec.prepol_field_t, spec.temperature_k)
    n_spins = spec.volume_m3 * spec.spin_density_per_m3
    moment = n_spins * spec.natural_abundance * pol * (HBAR * spec.gyromag_rad_s_t / 2.0)
    try:
        field_t = MU0 / (4.0 * np.pi) * 2.0 * moment / spec.distance_m**3
    except (ZeroDivisionError, OverflowError):
        field_t = math.nan
    if not math.isfinite(field_t):
        raise InvalidParameterError(f"dipole field at {spec.distance_m:g} m is out of float range")
    return float(field_t)


def load_isotopes() -> dict[str, Isotope]:
    """Load the bundled isotope table (gamma, spin, natural abundance).

    ``SERFKIT_DATA_DIR`` names a directory whose ``isotopes.json`` is read
    instead. Entries are checked like configs.
    """
    # Imported here so that ``import serfkit.nmrsignal`` does not load ``dataio``.
    from .dataio import _from_json, _parse_json

    override = os.environ.get(DATA_DIR_ENV)
    source = Path(override) if override else resources.files("serfkit") / "data"
    table = source.joinpath("isotopes.json")
    raw = _parse_json(table.read_bytes(), table)
    entries = raw.get("isotopes") if isinstance(raw, dict) else None
    if not isinstance(entries, dict):
        raise ConfigError(f"{table}: needs an \"isotopes\" object")
    return {
        symbol: _from_json(Isotope, entry, f"{table}: isotope {symbol}")
        for symbol, entry in entries.items()
    }


def water_proton_sample() -> SampleSpec:
    """Reference sample: 200 uL of water protons (6.7e28 m^-3), 2 T, 300 K, 1 cm away."""
    isotope = load_isotopes()["1H"]
    return SampleSpec(
        volume_m3=200e-9,
        spin_density_per_m3=6.7e28,
        natural_abundance=isotope.natural_abundance,
        gyromag_rad_s_t=isotope.gyromag_rad_s_t,
        spin=isotope.spin,
        prepol_field_t=2.0,
        temperature_k=300.0,
        distance_m=0.01,
    )
