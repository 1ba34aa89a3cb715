"""serfkit: SERF magnetometer characterization and gradiometric calibration.

Spectral-line fitting, buffer-gas composition inversion, spin-exchange
relaxation fitting, two-channel amplitude/phase calibration with
frequency-domain subtraction, noise spectral-density estimation, and
thermally polarized NMR signal-strength estimation, validated against a
built-in synthetic-data generator.

The modules are the API. ``serfkit.X`` also resolves every name in
``__all__``, importing its module on first use (PEP 562), so a bare
``import serfkit`` loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# Module -> the names serfkit re-exports from it.
_EXPORTS = {
    "cellchem": "CellComposition GasCoefficients solve_composition",
    "errors": "ConfigError DegenerateDataError FitFailureError GeometryError InsufficientBandError "
    "InsufficientCoverageError InsufficientDataError InvalidCoefficientsError InvalidParameterError "
    "InvalidSlowingFactorError MissingToneError SerfkitError ShapeError UnphysicalCompositionError "
    "ValidationError",
    "gradiometer": "GradCalibration PhaseModelFit PhasePoint amplitude_ratio fit_phase_model "
    "magnitude_ratio phase_difference phase_extremum reduction_ratio subtract",
    "lineshape": "FrequencySweep LorentzianFit eval_lorentzian fit_lorentzian fit_response_curve "
    "lorentzian_jacobian",
    "nmrsignal": "Isotope SampleSpec dipole_field load_isotopes thermal_polarization "
    "water_proton_sample",
    "noisepsd": "PsdEstimate band_floor calibrate_tesla tone_amplitude welch_asd",
    "records": "TwoChannelRecord",
    "serf": "LinewidthPoint SerfParams TseFit fit_tse number_density predict_linewidth "
    "se_broadening_factor se_rate",
    "simulator": "NoiseModel SimConfig channel_transfer simulate_record",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# Submodules that resolve as attributes: the exporting ones and the two they import.
_MODULES = (*_EXPORTS, "constants", "fitting")

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    # Not cached in this namespace: the module's current binding is returned
    # on every access, so a name rebound in its module is seen here too.
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
