"""End-to-end demonstration chain on bundled synthetic data.

Runs every stage of the analysis on generated data whose ground truth is
set to the reference operating point of the instrument: absorption line at
+1.916 GHz shift and 31.878 GHz width (helium/nitrogen mix of 1.86/0.34
amagat), spin-exchange time 8.6 us, channel bandwidths 49.9/68.8 Hz, a
16 pT calibration tone at 10 Hz, an 8 fT/sqrt(Hz) common-mode floor and a
1.2 fT/sqrt(Hz) uncorrelated floor.
"""

from __future__ import annotations

import numpy as np

from .cellchem import K_D1_COEFFICIENTS, solve_composition
from .constants import K_D1_FREQ_HZ
from .gradiometer import (
    GradCalibration,
    PhasePoint,
    amplitude_ratio,
    fit_phase_model,
    phase_difference,
    phase_extremum,
    reduction_ratio,
    subtract,
)
from .lineshape import FrequencySweep, eval_lorentzian, fit_lorentzian
from .nmrsignal import dipole_field, thermal_polarization, water_proton_sample
from .noisepsd import band_floor, welch_asd
from .serf import LinewidthPoint, SerfParams, fit_tse, number_density, predict_linewidth
from .simulator import NoiseModel, SimConfig, simulate_record

# Ground truth of the bundled synthetic data.
TRUE_SHIFT_GHZ = 1.916
TRUE_WIDTH_GHZ = 31.878
TRUE_ABSORPTION_DEPTH = -0.9
TRUE_T_SE_S = 8.6e-6
TRUE_INTRINSIC_HWHM_HZ = 10.45
TOP_BANDWIDTH_HZ = 49.9
BOTTOM_BANDWIDTH_HZ = 68.8
TONE_FREQ_HZ = 10.0
TONE_AMP_T = 16e-12
COMMON_FLOOR_T_SQRTHZ = 8e-15
UNCORRELATED_FLOOR_T_SQRTHZ = 1.2e-15

SAMPLE_RATE_HZ = 1000.0
DURATION_S = 60.0


def _absorption_stage(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    center = K_D1_FREQ_HZ + TRUE_SHIFT_GHZ * 1e9
    freqs = np.linspace(389.24e12, 389.34e12, 401)
    clean = eval_lorentzian(center, TRUE_WIDTH_GHZ * 1e9, TRUE_ABSORPTION_DEPTH, 1.0, freqs)
    noisy = clean + rng.normal(0.0, 0.002 * abs(TRUE_ABSORPTION_DEPTH), len(freqs))
    fit = fit_lorentzian(FrequencySweep(freqs, noisy))
    shift_ghz = (fit.center_hz - K_D1_FREQ_HZ) / 1e9
    width_ghz = fit.hwhm_hz / 1e9
    comp = solve_composition(shift_ghz, width_ghz, K_D1_COEFFICIENTS)
    return {
        "center_hz": fit.center_hz,
        "hwhm_ghz": width_ghz,
        "shift_ghz": shift_ghz,
        "he_amagat": comp.he_amagat,
        "n2_amagat": comp.n2_amagat,
    }


def _serf_stage(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    truth = SerfParams(t_se_s=TRUE_T_SE_S, intrinsic_hwhm_hz=TRUE_INTRINSIC_HWHM_HZ)
    res = np.arange(20.0, 201.0, 20.0)
    widths = predict_linewidth(res, truth) * (1.0 + rng.normal(0.0, 0.01, len(res)))
    points = [LinewidthPoint(float(f), float(w)) for f, w in zip(res, widths)]
    fit = fit_tse(points)
    return {
        "t_se_s": fit.t_se_s,
        "intrinsic_hwhm_hz": fit.intrinsic_hwhm_hz,
        "n_cm3": number_density(fit.t_se_s),
    }


def _phase_stage(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    freqs = np.arange(5.0, 201.0, 5.0)
    phases = phase_difference(freqs, TOP_BANDWIDTH_HZ, BOTTOM_BANDWIDTH_HZ)
    phases = phases + rng.normal(0.0, 0.003, len(freqs))
    fit = fit_phase_model([PhasePoint(float(f), float(p)) for f, p in zip(freqs, phases)])
    f_ext, phi_ext = phase_extremum(fit.f1_hz, fit.f2_hz)
    return {
        "f1_hz": fit.f1_hz,
        "f2_hz": fit.f2_hz,
        "extremum_freq_hz": f_ext,
        "extremum_phase_rad": phi_ext,
    }


def _gradiometer_stage(seed: int, f1_hz: float, f2_hz: float) -> dict:
    cfg = SimConfig(
        sample_rate_hz=SAMPLE_RATE_HZ,
        duration_s=DURATION_S,
        seed=seed,
        f1_hz=TOP_BANDWIDTH_HZ,
        f2_hz=BOTTOM_BANDWIDTH_HZ,
        tones=((TONE_FREQ_HZ, TONE_AMP_T, 0.0),),
        noise=NoiseModel(
            common_asd_t_sqrthz=COMMON_FLOOR_T_SQRTHZ,
            sensor_asd_t_sqrthz=UNCORRELATED_FLOOR_T_SQRTHZ / np.sqrt(2.0),
        ),
    )
    record = simulate_record(cfg)
    ratio = amplitude_ratio(record, TONE_FREQ_HZ)
    cal = GradCalibration(
        amplitude_ratio=ratio,
        f1_hz=f1_hz,
        f2_hz=f2_hz,
        tone_freq_hz=TONE_FREQ_HZ,
        tone_amp_t=TONE_AMP_T,
    )
    diff = subtract(record, cal)
    psd_top = welch_asd(record.top_t, SAMPLE_RATE_HZ)
    psd_diff = welch_asd(diff, SAMPLE_RATE_HZ)
    return {
        "amplitude_ratio": ratio,
        "reduction_ratio": reduction_ratio(record, cal, TONE_FREQ_HZ, difference=diff),
        "single_floor_t_sqrthz": band_floor(psd_top, 2.0, 10.0),
        "difference_floor_t_sqrthz": band_floor(psd_diff, 20.0, 30.0),
        "_cal": cal,
        "_psd_top": psd_top,
        "_psd_diff": psd_diff,
    }


def _nmr_stage() -> dict:
    sample = water_proton_sample()
    return {
        "polarization": thermal_polarization(
            sample.gyromag_rad_s_t, sample.prepol_field_t, sample.temperature_k
        ),
        "field_t": dipole_field(sample),
    }


def run_demo(seed: int = 7) -> dict:
    """Run the full chain with stage seeds derived as seed, seed+1, ...

    Returns a dict with one sub-dict per stage; keys starting with an
    underscore hold intermediate objects for callers that want to write
    artifacts (calibration, PSDs).
    """
    absorption = _absorption_stage(seed + 1)
    serf = _serf_stage(seed + 2)
    phase = _phase_stage(seed + 3)
    grad = _gradiometer_stage(seed, phase["f1_hz"], phase["f2_hz"])
    nmr = _nmr_stage()
    return {
        "seed": seed,
        "absorption": absorption,
        "serf": serf,
        "phase": phase,
        "gradiometer": grad,
        "nmr": nmr,
    }


def summary_table(results: dict) -> str:
    """Human-readable comparison of recovered values against the references."""
    rows = [
        ("quantity", "measured", "reference"),
        ("He buffer gas (amg)", f"{results['absorption']['he_amagat']:.3f}", "1.86"),
        ("N2 quench gas (amg)", f"{results['absorption']['n2_amagat']:.3f}", "0.34"),
        ("line width (GHz)", f"{results['absorption']['hwhm_ghz']:.3f}", "31.878"),
        ("T_SE (us)", f"{results['serf']['t_se_s'] * 1e6:.3f}", "8.6"),
        ("alkali density (cm^-3)", f"{results['serf']['n_cm3']:.3e}", "1.163e14"),
        ("channel bandwidth f1 (Hz)", f"{results['phase']['f1_hz']:.2f}", "49.9"),
        ("channel bandwidth f2 (Hz)", f"{results['phase']['f2_hz']:.2f}", "68.8"),
        (
            "phase extremum (rad @ Hz)",
            f"{abs(results['phase']['extremum_phase_rad']):.3f} @ "
            f"{results['phase']['extremum_freq_hz']:.1f}",
            "0.160 @ 58.6",
        ),
        ("tone reduction ratio", f"{results['gradiometer']['reduction_ratio']:.1f}", ">= 50"),
        (
            "single-channel floor (fT/sqrt(Hz))",
            f"{results['gradiometer']['single_floor_t_sqrthz'] * 1e15:.2f}",
            "8",
        ),
        (
            "gradiometer floor (fT/sqrt(Hz))",
            f"{results['gradiometer']['difference_floor_t_sqrthz'] * 1e15:.2f}",
            "1.2",
        ),
        ("thermal polarization (water, 2 T)", f"{results['nmr']['polarization']:.3e}", "6.81e-6"),
        ("sample field at 1 cm (T)", f"{results['nmr']['field_t']:.3e}", "2.6e-10"),
    ]
    width0 = max(len(r[0]) for r in rows)
    width1 = max(len(r[1]) for r in rows)
    lines = [f"{r[0]:<{width0}}  {r[1]:>{width1}}  {r[2]}" for r in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def public_results(results: dict) -> dict:
    """Copy of the results with intermediate (underscored) objects removed."""
    out = {}
    for key, value in results.items():
        if isinstance(value, dict):
            out[key] = {k: v for k, v in value.items() if not k.startswith("_")}
        else:
            out[key] = value
    return out
