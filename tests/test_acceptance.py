"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -v`` or ``-s``
to see them); a failing criterion shows up as a failed test.
"""

import json
import math
import time

import numpy as np
import pytest

from serfkit.cellchem import solve_composition
from serfkit.cli import EXIT_OK, main
from serfkit.gradiometer import (
    GradCalibration,
    PhasePoint,
    amplitude_ratio,
    fit_phase_model,
    phase_difference,
    reduction_ratio,
    subtract,
)
from serfkit.lineshape import FrequencySweep, eval_lorentzian, fit_lorentzian
from serfkit.nmrsignal import SampleSpec, dipole_field, thermal_polarization
from serfkit.noisepsd import band_floor, calibrate_tesla, hann_window, tone_amplitude, welch_asd
from serfkit.serf import (
    LinewidthPoint,
    SerfParams,
    fit_tse,
    number_density,
    predict_linewidth,
    se_broadening_factor,
    se_rate,
)
from serfkit.simulator import NoiseModel, SimConfig, simulate_record

F1, F2 = 49.9, 68.8
FS = 1000.0


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS  {text}")


def test_c01_gas_inversion_value_and_runtime():
    comp = solve_composition(1.916, 31.878)
    assert comp.he_amagat == pytest.approx(1.86, abs=0.01)
    assert comp.n2_amagat == pytest.approx(0.34, abs=0.01)
    start = time.perf_counter()
    for _ in range(100):
        solve_composition(1.916, 31.878)
    per_call = (time.perf_counter() - start) / 100.0
    assert per_call < 1e-3
    _report(1, f"He=1.86, N2=0.34 amg recovered; {per_call * 1e6:.0f} us per solve")


def test_c02_spin_exchange_rate_constant():
    assert se_broadening_factor(1.5, 6.0) == 10.0
    rate = se_rate(100.0, SerfParams(t_se_s=8.6e-6))
    assert rate == pytest.approx(33.95, abs=0.01)
    _report(2, f"bracket*q^2 = 10 exactly; rate(100 Hz) = {rate:.4f} 1/s")


def test_c03_number_density():
    n = number_density(8.6e-6, 500.0, 2e-14)
    assert n == pytest.approx(1.163e14, rel=1e-3)
    assert abs(n / 1.2e14 - 1.0) < 0.05
    _report(3, f"n = {n:.4g} cm^-3, within 5% of the quoted 1.2e14")


def test_c04_phase_extremum_location_and_size():
    grid = np.arange(0.05, 200.0, 0.05)
    dphi = phase_difference(grid, F1, F2)
    i = int(np.argmax(np.abs(dphi)))
    assert grid[i] == pytest.approx(58.6, abs=0.1)
    assert abs(dphi[i]) == pytest.approx(0.161, abs=0.01)
    _report(4, f"|dphi| extremum {abs(dphi[i]):.4f} rad at {grid[i]:.2f} Hz")


def test_c05_phase_model_identity():
    f = np.linspace(1e-3, 500.0, 10000)
    lhs = phase_difference(f, F1, F2)
    rhs = np.arctan(f / F2) - np.arctan(f / F1)
    worst = float(np.max(np.abs(lhs - rhs)))
    assert worst < 1e-12
    _report(5, f"arctan-difference identity holds to {worst:.2e} on 1e4 points")


def test_c06_fit_recovery_suites():
    start = time.perf_counter()

    lorentz_hits = 0
    freqs = np.linspace(100.0 - 5 * 8.0, 100.0 + 5 * 8.0, 250)
    clean = eval_lorentzian(100.0, 8.0, 1.0, 0.0, freqs)
    for seed in range(100):
        noisy = clean + np.random.default_rng(seed).normal(0.0, 0.01, len(freqs))
        fit = fit_lorentzian(FrequencySweep(freqs, noisy))
        lorentz_hits += abs(fit.hwhm_hz / 8.0 - 1.0) < 0.05

    tse_hits = 0
    res = np.arange(20.0, 201.0, 20.0)
    widths_clean = predict_linewidth(res, SerfParams(t_se_s=8.6e-6, intrinsic_hwhm_hz=10.45))
    for seed in range(100):
        noise = np.random.default_rng(1000 + seed).normal(0.0, 0.02, len(res))
        points = [
            LinewidthPoint(float(f), float(w)) for f, w in zip(res, widths_clean * (1 + noise))
        ]
        fit = fit_tse(points)
        tse_hits += abs(fit.t_se_s / 8.6e-6 - 1.0) < 0.05

    phase_hits = 0
    pf = np.arange(5.0, 201.0, 5.0)
    phases_clean = phase_difference(pf, F1, F2)
    for seed in range(100):
        noisy = phases_clean + np.random.default_rng(2000 + seed).normal(0.0, 0.005, len(pf))
        fit = fit_phase_model(
            [PhasePoint(float(f), float(p)) for f, p in zip(pf, noisy)]
        )
        phase_hits += (
            abs(fit.f1_hz / F1 - 1.0) < 0.05 and abs(fit.f2_hz / F2 - 1.0) < 0.05
        )

    elapsed = time.perf_counter() - start
    assert lorentz_hits >= 95
    assert tse_hits >= 95
    assert phase_hits >= 95
    assert elapsed < 30.0
    _report(
        6,
        f"recovery rates {lorentz_hits}/{tse_hits}/{phase_hits} per 100 "
        f"(Lorentzian/T_SE/bandwidths) in {elapsed:.1f} s",
    )


def _hann_peak(series, tone_freq_hz):
    """Hann-windowed magnitude at the peak bin within +-2 bins of the tone."""
    mag = np.abs(np.fft.rfft(series * hann_window(len(series))))
    nominal = int(round(tone_freq_hz / (FS / len(series))))
    return float(mag[nominal - 2:nominal + 3].max())


def test_c07_end_to_end_gradiometry():
    start = time.perf_counter()
    cfg = SimConfig(
        sample_rate_hz=FS,
        duration_s=60.0,
        seed=7,
        f1_hz=F1,
        f2_hz=F2,
        tones=((10.0, 16e-12, 0.0),),
        noise=NoiseModel(
            common_asd_t_sqrthz=8e-15,
            sensor_asd_t_sqrthz=1.2e-15 / math.sqrt(2.0),
        ),
    )
    record = simulate_record(cfg)
    ratio = amplitude_ratio(record, 10.0)
    cal = GradCalibration(ratio, F1, F2, tone_freq_hz=10.0, tone_amp_t=16e-12)

    reduction = reduction_ratio(record, cal, 10.0)
    assert reduction >= 50.0

    amp_only = subtract(record, cal, phase_correct=False)
    residual_over_top = _hann_peak(amp_only, 10.0) / _hann_peak(record.top_t, 10.0)
    predicted = 2.0 * math.sin(abs(phase_difference(10.0, F1, F2)) / 2.0)
    assert residual_over_top == pytest.approx(predicted, rel=0.05)

    diff = subtract(record, cal, phase_correct=True)
    floor = band_floor(welch_asd(diff, FS), 20.0, 30.0)
    assert floor == pytest.approx(1.2e-15, rel=0.10)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        7,
        f"reduction {reduction:.0f}, phasor residual dev "
        f"{abs(residual_over_top / predicted - 1) * 100:.2f}%, "
        f"difference floor {floor * 1e15:.3f} fT/rtHz in {elapsed:.1f} s",
    )


def test_c08_psd_calibration_and_parseval():
    rng = np.random.default_rng(21)
    n = 60000
    t = np.arange(n) / FS
    gain = 2.4
    series = gain * (
        16e-12 * np.sin(2.0 * np.pi * 10.0 * t)
        + rng.normal(0.0, 8e-15 * math.sqrt(FS / 2.0), n)
    )
    psd = welch_asd(series, FS)
    scale = calibrate_tesla(psd, 10.0, 16e-12)
    recovered = tone_amplitude(psd.scaled(scale), 10.0)
    assert recovered == pytest.approx(16e-12, rel=0.02)

    noise = rng.standard_normal(n)
    psd_noise = welch_asd(noise, FS)
    integral = float(np.sum(psd_noise.asd_t_sqrthz**2) * psd_noise.bin_width_hz)
    assert integral == pytest.approx(float(np.mean(noise**2)), rel=0.01)
    _report(
        8,
        f"tone recovered at {recovered * 1e12:.3f} pT; Parseval dev "
        f"{abs(integral / np.mean(noise**2) - 1) * 100:.2f}%",
    )


def test_c09_nmr_estimator():
    pol = thermal_polarization(2.675e8, 2.0, 300.0)
    assert pol == pytest.approx(6.81e-6, abs=1e-8)

    def spec(**overrides):
        base = dict(
            volume_m3=200e-9,
            spin_density_per_m3=6.7e28,  # 1.34e22 protons in 200 uL
            natural_abundance=1.0,
            gyromag_rad_s_t=2.675e8,
            spin=0.5,
            prepol_field_t=2.0,
            temperature_k=300.0,
            distance_m=0.01,
        )
        base.update(overrides)
        return SampleSpec(**base)

    field = dipole_field(spec())
    assert field == pytest.approx(2.6e-10, rel=0.02)
    assert dipole_field(spec(distance_m=0.02)) * 8.0 == dipole_field(spec())
    assert dipole_field(spec(volume_m3=400e-9)) == 2.0 * dipole_field(spec())
    full = dipole_field(spec(natural_abundance=1.0))
    labeled = dipole_field(spec(natural_abundance=0.011))
    assert full / labeled == pytest.approx(1.0 / 0.011, rel=1e-12)
    _report(9, f"P = {pol:.4e}, B = {field:.3e} T; scaling laws exact")


def test_c10_demo_determinism(tmp_path, capsys):
    dir1, dir2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["demo-paper", "--seed", "7", "--out-dir", str(dir1)]) == EXIT_OK
    out1 = capsys.readouterr().out
    assert main(["demo-paper", "--seed", "7", "--out-dir", str(dir2)]) == EXIT_OK
    capsys.readouterr()

    artifacts = ["summary.json", "calibration.json", "psd_single.csv", "psd_difference.csv"]
    for name in artifacts:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
        m1 = json.loads((dir1 / (name + ".manifest.json")).read_text())
        m2 = json.loads((dir2 / (name + ".manifest.json")).read_text())
        m1.pop("created_utc"), m2.pop("created_utc")
        assert m1 == m2

    summary = json.loads((dir1 / "summary.json").read_text())
    assert summary["gradiometer"]["reduction_ratio"] >= 50.0
    assert "reduction" in out1
    _report(
        10,
        f"two seed-7 runs byte-identical; reported reduction ratio "
        f"{summary['gradiometer']['reduction_ratio']:.0f}",
    )
