"""Command-line interface tests: dispatch, exit codes, manifests, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import serfkit
from serfkit import cellchem, dataio, lineshape, serf
from serfkit.cli import (
    EXIT_FIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    _warn_slow_fft_length,
    main,
)
from serfkit.gradiometer import GradCalibration, amplitude_ratio, fit_phase_model, phase_difference
from serfkit.lineshape import eval_lorentzian
from serfkit.records import TwoChannelRecord

FS = 1000.0


def write_sim_config(path, seed=11, duration=20.0, **noise):
    cfg = {
        "sample_rate_hz": FS,
        "duration_s": duration,
        "seed": seed,
        "f1_hz": 49.9,
        "f2_hz": 68.8,
        "tones": [[10.0, 16e-12, 0.0]],
        "noise": noise or {"common_asd_t_sqrthz": 8e-15, "sensor_asd_t_sqrthz": 8.5e-16},
    }
    dataio.write_json(path, cfg)
    return path


def test_gas_solve_reference(capsys, tmp_path):
    out = tmp_path / "comp.json"
    code = main(["gas-solve", "--shift-ghz", "1.916", "--width-ghz", "31.878",
                 "--out", str(out)])
    assert code == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["he_amagat"] == pytest.approx(1.86, abs=1e-9)
    assert result["n2_amagat"] == pytest.approx(0.34, abs=1e-9)
    assert json.loads(out.read_text())["he_amagat"] == pytest.approx(1.86, abs=1e-9)
    manifest = json.loads((tmp_path / "comp.json.manifest.json").read_text())
    assert manifest["command"] == "gas-solve"
    assert "config_hash" in manifest


def test_gas_solve_unphysical_exits_2(tmp_path):
    assert main(["gas-solve", "--shift-ghz", "-20", "--width-ghz", "21"]) == EXIT_VALIDATION


def test_gas_solve_coefficient_override(capsys, tmp_path):
    cfg = tmp_path / "coeffs.json"
    dataio.write_json(cfg, {"shift_he_ghz_per_amg": 1.0, "shift_n2_ghz_per_amg": 0.0,
                            "broaden_he_ghz_per_amg": 1.0, "broaden_n2_ghz_per_amg": 1.0})
    code = main(["gas-solve", "--shift-ghz", "2.0", "--width-ghz", "5.0",
                 "--config", str(cfg)])
    assert code == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["he_amagat"] == pytest.approx(2.0)
    assert result["n2_amagat"] == pytest.approx(3.0)


def test_gas_solve_unknown_coefficient_key_exits_2(tmp_path):
    cfg = tmp_path / "coeffs.json"
    dataio.write_json(cfg, {"shift_he": 1.0})
    assert main(["gas-solve", "--shift-ghz", "1", "--width-ghz", "2",
                 "--config", str(cfg)]) == EXIT_VALIDATION


def test_malformed_json_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "r.csv")]) == EXIT_VALIDATION


def test_unknown_flag_exits_64():
    assert main(["gas-solve", "--shift-ghz", "1", "--width-ghz", "2", "--bogus"]) == EXIT_USAGE


def test_unknown_command_exits_64():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_simulate_deterministic_outputs(tmp_path):
    cfg = write_sim_config(tmp_path / "sim.json")
    out1, out2 = tmp_path / "rec1.csv", tmp_path / "rec2.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    # Manifests agree apart from the creation timestamp.
    m1 = json.loads((tmp_path / "rec1.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "rec2.csv.manifest.json").read_text())
    m1.pop("created_utc"), m2.pop("created_utc")
    assert m1 == m2


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = write_sim_config(tmp_path / "sim.json", seed=11)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", str(cfg), "--out", str(out1)])
    main(["simulate", "--config", str(cfg), "--seed", "12", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_bad_config_key_exits_2(tmp_path):
    cfg_path = tmp_path / "sim.json"
    dataio.write_json(cfg_path, {"sample_rate_hz": FS, "duration_s": 10.0, "typo": 1})
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) \
        == EXIT_VALIDATION


def test_fit_absorption_pipeline(capsys, tmp_path):
    freqs = np.linspace(389.24e12, 389.34e12, 301)
    vals = eval_lorentzian(389.2879e12, 31.98e9, -0.9, 1.0, freqs)
    dataio._write_csv(tmp_path / "sweep.csv", ("freq_hz", "value"), (freqs, vals))
    out = tmp_path / "fit.json"
    code = main(["fit-absorption", "--in", str(tmp_path / "sweep.csv"), "--out", str(out)])
    assert code == EXIT_OK
    result = json.loads(out.read_text())
    assert result["center_hz"] == pytest.approx(389.2879e12, rel=1e-9)
    assert result["hwhm_hz"] == pytest.approx(31.98e9, rel=1e-9)
    assert set(result) == {"center_hz", "hwhm_hz", "amplitude", "baseline", "residual_rms"}


def test_fit_absorption_flat_data_exits_2(tmp_path):
    dataio._write_csv(tmp_path / "flat.csv", ("freq_hz", "value"), (np.arange(10.0), np.ones(10)))
    assert main(["fit-absorption", "--in", str(tmp_path / "flat.csv"),
                 "--out", str(tmp_path / "f.json")]) == EXIT_VALIDATION


def test_fit_response_reference_linewidth(tmp_path):
    freqs = np.linspace(70.0, 170.0, 300)
    vals = eval_lorentzian(120.0, 10.45, 1.0, 0.0, freqs)
    dataio._write_csv(tmp_path / "resp.csv", ("freq_hz", "value"), (freqs, vals))
    out = tmp_path / "fit.json"
    assert main(["fit-response", "--in", str(tmp_path / "resp.csv"), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["hwhm_hz"] == pytest.approx(10.45, rel=1e-9)


def test_fit_serf_pipeline(tmp_path):
    res = np.arange(20.0, 201.0, 20.0)
    widths = 10.45 + 2 * math.pi * 10.0 * 8.6e-6 * res**2
    lines = ["resonance_hz,hwhm_hz"] + [f"{f},{w}" for f, w in zip(res, widths)]
    (tmp_path / "pts.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "serf.json"
    assert main(["fit-serf", "--in", str(tmp_path / "pts.csv"), "--out", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    assert result["t_se_s"] == pytest.approx(8.6e-6, rel=1e-9, abs=0)
    assert result["intrinsic_hwhm_hz"] == pytest.approx(10.45, rel=1e-9)
    assert result["n_cm3"] == pytest.approx(1.163e14, rel=1e-3)


def test_fit_serf_inconsistent_data_exits_3(tmp_path):
    (tmp_path / "pts.csv").write_text(
        "resonance_hz,hwhm_hz\n20,30\n60,20\n120,10\n200,5\n"
    )
    assert main(["fit-serf", "--in", str(tmp_path / "pts.csv"),
                 "--out", str(tmp_path / "serf.json")]) == EXIT_FIT_FAILURE


def test_phase_fit_pipeline(tmp_path):
    freqs = np.arange(5.0, 201.0, 5.0)
    phases = phase_difference(freqs, 49.9, 68.8)
    lines = ["freq_hz,phase_rad"] + [f"{f},{p}" for f, p in zip(freqs, phases)]
    (tmp_path / "phase.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "phase.json"
    assert main(["phase-fit", "--in", str(tmp_path / "phase.csv"), "--out", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    assert result["f1_hz"] == pytest.approx(49.9, abs=1e-6)
    assert result["f2_hz"] == pytest.approx(68.8, abs=1e-6)


def test_calibrate_subtract_chain(capsys, tmp_path):
    cfg = write_sim_config(tmp_path / "sim.json")
    rec_path = tmp_path / "rec.csv"
    main(["simulate", "--config", str(cfg), "--out", str(rec_path)])
    cal_path = tmp_path / "cal.json"
    code = main(["calibrate", "--in", str(rec_path), "--tone-freq", "10",
                 "--tone-amp", "16e-12", "--f1", "49.9", "--f2", "68.8",
                 "--out", str(cal_path)])
    assert code == EXIT_OK
    cal = json.loads(cal_path.read_text())
    assert cal["amplitude_ratio"] == pytest.approx(0.9908, abs=2e-3)
    out = tmp_path / "diff.csv"
    assert main(["subtract", "--in", str(rec_path), "--cal", str(cal_path),
                 "--phase", "--out", str(out)]) == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header == "t_s,value_t"


def test_subtract_identical_channels_zero_output(tmp_path):
    t = np.arange(8192) / FS
    x = 1e-12 * np.sin(2 * np.pi * 10.0 * t)
    rec = TwoChannelRecord(FS, x, x.copy())
    rec_path = tmp_path / "rec.csv"
    dataio.write_record_csv(rec_path, rec)
    cal_path = tmp_path / "cal.json"
    dataio.write_json(cal_path, {"amplitude_ratio": 1.0, "f1_hz": 49.9, "f2_hz": 68.8})
    out = tmp_path / "diff.csv"
    assert main(["subtract", "--in", str(rec_path), "--cal", str(cal_path),
                 "--no-phase", "--out", str(out)]) == EXIT_OK
    diff = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
    assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(x))


def test_psd_with_calibration_and_band(capsys, tmp_path):
    cfg = write_sim_config(tmp_path / "sim.json", duration=30.0)
    rec_path = tmp_path / "rec.csv"
    main(["simulate", "--config", str(cfg), "--out", str(rec_path)])
    out = tmp_path / "psd.csv"
    code = main(["psd", "--in", str(rec_path), "--segment-len", "4096",
                 "--overlap", "0.5", "--band", "2:10",
                 "--calibrate-tone", "10:16e-12", "--out", str(out)])
    assert code == EXIT_OK
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["band_floor_t_sqrthz"] == pytest.approx(8e-15, rel=0.10, abs=0)
    header = out.read_text().splitlines()[0]
    assert header == "freq_hz,asd_t_sqrthz"


def test_full_pipeline_difference_floor(capsys, tmp_path):
    # simulate -> calibrate -> subtract -> psd of the difference series
    cfg = write_sim_config(
        tmp_path / "sim.json", seed=3, duration=60.0,
        common_asd_t_sqrthz=8e-15, sensor_asd_t_sqrthz=1.2e-15 / math.sqrt(2.0),
    )
    rec = tmp_path / "rec.csv"
    main(["simulate", "--config", str(cfg), "--out", str(rec)])
    cal = tmp_path / "cal.json"
    main(["calibrate", "--in", str(rec), "--tone-freq", "10", "--tone-amp", "16e-12",
          "--f1", "49.9", "--f2", "68.8", "--out", str(cal)])
    diff = tmp_path / "diff.csv"
    main(["subtract", "--in", str(rec), "--cal", str(cal), "--phase", "--out", str(diff)])
    capsys.readouterr()
    out = tmp_path / "psd.csv"
    code = main(["psd", "--in", str(diff), "--band", "20:30", "--out", str(out)])
    assert code == EXIT_OK
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["band_floor_t_sqrthz"] == pytest.approx(1.2e-15, rel=0.15, abs=0)


def test_psd_missing_tone_exits_2(tmp_path):
    cfg = write_sim_config(tmp_path / "sim.json", duration=10.0)
    rec_path = tmp_path / "rec.csv"
    main(["simulate", "--config", str(cfg), "--out", str(rec_path)])
    assert main(["psd", "--in", str(rec_path), "--calibrate-tone", "333:1e-12",
                 "--out", str(tmp_path / "psd.csv")]) == EXIT_VALIDATION


def test_nmr_estimate_water(capsys, tmp_path):
    out = tmp_path / "est.json"
    code = main(["nmr-estimate", "--isotope", "1H", "--out", str(out)])
    assert code == EXIT_OK
    result = json.loads(out.read_text())
    assert result["polarization"] == pytest.approx(6.81e-6, abs=1e-8)
    assert result["field_t"] == pytest.approx(2.6e-10, rel=0.02)
    assert "model" in result


def test_nmr_estimate_unknown_isotope_exits_2():
    assert main(["nmr-estimate", "--isotope", "99Xx"]) == EXIT_VALIDATION


def test_nmr_estimate_from_config(tmp_path):
    spec = {
        "volume_m3": 200e-9,
        "spin_density_per_m3": 6.7e28,
        "natural_abundance": 1.0,
        "gyromag_rad_s_t": 2.675e8,
        "spin": 0.5,
        "prepol_field_t": 2.0,
        "temperature_k": 300.0,
        "distance_m": 0.01,
    }
    cfg = tmp_path / "sample.json"
    dataio.write_json(cfg, spec)
    out = tmp_path / "est.json"
    assert main(["nmr-estimate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["field_t"] == pytest.approx(2.575e-10, rel=1e-3, abs=0)


def test_missing_input_file_exits_2(tmp_path):
    assert main(["fit-absorption", "--in", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "f.json")]) == EXIT_VALIDATION


def test_every_output_has_manifest(tmp_path):
    cfg = write_sim_config(tmp_path / "sim.json", duration=10.0)
    rec_path = tmp_path / "rec.csv"
    main(["simulate", "--config", str(cfg), "--out", str(rec_path)])
    manifest_path = tmp_path / "rec.csv.manifest.json"
    assert manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["inputs"][0]["sha256"] == dataio.sha256_file(cfg)
    assert manifest["tool_version"]
    assert manifest["seed"] == 11


def test_ragged_record_row_exits_2(capsys, tmp_path):
    rec_path = tmp_path / "rec.csv"
    rows = [f"{i / FS},{1e-12 * math.sin(i)},{1e-12 * math.cos(i)}" for i in range(8192)]
    rows[100] = "0.1,1e-12"
    rec_path.write_text("t_s,top_t,bottom_t\n" + "\n".join(rows) + "\n")
    out = tmp_path / "psd.csv"
    assert main(["psd", "--in", str(rec_path), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert ":102: expected 3 columns, got 2" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_header_only_record_exits_2_with_one_error_line(tmp_path):
    # A separate interpreter, so that any warning would reach stderr as users see it.
    rec_path = tmp_path / "rec.csv"
    rec_path.write_text("t_s,top_t,bottom_t\n")
    out = tmp_path / "psd.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(serfkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "serfkit", "psd", "--in", str(rec_path), "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.splitlines() == [f"error: {rec_path}: no data rows"]
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        {"tones": [[10.0, 1e308, 0.0]], "noise": {"common_asd_t_sqrthz": 1e300}},
        {"noise": {"sensor_asd_t_sqrthz": 1e306}},
        {"channel_gains": [1e308, 1.0], "tones": [[10.0, 2.0, 0.0]]},
    ],
    ids=["huge_tone_and_common", "huge_sensor", "huge_gain"],
)
def test_simulate_overflow_exits_2_with_one_error_line(tmp_path, extra):
    # A separate interpreter, so that any warning would reach stderr as users see it.
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"sample_rate_hz": FS, "duration_s": 10.0, **extra}))
    out = tmp_path / "rec.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(serfkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "serfkit", "simulate", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr == "error: simulation produced non-finite samples\n"
    assert not out.exists()
    assert not (tmp_path / "rec.csv.manifest.json").exists()


def test_whitespace_line_in_record_is_skipped(tmp_path):
    rows = [f"{i / FS},{1e-12 * math.sin(i)},{1e-12 * math.cos(i)}" for i in range(8192)]
    (tmp_path / "clean.csv").write_text("t_s,top_t,bottom_t\n" + "\n".join(rows) + "\n")
    rows.insert(100, "   ")
    (tmp_path / "spaced.csv").write_text("t_s,top_t,bottom_t\n" + "\n".join(rows) + "\n")
    for name in ("clean", "spaced"):
        assert main(["psd", "--in", str(tmp_path / f"{name}.csv"),
                     "--out", str(tmp_path / f"{name}_psd.csv")]) == EXIT_OK
    assert (tmp_path / "spaced_psd.csv").read_bytes() == (tmp_path / "clean_psd.csv").read_bytes()


def test_record_with_partly_filled_extra_column(tmp_path):
    rows = [f"{i / FS},{1e-12 * math.sin(i)},{1e-12 * math.cos(i)}" for i in range(8192)]
    (tmp_path / "clean.csv").write_text("t_s,top_t,bottom_t\n" + "\n".join(rows) + "\n")
    rows[100] += ",1"
    (tmp_path / "noted.csv").write_text("t_s,top_t,bottom_t,note\n" + "\n".join(rows) + "\n")
    for name in ("clean", "noted"):
        assert main(["psd", "--in", str(tmp_path / f"{name}.csv"),
                     "--out", str(tmp_path / f"{name}_psd.csv")]) == EXIT_OK
    assert (tmp_path / "noted_psd.csv").read_bytes() == (tmp_path / "clean_psd.csv").read_bytes()


GAS_SOLVE = ["gas-solve", "--shift-ghz", "1.916", "--width-ghz", "31.878"]


@pytest.mark.parametrize(
    "command, config",
    [
        (["simulate"], {"sample_rate_hz": "abc", "duration_s": 10.0}),
        (["simulate"], {"sample_rate_hz": FS, "duration_s": 10.0, "seed": "s"}),
        (["simulate"], {"sample_rate_hz": FS, "duration_s": 10.0, "noise": [1, 2]}),
        (["simulate"], [FS, 10.0]),
        (GAS_SOLVE, {"shift_he_ghz_per_amg": "x"}),
        # Each of these ran, misread, before only JSON numbers were taken.
        (["simulate"], {"sample_rate_hz": FS, "duration_s": 10.0, "seed": 1.7}),
        (["simulate"], {"sample_rate_hz": FS, "duration_s": 10.0, "seed": True}),
        (["simulate"], {"sample_rate_hz": True, "duration_s": 5000.0}),
        (["simulate"], {"sample_rate_hz": FS, "duration_s": "10"}),
        (["simulate"], {"sample_rate_hz": FS, "duration_s": 10.0, "tones": [[True, 1e-12, 0]]}),
    ],
)
def test_bad_config_value_exits_2(capsys, tmp_path, command, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config" in err
    assert not out.exists()


def test_phase_fit_nan_frequency_exits_2(capsys, tmp_path):
    freqs = np.arange(5.0, 201.0, 5.0)
    phases = phase_difference(freqs, 49.9, 68.8)
    lines = ["freq_hz,phase_rad"] + [f"{f},{p}" for f, p in zip(freqs, phases)]
    lines[3] = "nan,0.01"
    (tmp_path / "phase.csv").write_text("\n".join(lines) + "\n")
    assert main(["phase-fit", "--in", str(tmp_path / "phase.csv"),
                 "--out", str(tmp_path / "phase.json")]) == EXIT_VALIDATION
    assert "freq_hz must be finite" in capsys.readouterr().err


def test_calibrate_timestamp_gap_exits_2(capsys, tmp_path):
    cfg = write_sim_config(tmp_path / "sim.json", duration=60.0)
    rec_path = tmp_path / "rec.csv"
    main(["simulate", "--config", str(cfg), "--out", str(rec_path)])
    # Shift the second half of the record 5 s later: a gap at t = 30 s.
    lines = rec_path.read_text().splitlines()
    for i in range(30001, len(lines)):
        t, top, bottom = lines[i].split(",")
        lines[i] = f"{float(t) + 5.0!r},{top},{bottom}"
    rec_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "cal.json"
    assert main(["calibrate", "--in", str(rec_path), "--tone-freq", "10",
                 "--f1", "49.9", "--f2", "68.8", "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "not uniformly sampled: step of 5.001 s after t = 29.999 s" in err
    assert "SNR" not in err
    assert not out.exists()


def _assert_one_error_line(capsys, code, out):
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


GOOD_CAL = {"amplitude_ratio": 0.99, "f1_hz": 49.9, "f2_hz": 68.8,
            "tone_freq_hz": 10.0, "tone_amp_t": 16e-12}


@pytest.mark.parametrize(
    "cal",
    [
        {**GOOD_CAL, "amplitude_ratio": "abc"},
        [1, 2],
        {**GOOD_CAL, "f1_hz": None},
        {**GOOD_CAL, "tone_freq_hz": "x"},
        {**GOOD_CAL, "bogus": 1},
    ],
)
def test_subtract_bad_calibration_exits_2(capsys, tmp_path, cal):
    rng = np.random.default_rng(0)
    record = TwoChannelRecord(FS, rng.normal(0.0, 1e-12, 2048), rng.normal(0.0, 1e-12, 2048))
    dataio.write_record_csv(tmp_path / "rec.csv", record)
    (tmp_path / "cal.json").write_text(json.dumps(cal))
    out = tmp_path / "diff.csv"
    code = main(["subtract", "--in", str(tmp_path / "rec.csv"),
                 "--cal", str(tmp_path / "cal.json"), "--out", str(out)])
    _assert_one_error_line(capsys, code, out)


PROTON = {"gyromag_rad_s_t": 267522187.44, "spin": 0.5, "natural_abundance": 0.99986}


@pytest.mark.parametrize(
    "table",
    [
        {"isotopes": {"1H": {"gyromag_rad_s_t": 267522187.44, "spin": 0.5}}},
        {"version": 1, "1H": PROTON},
        {"isotopes": {"1H": {**PROTON, "gyromag_rad_s_t": "x"}}},
    ],
)
def test_nmr_estimate_bad_isotope_table_exits_2(capsys, tmp_path, monkeypatch, table):
    (tmp_path / "isotopes.json").write_text(json.dumps(table))
    monkeypatch.setenv("SERFKIT_DATA_DIR", str(tmp_path))
    out = tmp_path / "estimate.json"
    code = main(["nmr-estimate", "--isotope", "1H", "--out", str(out)])
    _assert_one_error_line(capsys, code, out)


def test_truncated_calibration_json_names_the_file(tmp_path):
    # A separate interpreter, so that the stderr line is exactly what users see.
    rng = np.random.default_rng(0)
    record = TwoChannelRecord(FS, rng.normal(0.0, 1e-12, 2048), rng.normal(0.0, 1e-12, 2048))
    dataio.write_record_csv(tmp_path / "rec.csv", record)
    cal = tmp_path / "cal.json"
    cal.write_text('{"amplitude_ratio": 0.99,\n')
    out = tmp_path / "diff.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(serfkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "serfkit", "subtract", "--in", str(tmp_path / "rec.csv"),
         "--cal", str(cal), "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.splitlines() == [
        f"error: {cal}: Expecting property name enclosed in double quotes: "
        "line 2 column 1 (char 26)"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "body, message",
    [
        (b'{"sample_rate_hz": 1000.0,', "Expecting property name enclosed in double quotes: "
                                        "line 1 column 27 (char 26)"),
        (b'{"seed": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 10: "
                              "invalid start byte"),
    ],
    ids=["truncated", "not_utf8"],
)
def test_unparsable_config_names_the_file(capsys, tmp_path, body, message):
    cfg = tmp_path / "sim.json"
    cfg.write_bytes(body)
    out = tmp_path / "rec.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


def test_truncated_isotope_table_names_the_file(capsys, tmp_path, monkeypatch):
    table = tmp_path / "isotopes.json"
    table.write_text('{"isotopes": {"1H": ')
    monkeypatch.setenv("SERFKIT_DATA_DIR", str(tmp_path))
    assert main(["nmr-estimate", "--isotope", "1H"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {table}: Expecting value: line 1 column 21 (char 20)\n"
    )


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"noise": {"sensor_asd_t_sqrthz": [1, 2, 3]}}, "simulate config {cfg}: noise: "
         "bad value for sensor_asd_t_sqrthz: expected 2 values, got 3"),
        ({"tones": [[1, 2]]},
         "simulate config {cfg}: bad value for tones: expected 3 values, got 2"),
    ],
    ids=["sensor_asd", "tones"],
)
def test_bad_nested_config_value_names_the_field(capsys, tmp_path, extra, message):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"sample_rate_hz": FS, "duration_s": 10.0, **extra}))
    out = tmp_path / "rec.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


# json.loads reads NaN and Infinity. Before, the NaN corner was dropped
# silently (exit 0), and the NaN or infinite levels reported only
# "simulation produced non-finite samples".
@pytest.mark.parametrize(
    "extra, message",
    [
        ({"noise": {"one_over_f_corner_hz": math.nan}},
         "noise: one_over_f_corner_hz must be finite, got nan"),
        ({"noise": {"common_asd_t_sqrthz": math.inf}},
         "noise: common_asd_t_sqrthz must be finite, got inf"),
        ({"noise": {"sensor_asd_t_sqrthz": [1e-15, math.nan]}},
         "noise: sensor_asd_t_sqrthz must be finite, got (1e-15, nan)"),
        ({"channel_gains": [1.0, math.inf]}, "channel_gains must be finite, got (1.0, inf)"),
        ({"f1_hz": math.nan}, "f1_hz must be finite, got nan"),
        ({"tones": [[10.0, math.inf, 0.0]]}, "tones must be finite, got ((10.0, inf, 0.0),)"),
        ({"duration_s": math.inf}, "duration_s must be finite, got inf"),
    ],
    ids=["nan_corner", "inf_common", "nan_sensor", "inf_gain", "nan_f1", "inf_tone",
         "inf_duration"],
)
def test_simulate_non_finite_config_number_names_the_field(capsys, tmp_path, extra, message):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"sample_rate_hz": FS, "duration_s": 10.0, **extra}))
    out = tmp_path / "rec.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert capsys.readouterr() == ("", f"error: simulate config {cfg}: {message}\n")
    assert code == EXIT_VALIDATION
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "header, line, position",
    [
        ("t_s,top_t,bottom_t", 1, 4),
        ("t_s,top_t,bottom_t", 1501, 6),
        ("t_s,value_t", 1, 4),
        ("t_s,value_t", 1501, 6),
    ],
    ids=["record_header", "record_row", "series_header", "series_row"],
)
def test_csv_not_utf8_exits_2_naming_the_line(capsys, tmp_path, header, line, position):
    # 2000 rows run past the first chunk that the header read decodes, so a
    # bad data row is found by the row parser.
    n_values = header.count(",")
    rows = [",".join([f"{i / FS:.3f}"] + ["1e-12"] * n_values) for i in range(2000)]
    lines = [text.encode("utf-8") for text in [header] + rows]
    bad = lines[line - 1]
    lines[line - 1] = bad[:position] + b"\xff" + bad[position:]
    path = tmp_path / "in.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "psd.csv"
    assert main(["psd", "--in", str(path), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {path}:{line}: 'utf-8' codec can't decode byte 0xff "
        f"in position {position}: invalid start byte\n"
    )
    assert not out.exists()


def test_calibrate_without_bandwidths_fails_before_reading_the_record(capsys, tmp_path):
    # A toneless record would fail the tone gate; the missing bandwidth source
    # is reported first.
    rng = np.random.default_rng(12)
    rec_path = tmp_path / "notone.csv"
    dataio.write_record_csv(
        rec_path, TwoChannelRecord(FS, rng.normal(0, 1e-15, 8192), rng.normal(0, 1e-15, 8192))
    )
    capsys.readouterr()
    out = tmp_path / "cal.json"
    code = main(["calibrate", "--in", str(rec_path), "--tone-freq", "10", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: provide either --phase-points or both --f1 and --f2\n"
    )
    assert not out.exists()


def _config_hash(out):
    return json.loads(Path(f"{out}.manifest.json").read_text())["config_hash"]


@pytest.mark.parametrize(
    "command, first, second",
    [
        ("simulate", ["--seed", "1"], ["--seed", "2"]),
        ("calibrate", ["--f1", "49.9", "--f2", "68.8"], ["--f1", "40", "--f2", "60"]),
        ("nmr-estimate", ["--distance-m", "0.01"], ["--distance-m", "0.02"]),
    ],
    ids=["simulate_seed", "calibrate_bandwidths", "nmr_estimate_distance"],
)
def test_config_hash_differs_when_an_option_does(tmp_path, command, first, second):
    cfg = write_sim_config(tmp_path / "sim.json", duration=10.0)
    rec = tmp_path / "rec.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(rec)]) == EXIT_OK
    base = {
        "simulate": ["--config", str(cfg)],
        "calibrate": ["--in", str(rec), "--tone-freq", "10"],
        "nmr-estimate": [],
    }[command]
    outs = [tmp_path / "first.out", tmp_path / "second.out"]
    for out, options in zip(outs, (first, second)):
        assert main([command, *base, *options, "--out", str(out)]) == EXIT_OK
    assert _config_hash(outs[0]) != _config_hash(outs[1])


def test_config_hash_does_not_depend_on_the_config_path(tmp_path):
    cfg = write_sim_config(tmp_path / "sim.json", duration=10.0)
    copy = tmp_path / "elsewhere" / "sim.json"
    copy.parent.mkdir()
    copy.write_bytes(cfg.read_bytes())
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, out in zip((cfg, copy), outs):
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert _config_hash(outs[0]) == _config_hash(outs[1])
    manifest = json.loads(Path(f"{outs[0]}.manifest.json").read_text())
    assert manifest["params"] == {"seed": None}


def _tone_record_csv(tmp_path, n=8192):
    rng = np.random.default_rng(5)
    tone = 16e-12 * np.sin(2 * np.pi * 10.0 * np.arange(n) / FS)
    path = tmp_path / "rec.csv"
    dataio.write_record_csv(
        path, TwoChannelRecord(FS, tone + rng.normal(0, 1e-15, n),
                               0.97 * tone + rng.normal(0, 1e-15, n))
    )
    return path


@pytest.mark.parametrize(
    "command, message",
    [
        (["calibrate", "--tone-freq", "nan", "--f1", "49.9", "--f2", "68.8"],
         "tone_freq_hz must be finite, got nan"),
        (["psd", "--calibrate-tone", "nan:1e-12"], "tone frequency must be finite, got nan"),
        (["calibrate", "--tone-freq", "10", "--f1", "inf", "--f2", "68.8",
          "--tone-amp", "nan"], "f1_hz must be finite, got inf"),
        (["psd", "--calibrate-tone", "10:inf"], "tone_amp_t must be finite and positive, got inf"),
        (["psd", "--calibrate-tone", "10:1e300"], "tesla scale 1e+300 T / 1.6e-11 T overflows"),
        (["calibrate", "--tone-freq", "1e308", "--f1", "49.9", "--f2", "68.8"],
         "tone frequency 1e+308 Hz outside (0, Nyquist)"),
        (["psd", "--calibrate-tone", "1e308:1"], "tone frequency 1e+308 Hz outside (0, Nyquist)"),
    ],
    ids=["calibrate_nan_tone", "psd_nan_tone", "calibrate_inf_f1", "psd_inf_tone_amp",
         "psd_tesla_scale_overflow", "calibrate_huge_tone", "psd_huge_tone"],
)
def test_non_finite_tone_or_calibration_exits_2(capsys, tmp_path, command, message):
    rec = _tone_record_csv(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([*command, "--in", str(rec), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_subtract_non_finite_calibration_exits_2(capsys, tmp_path):
    rec = _tone_record_csv(tmp_path)
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps({**GOOD_CAL, "f1_hz": math.inf, "tone_amp_t": math.nan}))
    out = tmp_path / "diff.csv"
    code = main(["subtract", "--in", str(rec), "--cal", str(cal), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: calibration {cal}: f1_hz must be finite, got inf\n"
    assert not out.exists()


# A subnormal f1 is what "calibrate --f1 1e-320" would write; calibrate itself
# rejects it (test_calibrate_rejects_what_subtract_would), so it is written here.
@pytest.mark.parametrize("make_cal", [
    lambda rec, cal: dataio.write_json(cal, {**GOOD_CAL, "tone_freq_hz": 1e200}),
    lambda rec, cal: dataio.write_json(cal, {**GOOD_CAL, "f1_hz": 1e-320}),
], ids=["huge_tone_in_json", "calibrate_subnormal_f1"])
def test_subtract_non_finite_model_correction_names_the_calibration(capsys, tmp_path, make_cal):
    rec = _tone_record_csv(tmp_path)
    cal = tmp_path / "cal.json"
    make_cal(rec, cal)
    out = tmp_path / "diff.csv"
    code = main(["subtract", "--in", str(rec), "--cal", str(cal), "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: calibration (f1 ") and err.count("\n") == 1
    assert "non-finite model correction" in err
    assert not out.exists()


def test_calibrate_rejects_what_subtract_would(capsys, tmp_path):
    rec = _tone_record_csv(tmp_path)
    cal = tmp_path / "cal.json"
    dataio.write_json(cal, {**GOOD_CAL, "f1_hz": 1e-320})
    assert main(["subtract", "--in", str(rec), "--cal", str(cal), "--out", str(tmp_path / "d")])
    subtract_err = capsys.readouterr().err
    out = tmp_path / "written.json"
    code = main(["calibrate", "--in", str(rec), "--tone-freq", "10", "--f1", "1e-320",
                 "--f2", "68.8", "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == subtract_err and "non-finite model correction at" in subtract_err
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "written.json.manifest.json").exists()


@pytest.mark.parametrize("field", ["tone_freq_hz", "tone_amp_t"])
def test_subtract_negative_tone_in_calibration_exits_2(capsys, tmp_path, field):
    rec = _tone_record_csv(tmp_path)
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps({**GOOD_CAL, field: -GOOD_CAL[field]}))
    out = tmp_path / "diff.csv"
    code = main(["subtract", "--in", str(rec), "--cal", str(cal), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: calibration {cal}: {field} must not be negative (0 means no tone)\n"
    )
    assert not out.exists()


def _check_negative_tone_amplitude_exits_2(capsys, tmp_path, amp):
    rec = _tone_record_csv(tmp_path)
    out = tmp_path / "cal.json"
    code = main(["calibrate", "--in", str(rec), "--tone-freq", "10", "--tone-amp", amp,
                 "--f1", "49.9", "--f2", "68.8", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: tone_amp_t must not be negative (0 means no tone)\n"
    assert not out.exists()
    assert not (tmp_path / "cal.json.manifest.json").exists()


def test_calibrate_negative_tone_amplitude_exits_2(capsys, tmp_path):
    _check_negative_tone_amplitude_exits_2(capsys, tmp_path, "-3")


def test_calibrate_negative_exponent_tone_amplitude_exits_2(capsys, tmp_path):
    # An exponent form is a value too, not an unknown flag.
    _check_negative_tone_amplitude_exits_2(capsys, tmp_path, "-1e-3")


@pytest.mark.parametrize("flags, field", [
    (["--tone-freq", "10", "--tone-amp", "-3"], "tone_amp_t"),
    (["--tone-freq", "-10"], "tone_freq_hz"),
], ids=["tone_amp", "tone_freq"])
def test_calibrate_checks_its_flags_before_reading_the_record(capsys, tmp_path, flags, field):
    # Common noise alone fails the tone gate; the bad flag is reported first.
    common = np.random.default_rng(13).normal(0, 1e-12 * math.sqrt(FS / 2), 8192)
    rec = tmp_path / "noise.csv"
    dataio.write_record_csv(rec, TwoChannelRecord(FS, common, common))
    out = tmp_path / "cal.json"
    code = main(["calibrate", "--in", str(rec), *flags, "--f1", "50", "--f2", "60",
                 "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {field} must not be negative (0 means no tone)\n"
    assert not out.exists()
    assert not (tmp_path / "cal.json.manifest.json").exists()


@pytest.fixture(scope="module")
def out_of_range_inputs(tmp_path_factory):
    """A record whose channel spectra overflow, and a series whose tesla scale is subnormal."""
    base = tmp_path_factory.mktemp("range")
    cfg = base / "sim.json"
    write_sim_config(cfg, seed=41, duration=10.0)
    rec = base / "rec.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(rec)]) == EXIT_OK
    record = dataio.read_record_csv(rec)
    huge = base / "huge.csv"  # peaks near 1.9e305
    dataio.write_record_csv(huge, TwoChannelRecord(
        FS, np.ldexp(record.top_t, 1050), np.ldexp(record.bottom_t, 1050)))
    cal = base / "cal.json"
    dataio.write_json(cal, GOOD_CAL)
    t = np.arange(8192) / FS
    x = np.sin(2 * np.pi * 10.0 * t) + np.random.default_rng(3).normal(0, 1e-3, 8192)
    series = base / "series.csv"  # needs a tesla scale near 1.4e-318
    dataio.write_series_csv(series, FS, np.ldexp(x, 1020))
    return {"huge": huge, "cal": cal, "series": series}


@pytest.mark.parametrize("command, message", [
    (["subtract", "--in", "huge", "--cal", "cal"], "the difference overflows"),
    (["calibrate", "--in", "huge", "--tone-freq", "10", "--f1", "49.9", "--f2", "68.8"],
     "the top channel's spectrum overflows"),
    (["psd", "--in", "series", "--calibrate-tone", "10:16e-12"], "tesla scale 1.4"),
], ids=["subtract", "calibrate", "psd"])
def test_out_of_range_magnitude_exits_2_with_one_error_line(
    tmp_path, out_of_range_inputs, command, message
):
    # A separate interpreter, so that stderr holds any numpy warning as users see it.
    argv = [str(out_of_range_inputs.get(word, word)) for word in command]
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(serfkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "serfkit", *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.startswith(f"error: {message}")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_simulate_negative_seed_exits_2(capsys, tmp_path):
    cfg = write_sim_config(tmp_path / "sim.json", duration=10.0)
    out = tmp_path / "rec.csv"
    code = main(["simulate", "--config", str(cfg), "--seed", "-1", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        (["simulate"], {"sample_rate_hz": FS, "duration_s": 1.0},
         "simulate config {cfg}: record of 1000 samples too short, need 4096"),
        (GAS_SOLVE, {"broaden_he_ghz_per_amg": -1},
         "coefficient config {cfg}: broadening coefficients must be positive"),
        (GAS_SOLVE, {"reference_freq_hz": 3.9e14},
         "coefficient config {cfg}: unknown keys reference_freq_hz"),
    ],
    ids=["simulate_too_short", "gas_solve_negative_broadening", "gas_solve_reference_freq"],
)
def test_config_rejected_by_its_dataclass_names_the_file(capsys, tmp_path, command, config,
                                                         message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


def _phase_points_csv(tmp_path):
    freqs = np.arange(5.0, 201.0, 5.0)
    phases = phase_difference(freqs, 49.9, 68.8)
    path = tmp_path / "phase.csv"
    path.write_text("freq_hz,phase_rad\n" + "".join(f"{f},{p}\n" for f, p in zip(freqs, phases)))
    return path


@pytest.mark.parametrize(
    "command, clash, message",
    [
        ("nmr-estimate", ["--distance-m", "0.5"],
         "--config sets every sample field; do not also give --distance-m"),
        ("calibrate", ["--f1", "40", "--f2", "60"],
         "--phase-points fits f1 and f2; do not also give --f1 or --f2"),
    ],
    ids=["nmr_estimate_distance", "calibrate_bandwidths"],
)
def test_input_that_would_be_ignored_exits_2(capsys, tmp_path, command, clash, message):
    sample = tmp_path / "sample.json"
    dataio.write_json(sample, {
        "volume_m3": 200e-9, "spin_density_per_m3": 6.7e28, "natural_abundance": 1.0,
        "gyromag_rad_s_t": 2.675e8, "spin": 0.5, "prepol_field_t": 2.0,
        "temperature_k": 300.0, "distance_m": 0.01,
    })
    base = {
        "nmr-estimate": ["--config", str(sample)],
        "calibrate": ["--in", str(_tone_record_csv(tmp_path)), "--tone-freq", "10",
                      "--phase-points", str(_phase_points_csv(tmp_path))],
    }[command]
    out = tmp_path / "out.json"
    assert main([command, *base, *clash, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert main([command, *base, "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize(
    "body, message",
    [
        ("resonance_hz,hwhm_hz\n20,11\nnan,12\n80,15\n", "resonance_hz must be finite, got nan"),
        ("resonance_hz,hwhm_hz\n20,11\n40,inf\n80,15\n", "hwhm_hz must be finite, got inf"),
        ("resonance_hz,hwhm_hz,weight\n20,11,1\n40,12,inf\n80,15,1\n",
         "weight must be finite, got inf"),
    ],
    ids=["nan_resonance", "inf_width", "inf_weight"],
)
def test_fit_serf_non_finite_point_exits_2(capsys, tmp_path, body, message):
    path = tmp_path / "pts.csv"
    path.write_text(body)
    out = tmp_path / "serf.json"
    assert main(["fit-serf", "--in", str(path), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}: row 2: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--nuclear-spin", "0.7"], "nuclear spin must be a positive half-integer, got 0.7"),
        (["--nuclear-spin", "nan"], "nuclear spin must be a positive half-integer, got nan"),
        (["--slowing-q", "-6"], "slowing_q must be finite and positive, got -6"),
        (["--slowing-q", "nan"], "slowing_q must be finite and positive, got nan"),
        (["--slowing-q", "inf"], "slowing_q must be finite and positive, got inf"),
        (["--slowing-q", "1e300"],
         "q=1e+300 and I=1.5 put the broadening factor beyond the float range"),
        (["--nuclear-spin", "1e200"],
         "q=6 and I=1e+200 put the broadening factor beyond the float range"),
    ],
    ids=["spin_not_half_integer", "nan_spin", "negative_q", "nan_q", "inf_q", "huge_q",
         "huge_spin"],
)
def test_fit_serf_bad_spin_or_slowing_factor_exits_2(capsys, tmp_path, option, message):
    res = np.arange(20.0, 201.0, 20.0)
    widths = 10.45 + 2 * math.pi * 10.0 * 8.6e-6 * res**2
    path = tmp_path / "pts.csv"
    path.write_text("resonance_hz,hwhm_hz\n" + "".join(f"{f},{w}\n" for f, w in zip(res, widths)))
    out = tmp_path / "serf.json"
    assert main(["fit-serf", "--in", str(path), *option, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "option, code, message",
    [
        (["--vbar", "5e-324"], EXIT_VALIDATION, "error: number density for T_SE 8.6e-06 s, vbar"
         " 4.94066e-324 m/s and sigma_se 2e-14 cm^2 is out of float range"),
        (["--sigma-se", "1e-310"], EXIT_VALIDATION, "error: number density for T_SE 8.6e-06 s,"
         " vbar 500 m/s and sigma_se 1e-310 cm^2 is out of float range"),
        (["--intrinsic", "1e308"], EXIT_FIT_FAILURE,
         "fit failed: residual sum of squares beyond the float range"),
        (["--intrinsic", "1.7976931348623157e308"], EXIT_FIT_FAILURE,
         "fit failed: residual sum of squares beyond the float range"),
        (["--slowing-q", "4"], EXIT_VALIDATION, "error: slowing factor q=4 for I=1.5 leaves no"
         " spin-exchange broadening to fit T_SE from"),
    ],
    ids=["subnormal_vbar", "tiny_sigma_se", "huge_intrinsic", "largest_intrinsic",
         "q_at_2i_plus_1"],
)
def test_fit_serf_result_beyond_float_range_exits_cleanly(capsys, tmp_path, option, code, message):
    res = np.arange(20.0, 201.0, 20.0)
    widths = 10.45 + 2 * math.pi * 10.0 * 8.6e-6 * res**2
    path = tmp_path / "pts.csv"
    path.write_text("resonance_hz,hwhm_hz\n" + "".join(f"{f},{w}\n" for f, w in zip(res, widths)))
    out = tmp_path / "serf.json"
    assert main(["fit-serf", "--in", str(path), *option, "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--distance-m", "1e103"], "dipole field at 1e+103 m is out of float range"),
        (["--temperature-k", "1e-320"],
         "thermal polarization at 9.99989e-321 K is out of float range"),
        (["--temperature-k", "inf"], "temperature_k must be finite, got inf"),
        (["--temperature-k", "nan"], "temperature_k must be finite, got nan"),
        (["--prepol-t", "inf"], "prepol_field_t must be finite, got inf"),
        (["--distance-m", "inf"], "distance_m must be finite, got inf"),
        (["--volume-ul=-inf"], "volume_m3 must be finite, got -inf"),
        (["--volume-ul", "-inf"], "volume_m3 must be finite, got -inf"),
    ],
    ids=["distance_cubed_overflows", "temperature_underflows", "inf_temperature",
         "nan_temperature", "inf_prepol", "inf_distance", "-inf_volume", "-inf_volume_apart"],
)
def test_nmr_estimate_out_of_float_range_exits_2(capsys, tmp_path, option, message):
    out = tmp_path / "est.json"
    assert main(["nmr-estimate", *option, "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["missing_directory", "existing_directory"])
def test_uncreatable_output_names_the_given_path(capsys, tmp_path, kind):
    # The temp file beside the output cannot be made, or cannot replace it.
    rec = _tone_record_csv(tmp_path)
    out = tmp_path / "psd.csv"
    if kind == "missing_directory":
        out = tmp_path / "missing" / "psd.csv"
    else:
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(["psd", "--in", str(rec), "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"'{out}'" in captured.err
    assert ".tmp-" not in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_manifest_hashes_the_input_that_the_output_replaces(tmp_path):
    rec = _tone_record_csv(tmp_path)
    original = dataio.sha256_file(rec)
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(GOOD_CAL))
    assert main(["subtract", "--in", str(rec), "--cal", str(cal), "--out", str(rec)]) == EXIT_OK
    manifest = json.loads(Path(f"{rec}.manifest.json").read_text())
    assert dataio.sha256_file(rec) != original
    assert manifest["inputs"][0] == {"path": str(rec), "sha256": original}


@pytest.mark.parametrize(
    "row, message",
    [("20,nan", "phase_rad must be finite, got nan"), ("20,4", "|phase_rad| must be below pi")],
    ids=["nan_phase", "phase_out_of_range"],
)
def test_phase_fit_rejected_point_names_file_and_row(capsys, tmp_path, row, message):
    path = _phase_points_csv(tmp_path)
    lines = path.read_text().splitlines()
    lines[4] = row  # the fourth data row
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "phase.json"
    assert main(["phase-fit", "--in", str(path), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}: row 4: {message}\n"
    assert not out.exists()


def test_psd_bottom_channel_of_single_series_exits_2(capsys, tmp_path):
    series = tmp_path / "diff.csv"
    dataio.write_series_csv(series, FS, np.random.default_rng(3).normal(0, 1e-15, 8192))
    out = tmp_path / "psd.csv"
    args = ["psd", "--in", str(series), "--out", str(out)]
    assert main([*args, "--channel", "bottom"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {series}: a t_s,value_t series has no bottom channel\n"
    )
    assert not out.exists()
    assert main([*args, "--channel", "top"]) == EXIT_OK


def test_demo_manifests_record_the_seed(tmp_path, capsys):
    dirs = [tmp_path / "seed7", tmp_path / "seed8"]
    for seed, out_dir in zip(("7", "8"), dirs):
        assert main(["demo-paper", "--seed", seed, "--out-dir", str(out_dir)]) == EXIT_OK
    manifests = [json.loads((d / "summary.json.manifest.json").read_text()) for d in dirs]
    assert manifests[0]["params"] == {"artifact": "summary.json", "seed": 7}
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]


@pytest.mark.parametrize("option", [[], ["--calibrate-tone", "10:16e-12"]],
                         ids=["plain", "calibrate_tone"])
@pytest.mark.parametrize("amp", [1e-170, 1e160], ids=["tiny", "huge"])
def test_psd_of_a_tiny_or_huge_series_exits_0(capsys, tmp_path, amp, option):
    # Unscaled, the squares of 1e-170 T underflow to 0 and those of 1e160 T overflow.
    rng = np.random.default_rng(6)
    noise = 1e-3 * amp
    tone = amp * np.sin(2 * np.pi * 10.0 * np.arange(8192) / FS)
    series = tmp_path / "series.csv"
    dataio.write_series_csv(series, FS, tone + rng.normal(0, noise, 8192))
    out = tmp_path / "psd.csv"
    code = main(["psd", "--in", str(series), *option, "--band", "20:30", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.err == ""
    floor = json.loads(captured.out)["band_floor_t_sqrthz"]
    expected = noise * math.sqrt(2.0 / FS) * (16e-12 / amp if option else 1.0)
    assert floor == pytest.approx(expected, rel=0.2, abs=0)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_psd_of_a_non_finite_series_exits_2(capsys, tmp_path, bad):
    x = np.random.default_rng(4).normal(0, 1e-15, 8192)
    x[100] = float(bad)
    series = tmp_path / "series.csv"
    dataio.write_series_csv(series, FS, x)
    out = tmp_path / "psd.csv"
    code = main(["psd", "--in", str(series), "--band", "20:30", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: series contains non-finite samples\n"
    assert not out.exists()


@pytest.mark.parametrize("n, warning", [
    (8191, "warning: record length 8191 has the prime factor 8191, which makes its FFTs slow;"
           " the nearest 5-smooth length at or below it is 8100\n"),
    (60000, ""),
], ids=["prime", "smooth"])
def test_calibrate_and_subtract_warn_on_a_slow_fft_length(capsys, tmp_path, n, warning):
    rec = _tone_record_csv(tmp_path, n)
    cal = tmp_path / "cal.json"
    code = main(["calibrate", "--in", str(rec), "--tone-freq", "10", "--f1", "49.9",
                 "--f2", "68.8", "--out", str(cal)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.err == warning
    assert json.loads(captured.out) == json.loads(cal.read_text())
    diff = tmp_path / "diff.csv"
    assert main(["subtract", "--in", str(rec), "--cal", str(cal), "--out", str(diff)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == warning
    assert json.loads(captured.out)["out"] == str(diff)


def _slow_fft_warning(n):
    """The expected stderr of the FFT-length check, by brute force."""
    divisors = {d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)}
    largest = max(d for d in divisors if d > 1 and all(d % q for q in range(2, math.isqrt(d) + 1)))
    if largest <= 1000:
        return ""

    def five_smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    smooth = next(m for m in range(n, 0, -1) if five_smooth(m))
    return (f"warning: record length {n} has the prime factor {largest}, which makes its FFTs"
            f" slow; the nearest 5-smooth length at or below it is {smooth}\n")


def test_slow_fft_length_warning_matches_brute_force(capsys):
    for n in [*range(2, 5001), 1009 * 1013, 2 * 8191, 3_600_001]:
        _warn_slow_fft_length(n)
        assert capsys.readouterr().err == _slow_fft_warning(n), n


@pytest.mark.parametrize("amp", [1e200, 1e-165], ids=["huge", "tiny"])
def test_subtract_rms_of_a_huge_or_tiny_difference_is_finite(tmp_path, amp):
    # Unscaled, the difference's squares overflow to inf or underflow to 0.
    cfg = tmp_path / "sim.json"
    dataio.write_json(cfg, {"sample_rate_hz": FS, "duration_s": 10.0, "seed": 3,
                            "tones": [[10.0, amp, 0.0]],
                            "noise": {"sensor_asd_t_sqrthz": 1e-15 * amp}})
    rec, cal, diff = tmp_path / "rec.csv", tmp_path / "cal.json", tmp_path / "diff.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(rec)]) == EXIT_OK
    assert main(["calibrate", "--in", str(rec), "--tone-freq", "10", "--f1", "49.9",
                 "--f2", "68.8", "--out", str(cal)]) == EXIT_OK
    # A separate interpreter, so that stderr holds any numpy warning as users see it.
    env = dict(os.environ, PYTHONPATH=str(Path(serfkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "serfkit", "subtract", "--in", str(rec), "--cal", str(cal),
         "--out", str(diff)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    rms = json.loads(proc.stdout)["rms_t"]
    _, values = dataio.read_series_csv(diff)
    peak = np.abs(values).max()
    assert math.isfinite(rms)
    expected = peak * math.sqrt(np.mean((values / peak) ** 2))
    assert rms == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("coeffs, message", [
    ({"shift_he_ghz_per_amg": math.nan}, "shift_he_ghz_per_amg must be finite, got nan"),
    ({"shift_n2_ghz_per_amg": math.inf}, "shift_n2_ghz_per_amg must be finite, got inf"),
    ({"broaden_he_ghz_per_amg": math.inf}, "broaden_he_ghz_per_amg must be finite, got inf"),
], ids=["nan_shift_he", "inf_shift_n2", "inf_broaden_he"])
def test_gas_solve_non_finite_coefficient_names_the_field(capsys, tmp_path, coeffs, message):
    cfg = tmp_path / "coeffs.json"
    cfg.write_text(json.dumps(coeffs))
    out = tmp_path / "comp.json"
    code = main(["gas-solve", "--shift-ghz", "1.916", "--width-ghz", "31.878",
                 "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: coefficient config {cfg}: {message}\n"
    assert captured.out == "" and not out.exists()


def test_gas_solve_non_finite_densities_exit_2(capsys, tmp_path):
    # Broadening this weak puts about 5e309 amg of each gas under a 10 GHz width.
    cfg = tmp_path / "coeffs.json"
    cfg.write_text(json.dumps({"broaden_he_ghz_per_amg": 1e-300, "broaden_n2_ghz_per_amg": 1e-300}))
    out = tmp_path / "comp.json"
    code = main(["gas-solve", "--shift-ghz", "1", "--width-ghz", "1e10", "--config", str(cfg),
                 "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: solved densities (he=inf, n2=inf) amg leave the float range\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("band, shown", [
    ("1:inf", "1:inf"), ("-inf:5", "-inf:5"), ("nan:5", "nan:5"), ("1:-inf", "1:-inf"),
])
def test_psd_non_finite_band_edge_exits_2_before_reading_the_record(capsys, tmp_path, band, shown):
    out = tmp_path / "psd.csv"
    code = main(["psd", "--in", str(tmp_path / "missing.csv"), "--band", band, "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: band edges must be finite, got {shown}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("option, value, code", [
    ("--band", "-5:10", EXIT_OK),
    ("--band", "-inf:10", EXIT_VALIDATION),
    ("--calibrate-tone", "-10:1e-12", EXIT_VALIDATION),
    ("--calibrate-tone", "-1e+308:-5e-324", EXIT_VALIDATION),
    ("--calibrate-tone", "-.5:+.5E3", EXIT_VALIDATION),
])
def test_pair_with_a_leading_minus_reads_the_same_in_either_spelling(
        capsys, tmp_path, option, value, code):
    rec = _tone_record_csv(tmp_path)
    runs = []
    for spelling in ([option, value], [f"{option}={value}"]):
        out = tmp_path / "psd.csv"
        runs.append((main(["psd", "--in", str(rec), *spelling, "--out", str(out)]),
                     capsys.readouterr()))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    assert runs[0][0] == code


@pytest.mark.parametrize("argv", [["--band", "-x"], ["-x"], ["--band", "-5:"]])
def test_flag_like_psd_arguments_stay_usage_errors(capsys, tmp_path, argv):
    out = tmp_path / "psd.csv"
    assert main(["psd", "--in", str(tmp_path / "rec.csv"), *argv, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "subtract", "psd"])
def test_record_with_a_nan_cell_exits_2(capsys, tmp_path, command):
    rec = _tone_record_csv(tmp_path)
    lines = rec.read_text().splitlines(keepends=True)
    t, _, bottom = lines[100].split(",")
    lines[100] = f"{t},nan,{bottom}"
    rec.write_text("".join(lines))
    cal = tmp_path / "cal.json"
    dataio.write_json(cal, GOOD_CAL)
    options = {
        "calibrate": ["--tone-freq", "10", "--f1", "49.9", "--f2", "68.8"],
        "subtract": ["--cal", str(cal)],
        "psd": [],
    }[command]
    out = tmp_path / "out"
    code = main([command, "--in", str(rec), *options, "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: record contains non-finite samples\n"
    assert captured.out == "" and not out.exists()


def _result_case(tmp_path, command):
    """``command``'s arguments, the result dataclass it reports, and the keys it adds."""
    path = tmp_path / "in.csv"
    if command in ("fit-absorption", "fit-response"):
        freqs = np.linspace(70.0, 170.0, 300)
        noise = np.random.default_rng(2).normal(0.0, 1e-3, len(freqs))
        dataio._write_csv(path, ("freq_hz", "value"),
                          (freqs, eval_lorentzian(120.0, 10.45, 1.0, 0.0, freqs) + noise))
        fit = {"fit-absorption": lineshape.fit_lorentzian,
               "fit-response": lineshape.fit_response_curve}[command]
        return ["--in", str(path)], fit(dataio.read_sweep_csv(path)), {}
    if command == "fit-serf":
        res = np.arange(20.0, 201.0, 20.0)
        widths = (10.45 + 2 * math.pi * 10.0 * 8.6e-6 * res**2) * (1 + 0.01 * np.sin(res))
        dataio._write_csv(path, ("resonance_hz", "hwhm_hz"), (res, widths))
        fit = serf.fit_tse(dataio.read_linewidth_points_csv(path))
        return ["--in", str(path)], fit, {"n_cm3": serf.number_density(fit.t_se_s)}
    if command == "phase-fit":
        freqs = np.arange(5.0, 201.0, 5.0)
        phases = phase_difference(freqs, 49.9, 68.8) + 0.003 * np.cos(freqs)
        dataio._write_csv(path, ("freq_hz", "phase_rad"), (freqs, phases))
        return ["--in", str(path)], fit_phase_model(dataio.read_phase_points_csv(path)), {}
    if command == "gas-solve":
        comp = cellchem.solve_composition(1.9, 31.9)
        return ["--shift-ghz", "1.9", "--width-ghz", "31.9"], comp, {}
    rec = _tone_record_csv(tmp_path)
    ratio = amplitude_ratio(dataio.read_record_csv(rec), 10.0)
    return (["--in", str(rec), "--tone-freq", "10", "--tone-amp", "16e-12", "--f1", "49.9",
             "--f2", "68.8"], GradCalibration(ratio, 49.9, 68.8, 10.0, 16e-12), {})


@pytest.mark.parametrize("command", ["fit-absorption", "fit-response", "fit-serf", "phase-fit",
                                     "gas-solve", "calibrate"])
def test_result_json_is_the_dataclass_without_its_covariance(capsys, tmp_path, command):
    argv, result, added = _result_case(tmp_path, command)
    expected = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
                if f.name != "covariance"}
    out = tmp_path / "result.json"
    assert main([command, *argv, "--out", str(out)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {**expected, **added}
    assert json.loads(out.read_text()) == {**expected, **added}
