"""CSV/JSON round-trip and atomic-write tests."""

import os

import numpy as np
import pytest

from serfkit import dataio
from serfkit.errors import InvalidParameterError
from serfkit.gradiometer import GradCalibration, PhasePoint
from serfkit.lineshape import FrequencySweep
from serfkit.records import TwoChannelRecord
from serfkit.serf import LinewidthPoint


def test_sweep_round_trip(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep = FrequencySweep(np.linspace(1.0, 2.0, 7), np.linspace(-1.0, 1.0, 7) ** 3)
    dataio.write_sweep_csv(path, sweep)
    back = dataio.read_sweep_csv(path)
    assert np.array_equal(back.freqs_hz, sweep.freqs_hz)
    assert np.array_equal(back.values, sweep.values)


def test_record_round_trip(tmp_path):
    path = tmp_path / "rec.csv"
    rng = np.random.default_rng(0)
    rec = TwoChannelRecord(1000.0, rng.normal(0, 1e-12, 64), rng.normal(0, 1e-12, 64))
    dataio.write_record_csv(path, rec)
    back = dataio.read_record_csv(path)
    assert back.sample_rate_hz == pytest.approx(1000.0, rel=1e-9)
    assert np.array_equal(back.top_t, rec.top_t)
    assert np.array_equal(back.bottom_t, rec.bottom_t)


def test_linewidth_points_with_and_without_weight(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(
        "resonance_hz,hwhm_hz,weight\n20,11,1.0\n40,12,0.5\n80,15\n"
    )
    points = dataio.read_linewidth_points_csv(path)
    assert points[0] == LinewidthPoint(20.0, 11.0, 1.0)
    assert points[2].weight is None


def test_phase_points_round_trip(tmp_path):
    path = tmp_path / "phase.csv"
    points = [PhasePoint(5.0, -0.01), PhasePoint(10.0, -0.05)]
    dataio.write_phase_points_csv(path, points)
    assert dataio.read_phase_points_csv(path) == points


def test_calibration_round_trip(tmp_path):
    path = tmp_path / "cal.json"
    cal = GradCalibration(0.99, 49.9, 68.8, tone_freq_hz=10.0, tone_amp_t=16e-12)
    dataio.write_calibration_json(path, cal)
    assert dataio.read_calibration_json(path) == cal


def test_calibration_missing_key(tmp_path):
    path = tmp_path / "cal.json"
    dataio.write_json(path, {"amplitude_ratio": 1.0})
    with pytest.raises(InvalidParameterError):
        dataio.read_calibration_json(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frequency,value\n1,2\n")
    with pytest.raises(InvalidParameterError):
        dataio.read_sweep_csv(path)


def test_bad_number_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq_hz,value\n1,2\n3,not_a_number\n")
    with pytest.raises(InvalidParameterError, match=":3:"):
        dataio.read_sweep_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(InvalidParameterError):
        dataio.read_sweep_csv(path)


def test_seventeen_digit_round_trip(tmp_path):
    path = tmp_path / "sweep.csv"
    values = np.array([np.pi, 1.0 / 3.0, 1e-300, 2.2250738585072014e-308, 0.1])
    sweep = FrequencySweep(np.arange(5.0), values)
    dataio.write_sweep_csv(path, sweep)
    assert np.array_equal(dataio.read_sweep_csv(path).values, values)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    dataio.atomic_write_text(path, "hello")
    assert path.read_text() == "hello"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_failure_leaves_no_partial(tmp_path):
    class Boom:
        def __str__(self):
            raise RuntimeError("boom")

    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        dataio.write_json(path, {"bad": Boom()})
    assert not path.exists()
    assert os.listdir(tmp_path) == []


def test_record_with_time_gap_names_the_gap(tmp_path):
    path = tmp_path / "rec.csv"
    t = np.arange(1000) / 100.0
    t[600:] += 5.0
    rows = [f"{ti},1e-12,2e-12" for ti in t]
    path.write_text("t_s,top_t,bottom_t\n" + "\n".join(rows) + "\n")
    with pytest.raises(InvalidParameterError, match="step of 5.01 s after t = 5.99 s"):
        dataio.read_record_csv(path)


def test_series_with_jittered_time_rejected(tmp_path):
    path = tmp_path / "series.csv"
    t = np.arange(100) / 100.0
    t[40] += 0.0005
    rows = [f"{ti},1e-12" for ti in t]
    path.write_text("t_s,value_t\n" + "\n".join(rows) + "\n")
    with pytest.raises(InvalidParameterError, match="after t = 0.39 s"):
        dataio.read_series_csv(path)


def test_linewidth_row_past_optional_column_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("resonance_hz,hwhm_hz,weight\n20,11,1.0\n40,12,0.5,7\n")
    with pytest.raises(InvalidParameterError, match=":3: expected 2 to 3 columns, got 4"):
        dataio.read_linewidth_points_csv(path)
