"""CSV/JSON round-trip and atomic-write tests."""

import os
import tracemalloc

import numpy as np
import pytest

from serfkit import dataio
from serfkit.errors import InvalidParameterError, ValidationError
from serfkit.gradiometer import GradCalibration, PhasePoint
from serfkit.lineshape import FrequencySweep
from serfkit.records import TwoChannelRecord
from serfkit.serf import LinewidthPoint


def test_sweep_round_trip(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep = FrequencySweep(np.linspace(1.0, 2.0, 7), np.linspace(-1.0, 1.0, 7) ** 3)
    dataio._write_csv(path, ("freq_hz", "value"), (sweep.freqs_hz, sweep.values))
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
    path.write_text("resonance_hz,hwhm_hz,weight\n20,11,1.0\n40,12,0.5\n")
    assert dataio.read_linewidth_points_csv(path)[0] == LinewidthPoint(20.0, 11.0, 1.0)
    path.write_text("resonance_hz,hwhm_hz\n20,11\n40,12\n")
    assert dataio.read_linewidth_points_csv(path)[1] == LinewidthPoint(40.0, 12.0)
    # The weight column is all or nothing.
    path.write_text("resonance_hz,hwhm_hz,weight\n20,11,1.0\n40,12,0.5\n80,15\n")
    with pytest.raises(InvalidParameterError, match=":4: expected 3 columns, got 2"):
        dataio.read_linewidth_points_csv(path)


def test_phase_points_round_trip(tmp_path):
    path = tmp_path / "phase.csv"
    points = [PhasePoint(5.0, -0.01), PhasePoint(10.0, -0.05)]
    dataio._write_csv(
        path, ("freq_hz", "phase_rad"), ([p.freq_hz for p in points], [p.phase_rad for p in points])
    )
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
    dataio._write_csv(path, ("freq_hz", "value"), (sweep.freqs_hz, sweep.values))
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
    with pytest.raises(InvalidParameterError, match=":3: expected 3 columns, got 4"):
        dataio.read_linewidth_points_csv(path)


def _no_fast_parse(*args, **kwargs):
    raise ValueError("fast parse disabled")


@pytest.mark.parametrize(
    "header, body, message",
    [
        ("resonance_hz,hwhm_hz,weight", "20,11\n40,12\n", ":2: expected 3 columns, got 2"),
        ("resonance_hz,hwhm_hz,weight,note", "20,11\n40,12\n",
         ":2: expected 3 to 4 columns, got 2"),
    ],
    ids=["all-rows", "extra-header-column"],
)
@pytest.mark.parametrize("fast_parse", [True, False], ids=["loadtxt", "row-parser"])
def test_linewidth_row_without_its_weight_rejected(
    tmp_path, monkeypatch, header, body, message, fast_parse
):
    path = tmp_path / "pts.csv"
    path.write_text(header + "\n" + body)
    if not fast_parse:
        monkeypatch.setattr(np, "loadtxt", _no_fast_parse)
    with pytest.raises(InvalidParameterError) as err:
        dataio.read_linewidth_points_csv(path)
    assert str(err.value) == f"{path}{message}"


READERS = {
    "sweep": ("freq_hz,value", dataio.read_sweep_csv),
    "record": ("t_s,top_t,bottom_t", dataio.read_record_csv),
    "phase": ("freq_hz,phase_rad", dataio.read_phase_points_csv),
    "linewidth": ("resonance_hz,hwhm_hz,weight", dataio.read_linewidth_points_csv),
}
RECORD_ROWS = ["0,1e-12,2e-12", "0.001,3e-12,4e-12", "0.002,5e-12,6e-12"]


def _snapshot(obj):
    """Field types and exact values of a reader result (lists element-wise)."""
    if isinstance(obj, list):
        return [_snapshot(o) for o in obj]
    return {
        k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
        else (type(v).__name__, repr(v))
        for k, v in vars(obj).items()
    }


def _outcome(read, path):
    try:
        return _snapshot(read(path))
    except ValidationError as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize(
    "kind, body, header",
    [
        ("phase", "1,0.1\n\n2,0.2\n\n", None),
        ("phase", "1,0.1\n  \t \n2,0.2\n", None),
        ("record", "\r\n".join(RECORD_ROWS) + "\r\n", None),
        ("record", "\n".join(RECORD_ROWS[:1] + [" ,  , "] + RECORD_ROWS[1:]) + "\n", None),
        ("phase", '"1",0.1\n2,"0.2"\n', None),
        ("phase", "1_0,0.1\n", None),
        ("phase", "0x10,0.1\n", None),
        ("phase", "1,0.1,\n", None),
        ("linewidth", "20,11,\n", None),
        ("phase", "1,\n", None),
        ("phase", "1,0.1,9\n2,0.2,9\n", None),
        ("phase", "1\n2\n", None),
        ("linewidth", " nan ,11,1\ninf,12, 2 \n", None),
        ("linewidth", "-Infinity,11\n", None),
        ("phase", "5,0.25\n", None),
        ("phase", "", None),
        ("phase", "1,0.1,7\n2,0.2,8\n", "freq_hz,phase_rad,extra"),
        ("phase", "1,0.1\n2,0.2\n", "freq_hz,phase_rad,extra"),
        ("sweep", "1,0\n2,1\n3,4\n4,9\n5,16\n", None),
        ("linewidth", "20,11,1.0\n40,12,0.5\n", None),
        ("linewidth", "20,11\n40,12\n", None),
        ("linewidth", "20,11,1.0\n40,12\n", None),
        ("linewidth", "-Infinity,11\n", "resonance_hz,hwhm_hz"),
        ("linewidth", "20,11,300\n40,12,1\n", "resonance_hz,hwhm_hz,note"),
        ("linewidth", "20,11,1.0,7\n40,12,0.5\n", "resonance_hz,hwhm_hz,weight,note"),
    ],
    ids=[
        "blank-lines", "whitespace-line", "crlf", "whitespace-cells", "quoted",
        "underscore", "hex", "trailing-comma", "trailing-comma-optional", "empty-cell",
        "too-many-columns", "too-few-columns",
        "nan-inf", "minus-infinity", "single-row", "header-only", "extra-header-column",
        "extra-header-column-unused", "sweep", "weights", "no-weights", "some-weights",
        "minus-infinity-unweighted", "note-not-weight", "weight-and-note",
    ],
)
def test_readers_match_row_parser(tmp_path, monkeypatch, kind, body, header):
    default_header, read = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write((header or default_header) + "\n" + body)
    got = _outcome(read, path)

    def no_fast_parse(*args, **kwargs):
        raise ValueError("fast parse disabled")

    monkeypatch.setattr(np, "loadtxt", no_fast_parse)
    assert got == _outcome(read, path)
    if isinstance(got, list):
        for point in got:
            assert all(t in ("float", "NoneType") for t, _ in point.values())


@pytest.mark.parametrize(
    "columns",
    [
        ([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.1],
         np.array([0.1, -0.0, 1 / 3, -5e-324, 2.0**60, -np.inf, np.nan])),
        ([1.5], [-0.0], [np.nan]),
        (np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.1]),),
    ],
    ids=["special-values", "one-row", "one-column"],
)
def test_write_csv_matches_per_value_format(tmp_path, columns):
    path = tmp_path / "out.csv"
    header = [f"c{i}" for i in range(len(columns))]
    dataio._write_csv(path, header, columns)
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in zip(*columns)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _linewidth_tuple(path):
    """Linewidth points as a tuple, which the extra-column test compares point by point."""
    return tuple(dataio.read_linewidth_points_csv(path))


@pytest.mark.parametrize(
    "header, rows, read",
    [
        ("freq_hz,value", ["1,0", "2,1", "3,4", "4,9", "5,16"], dataio.read_sweep_csv),
        ("t_s,top_t,bottom_t", RECORD_ROWS, dataio.read_record_csv),
        ("t_s,value_t", ["0,1e-12", "0.001,2e-12", "0.002,3e-12"], dataio.read_series_csv),
        ("resonance_hz,hwhm_hz", ["20,11", "40,12", "80,15"], _linewidth_tuple),
        ("resonance_hz,hwhm_hz,weight", ["20,11,1", "40,12,0.5", "80,15,2"], _linewidth_tuple),
    ],
    ids=["sweep", "record", "series", "linewidth", "linewidth-weighted"],
)
@pytest.mark.parametrize("extra_rows", ["one", "all"])
def test_extra_column_reads_as_without_it(tmp_path, header, rows, read, extra_rows):
    # One longer row among shorter ones goes through the row parser; a full
    # extra column goes through np.loadtxt. Both keep the leading columns.
    clean = tmp_path / "clean.csv"
    clean.write_text(header + "\n" + "\n".join(rows) + "\n")
    marked = [r + ",7" if extra_rows == "all" or i == 1 else r for i, r in enumerate(rows)]
    noted = tmp_path / "noted.csv"
    noted.write_text(header + ",note\n" + "\n".join(marked) + "\n")

    def values(result):
        items = result if isinstance(result, tuple) else vars(result).values()
        return [np.asarray(v).tolist() for v in items]

    assert values(read(noted)) == values(read(clean))


def _whole_table_csv(header, columns) -> bytes:
    """The writer's output as one %-format of the whole table."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return (",".join(header) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())).encode()


@pytest.mark.parametrize(
    "n_rows",
    [0, 1, dataio._WRITE_BLOCK_ROWS - 1, dataio._WRITE_BLOCK_ROWS, dataio._WRITE_BLOCK_ROWS + 1],
)
def test_block_writes_match_whole_table_format(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    columns = [np.arange(n_rows) / 1000.0, rng.normal(0.0, 1e-12, n_rows),
               rng.normal(0.0, 1e-12, n_rows)]
    header = ("t_s", "top_t", "bottom_t")
    path = tmp_path / "out.csv"
    dataio._write_csv(path, header, columns)
    assert path.read_bytes() == _whole_table_csv(header, columns)


@pytest.mark.parametrize(
    "n_rows",
    [1, dataio._WRITE_BLOCK_ROWS - 1, dataio._WRITE_BLOCK_ROWS, dataio._WRITE_BLOCK_ROWS + 1],
)
def test_series_write_matches_whole_table_format(tmp_path, n_rows):
    fs = 997.0
    values = np.random.default_rng(n_rows).normal(0.0, 1e-12, n_rows)
    path = tmp_path / "series.csv"
    dataio.write_series_csv(path, fs, values)
    header = ("t_s", "value_t")
    assert path.read_bytes() == _whole_table_csv(header, [np.arange(n_rows) / fs, values])


def test_series_write_memory_is_bounded(tmp_path):
    # 200 k rows, so that the fixed cost of one formatted block stays well
    # below half of the values array.
    values = np.random.default_rng(6).normal(0.0, 1e-12, 200_000)
    tracemalloc.start()
    try:
        dataio.write_series_csv(tmp_path / "series.csv", 1000.0, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * values.nbytes


def test_record_write_memory_is_bounded(tmp_path):
    n = 300_000
    rng = np.random.default_rng(5)
    record = TwoChannelRecord(1000.0, rng.normal(0.0, 1e-12, n), rng.normal(0.0, 1e-12, n))
    input_bytes = record.top_t.nbytes + record.bottom_t.nbytes
    tracemalloc.start()
    try:
        dataio.write_record_csv(tmp_path / "rec.csv", record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * input_bytes
