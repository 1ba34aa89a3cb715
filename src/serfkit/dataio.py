"""CSV/JSON readers and writers with atomic output.

Series go to CSV, parameters and results to JSON. Floats are written with 17
significant digits (``%.17g``) so every value round-trips exactly. CSV rows
are formatted and written in fixed-size blocks, so a write needs little
memory beyond the columns themselves.

A CSV body is parsed by ``np.loadtxt`` in one call. Any input it rejects, or
parses to the wrong number of columns, goes through the row parser, which
accepts what Python's ``float`` accepts and reports errors as ``path:line``.

Each reader imports the one type it builds when it is called, so that a
command loads only the numeric modules it runs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, InvalidParameterError, ValidationError

# Rows formatted per write by ``_write_csv``; bounds its extra memory.
_WRITE_BLOCK_ROWS = 4096


@contextmanager
def _naming(path):
    """Re-raise an ``OSError`` with ``path`` as its file name."""
    try:
        yield
    except OSError as err:
        raise type(err)(err.errno, err.strerror, path) from None


@contextmanager
def _atomic_file(path):
    """Text handle on a same-directory temp file, renamed over ``path`` on success.

    On any error the temp file is removed, so there are no partial outputs.
    An error creating or renaming the temp file names ``path`` instead.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    with _naming(path):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        with _naming(path):
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write via a same-directory temp file and rename; no partial outputs."""
    with _atomic_file(path) as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), path)


def _parse_json(data: bytes, source):
    """JSON value of UTF-8 ``data``; syntax and encoding errors name ``source``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"{source}: {err}") from None


def _number(value, kind=float):
    """JSON number ``value`` as ``kind``: no bool or string, and no float for an int ``kind``."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise TypeError(f"expected {kind.__name__}, got {json.dumps(value)}")
    return kind(value)


def _floats(value, n: int) -> tuple[float, ...]:
    """``value`` as a tuple of exactly ``n`` floats."""
    out = tuple(_number(v) for v in value)
    if len(out) != n:
        raise ValueError(f"expected {n} values, got {len(out)}")
    return out


def _noise_model(value):
    from .simulator import NoiseModel

    return _from_json(NoiseModel, value, "noise")


# JSON values are read by ``_number`` unless their field is listed here.
_CONVERTERS = {
    "seed": lambda value: _number(value, int),
    "channel_gains": lambda value: _floats(value, 2),
    "tones": lambda value: tuple(_floats(tone, 3) for tone in value),
    "noise": _noise_model,
    "sensor_asd_t_sqrthz": lambda value: (
        _floats(value, 2) if isinstance(value, list) else _number(value)
    ),
}


def _from_json(cls, raw, what: str):
    """Dataclass ``cls`` from a JSON object holding some of its fields.

    Missing fields take the dataclass defaults.

    Raises
    ------
    ConfigError
        Not a JSON object, an unknown key, a missing required field, a
        value that is not a JSON number (``seed``: not an integer), or values ``cls`` rejects.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{what}: not a JSON object")
    fields = dataclasses.fields(cls)
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{what}: unknown keys {', '.join(sorted(unknown))}")
    missing = [
        f.name
        for f in fields
        if f.name not in raw
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{what}: requires {', '.join(missing)}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _CONVERTERS.get(key, _number)(value)
        except ConfigError as err:  # from a nested object, e.g. "noise"
            raise ConfigError(f"{what}: {err}") from None
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"{what}: bad value for {key}: {err}") from None
    try:
        return cls(**values)
    except ValidationError as err:  # from the dataclass's own checks
        raise ConfigError(f"{what}: {err}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{what}: bad value: {err}") from None


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_csv(path, header, columns, sample_rate_hz=None) -> None:
    """Write the columns as rows, ``_WRITE_BLOCK_ROWS`` rows per formatted block.

    Given ``sample_rate_hz``, a first column ``i / sample_rate_hz`` is made
    block by block, so the time axis is never held whole.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with _atomic_file(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _WRITE_BLOCK_ROWS):
            stop = min(start + _WRITE_BLOCK_ROWS, n)
            parts = [c[start:stop] for c in columns]
            if sample_rate_hz is not None:
                parts.insert(0, np.arange(start, stop) / sample_rate_hz)
            block = np.column_stack(parts)
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _read_csv(path, columns, optional=0) -> np.ndarray:
    """The named ``columns`` of a CSV body, as a 2-D float array.

    The last ``optional`` columns are read only when the header names them in
    their place, and then every row must carry them. Header columns after the
    read ones must hold numbers too; they are dropped, and rows may leave
    them out.
    """
    header = csv_header(path)
    names = list(columns)
    if header[: len(names)] != names:
        names = names[: len(names) - optional]
        if header[: len(names)] != names:
            raise InvalidParameterError(
                f"{path}: expected header starting with {','.join(names)}, got {','.join(header)}"
            )
    lo, hi = len(names), len(header)
    try:
        with warnings.catch_warnings():
            # A body without rows is reported by the row parser instead.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, dtype=float,
                ndmin=2, encoding="utf-8",
            )
    except ValueError:
        pass  # The row parser accepts the input or names its bad line.
    else:
        if data.shape[0] and data.shape[1] == hi:
            return data[:, :lo]
    expected = str(lo) if lo == hi else f"{lo} to {hi}"
    rows = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if not lo <= len(row) <= hi:
                    raise InvalidParameterError(
                        f"{path}:{lineno}: expected {expected} columns, got {len(row)}"
                    )
                try:
                    rows.append([float(c) for c in row][:lo])
                except ValueError as err:
                    raise InvalidParameterError(f"{path}:{lineno}: {err}") from None
    except UnicodeDecodeError:
        raise _utf8_error(path) from None
    if not rows:
        raise InvalidParameterError(f"{path}: no data rows")
    return np.array(rows)


def _sample_rate(path, t: np.ndarray) -> float:
    """Sample rate of a time column whose steps all lie within 1 % of the median step."""
    if len(t) < 2:
        raise InvalidParameterError(f"{path}: need at least 2 samples")
    if t[-1] <= t[0]:
        raise InvalidParameterError(f"{path}: time column must be increasing")
    steps = np.diff(t)
    median = float(np.median(steps))
    # A negated "within" test, so that NaN steps count as bad too.
    bad = np.flatnonzero(~(np.abs(steps - median) <= 0.01 * median))
    if len(bad):
        i = bad[0]
        raise InvalidParameterError(
            f"{path}: time column not uniformly sampled: step of {steps[i]:g} s "
            f"after t = {t[i]:g} s, median step {median:g} s"
        )
    return (len(t) - 1) / (t[-1] - t[0])


def read_sweep_csv(path) -> FrequencySweep:
    from .lineshape import FrequencySweep

    data = _read_csv(path, ("freq_hz", "value"))
    return FrequencySweep(freqs_hz=data[:, 0], values=data[:, 1])


def write_record_csv(path, record: TwoChannelRecord) -> None:
    _write_csv(
        path, ("t_s", "top_t", "bottom_t"), (record.top_t, record.bottom_t), record.sample_rate_hz
    )


def read_record_csv(path) -> TwoChannelRecord:
    from .records import TwoChannelRecord

    data = _read_csv(path, ("t_s", "top_t", "bottom_t"))
    rate = _sample_rate(path, data[:, 0])
    return TwoChannelRecord(sample_rate_hz=rate, top_t=data[:, 1], bottom_t=data[:, 2])


def write_series_csv(path, sample_rate_hz: float, values) -> None:
    _write_csv(path, ("t_s", "value_t"), (values,), sample_rate_hz)


def read_series_csv(path) -> tuple[float, np.ndarray]:
    """Single-channel series CSV; returns (sample_rate_hz, values)."""
    data = _read_csv(path, ("t_s", "value_t"))
    return _sample_rate(path, data[:, 0]), data[:, 1]


def csv_header(path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise InvalidParameterError(f"{path}: empty file") from None
        except UnicodeDecodeError:
            raise _utf8_error(path) from None


def _utf8_error(path) -> InvalidParameterError:
    """``path:line`` error for the first line of ``path`` that is not UTF-8.

    A text read decodes whole chunks, so its error gives neither the line
    nor the offset in the file; decoding line by line gives both.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as err:
                return InvalidParameterError(f"{path}:{lineno}: {err}")
    return InvalidParameterError(f"{path}: not UTF-8")


def _points(path, cls, rows: np.ndarray) -> list:
    """``cls(*row)`` for each row; a point ``cls`` rejects names its file and data row."""
    points = []
    for n, row in enumerate(rows.tolist(), start=1):
        try:
            points.append(cls(*row))
        except ValidationError as err:
            raise InvalidParameterError(f"{path}: row {n}: {err}") from None
    return points


def read_linewidth_points_csv(path) -> list[LinewidthPoint]:
    from .serf import LinewidthPoint

    rows = _read_csv(path, ("resonance_hz", "hwhm_hz", "weight"), optional=1)
    return _points(path, LinewidthPoint, rows)


def read_phase_points_csv(path) -> list[PhasePoint]:
    from .gradiometer import PhasePoint

    return _points(path, PhasePoint, _read_csv(path, ("freq_hz", "phase_rad")))


def write_psd_csv(path, psd: PsdEstimate) -> None:
    _write_csv(path, ("freq_hz", "asd_t_sqrthz"), (psd.freqs_hz, psd.asd_t_sqrthz))


def write_calibration_json(path, cal: GradCalibration) -> None:
    write_json(path, dataclasses.asdict(cal))


def read_calibration_json(path) -> GradCalibration:
    from .gradiometer import GradCalibration

    return _from_json(GradCalibration, read_json(path), f"calibration {path}")
