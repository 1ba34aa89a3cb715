"""Float options anywhere in the float range never crash the CLI.

``calibrate``, ``psd``, ``fit-serf``, ``gas-solve`` and ``nmr-estimate`` are
driven with option values drawn from the whole float range: signed zeros,
subnormals, the largest finite floats, infinities and NaN. Each run exits
with 0, 2 or 3 and prints no traceback. After exit 0 its stdout is
standard JSON, with no ``NaN`` or ``Infinity``; after a non-zero exit it
leaves no output, no manifest and nothing on stdout.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serfkit import dataio
from serfkit.cli import main
from serfkit.records import TwoChannelRecord

FS = 1000.0
# The edges of the float range, drawn often, beside floats of any size.
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(),
)
# Each command's options that take floats; a pair option takes "first:second".
OPTIONS = {
    "calibrate": ["--tone-freq", "--tone-amp", "--f1", "--f2"],
    "psd": ["--overlap", "--calibrate-tone", "--band"],
    "fit-serf": ["--nuclear-spin", "--slowing-q", "--intrinsic", "--vbar", "--sigma-se"],
    "gas-solve": ["--shift-ghz", "--width-ghz"],
    "nmr-estimate": ["--volume-ul", "--spin-density", "--abundance", "--prepol-t",
                     "--temperature-k", "--distance-m"],
}
PAIRS = {"--calibrate-tone", "--band"}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Each command's valid arguments, on an 8.192 s record with a 10 Hz tone or on linewidths."""
    work = tmp_path_factory.mktemp("cli_floats")
    n = 8192
    rng = np.random.default_rng(5)
    tone = 1.6e-11 * np.sin(2 * np.pi * 10.0 * np.arange(n) / FS)
    record = TwoChannelRecord(FS, tone + rng.normal(0, 1e-15, n),
                              0.97 * tone + rng.normal(0, 1e-15, n))
    dataio.write_record_csv(work / "rec.csv", record)
    res = np.arange(20.0, 201.0, 20.0)
    widths = 10.45 + 2 * math.pi * 10.0 * 8.6e-6 * res**2
    (work / "pts.csv").write_text(
        "resonance_hz,hwhm_hz\n" + "".join(f"{f},{w}\n" for f, w in zip(res, widths)))
    return {
        "calibrate": ["--in", str(work / "rec.csv"), "--tone-freq", "10", "--f1", "49.9",
                      "--f2", "68.8"],
        "psd": ["--in", str(work / "rec.csv")],
        "fit-serf": ["--in", str(work / "pts.csv")],
        "gas-solve": ["--shift-ghz", "1.916", "--width-ghz", "31.878"],
        "nmr-estimate": [],
        "out": work / "out",
    }


@st.composite
def _overrides(draw, command):
    """``command``'s options, one or two of them overridden by drawn floats."""
    overrides = draw(st.lists(st.sampled_from(OPTIONS[command]), min_size=1, max_size=2,
                              unique=True))
    argv = []
    for option in overrides:
        value = repr(draw(FLOATS))
        if option in PAIRS:
            value += ":" + repr(draw(FLOATS))
        # Either spelling: a value such as -1e+308 or -5:10 is never read as a flag.
        argv += [option, value] if draw(st.booleans()) else [f"{option}={value}"]
    return argv


def _no_constant(name):
    raise ValueError(f"{name} is not standard JSON")


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(data=st.data())
def test_float_options_exit_cleanly(base, command, data):
    argv = data.draw(_overrides(command))
    out = base["out"]
    manifest = out.with_name(out.name + ".manifest.json")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, *base[command], *argv, "--out", str(out)])
    err = stderr.getvalue()
    # Every drawn value parses as a float, so no run is a usage error (64).
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith(("error: ", "fit failed: ")) and err.count("\n") == 1, err
    if code:
        assert not out.exists() and not manifest.exists() and stdout.getvalue() == ""
    else:
        json.loads(stdout.getvalue(), parse_constant=_no_constant)
        out.unlink()
        manifest.unlink()
