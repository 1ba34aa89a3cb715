"""Check that the tier-1 tests kill every named mutant of ``src/``.

    python3 tools/mutants.py [NAME ...]

Run from the root of a source checkout. Each mutant is a small text edit of
one file under ``src/serfkit``, most of them one line. For each mutant the
script copies ``src/``, ``tests/`` and ``pyproject.toml`` (which holds the
warning filters) to a temporary directory, applies the edit there and runs
the tier-1 suite with ``-x -q``. A mutant that leaves every test passing
survives. The unmutated copy runs first and must pass.

Exit status: 0 when every mutant is killed, 1 when any survives, 2 when the
unmutated suite fails or a mutant's text no longer occurs exactly once in
its file. A full run takes a few minutes; CI runs it as its own step after
tier 1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")

_CAL_LINE = ("    cal = GradCalibration(1.0, f1, f2, tone_freq_hz=args.tone_freq,"
             " tone_amp_t=args.tone_amp)\n")
_READ_LINES = (
    "    record = dataio.read_record_csv(args.in_path)\n"
    "    _warn_slow_fft_length(len(record))\n"
    "    ratio = amplitude_ratio(record, args.tone_freq)\n"
)

# name -> (file under src/serfkit, text that must occur exactly once, its replacement)
MUTANTS = {
    "band_floor_x1e-3": (
        "noisepsd.py",
        "    return float(np.median(asd[keep]))",
        "    return float(np.median(asd[keep])) * 1e-3",
    ),
    "band_floor_x1.2": (
        "noisepsd.py",
        "    return float(np.median(asd[keep]))",
        "    return float(np.median(asd[keep])) * 1.2",
    ),
    "amplitude_ratio_x1.01": (
        "gradiometer.py",
        "    return float(mag_top[k] / mag_bottom[k])",
        "    return float(mag_top[k] / mag_bottom[k]) * 1.01",
    ),
    "sensor_noise_x1.1": (
        "simulator.py",
        "sensor = _shaped_noise(rng, n, fs, sensor_asd)",
        "sensor = _shaped_noise(rng, n, fs, 1.1 * sensor_asd)",
    ),
    "subtract_ignores_phase_flag": (
        "cli.py",
        "diff = subtract(record, cal, phase_correct=args.phase)",
        "diff = subtract(record, cal)",
    ),
    "tone_gate_2x": (
        "noisepsd.py",
        "TONE_MIN_SNR = 10.0",
        "TONE_MIN_SNR = 2.0",
    ),
    "overflow_check_removed": (
        "gradiometer.py",
        "    if not math.isfinite(value):\n        top, bottom",
        "    if False:\n        top, bottom",
    ),
    "subnormal_scale_check_removed": (
        "noisepsd.py",
        "    if scale < sys.float_info.min:",
        "    if False:",
    ),
    # An in-place product rounds a one-bin last block differently from the reference.
    "corrected_multiplies_in_place": (
        "gradiometer.py",
        "    return correction * bins",
        "    return np.multiply(correction, bins, out=bins)",
    ),
    "fit_never_converges_on_a_small_step": (
        "fitting.py",
        "        if np.linalg.norm(step) <= STEP_TOL * (STEP_TOL + np.linalg.norm(p)):",
        "        if False:",
    ),
    # The calibration's checks moved below the read and the tone gate.
    "calibrate_validates_after_the_read": (
        "cli.py",
        _CAL_LINE + _READ_LINES,
        _READ_LINES + _CAL_LINE,
    ),
    # Every command, even --help, would load dataio.
    "cli_imports_dataio_at_module_level": (
        "cli.py",
        "from . import __version__, constants\n",
        "from . import __version__, constants, dataio\n",
    ),
    # A second subtract, or any later call, would find the corrected spectra.
    "subtract_keeps_held_spectra": (
        "gradiometer.py",
        'record._held.pop("spectra", None) or (None,',
        'record._held.get("spectra") or (None,',
    ),
    # The tone bins amplitude_ratio kept at one tone would be read at another.
    "reduction_ratio_ignores_span": (
        "gradiometer.py",
        "    held = record._held.get((start, stop))\n",
        '    held = next((v for key, v in record._held.items() if key != "spectra"), None)\n',
    ),
}


def _source(tree: str, filename: str) -> str:
    with open(os.path.join(tree, "src", "serfkit", filename), encoding="utf-8") as fh:
        return fh.read()


def _apply(tree: str, name: str) -> None:
    filename, old, new = MUTANTS[name]
    text = _source(tree, filename).replace(old, new)
    with open(os.path.join(tree, "src", "serfkit", filename), "w", encoding="utf-8") as fh:
        fh.write(text)


def _tier1_passes(tree: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def _run(name: str | None) -> bool:
    """Whether tier 1 passes on a fresh copy, mutated by ``name`` unless it is None."""
    with tempfile.TemporaryDirectory(prefix="serfkit-mutant-") as tree:
        for item in COPIED:
            src = os.path.join(ROOT, item)
            dst = os.path.join(tree, item)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        if name is not None:
            _apply(tree, name)
        return _tier1_passes(tree)


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(MUTANTS)}",
              file=sys.stderr)
        return 2
    for name in names:
        filename, old, _ = MUTANTS[name]
        count = _source(ROOT, filename).count(old)
        if count != 1:
            print(f"mutant {name}: its text occurs {count} times in {filename}", file=sys.stderr)
            return 2
    if not _run(None):
        print("the unmutated tier-1 suite fails; fix it first", file=sys.stderr)
        return 2
    survivors = []
    for name in names:
        start = time.perf_counter()
        survived = _run(name)
        print(f"{'SURVIVED' if survived else 'killed':8}  {name}  "
              f"({time.perf_counter() - start:.0f} s)", flush=True)
        if survived:
            survivors.append(name)
    print(f"{len(names) - len(survivors)} of {len(names)} mutants killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
