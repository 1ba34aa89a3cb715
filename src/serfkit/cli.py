"""Command-line front end tying the analysis pipeline together.

Subcommands: simulate, fit-absorption, gas-solve, fit-response, fit-serf,
psd, calibrate, subtract, phase-fit, nmr-estimate, demo-paper. Every output
file is written atomically and accompanied by a ``<output>.manifest.json``
recording the command, input hashes, seed and tool version.

Exit codes: 0 success, 2 validation error, 3 fit failure, 64 usage error.

Parsing needs no numeric module, so each handler imports the serfkit modules
it runs, and a command loads only those.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, constants
from .errors import FitFailureError, InvalidParameterError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FIT_FAILURE = 3
EXIT_USAGE = 64

DIPOLE_MODEL_NAME = "on_axis_point_dipole_spin_half"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the usage code on bad flags.

    Any negative float, e.g. ``-1e-3`` or ``-inf``, is a value, not a flag,
    and so is a ``first:second`` pair that starts with one, e.g. ``-5:10``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        number = r"((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)"
        self._negative_number_matcher = re.compile(
            rf"^-{number}(:[-+]?{number})?$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _pair(name: str, form: str):
    """argparse type for a ``first:second`` pair of floats, e.g. a band ``lo:hi``."""

    def parse(text: str) -> tuple[float, float]:
        first, sep, second = text.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"{name} must be written {form}")
        try:
            return float(first), float(second)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return parse


def _write_manifest(out_path, command: str, params: dict, inputs, seed) -> None:
    """``inputs`` are ``{"path", "sha256"}`` entries, hashed before the output was written."""
    from . import dataio

    hashed = {
        "command": command,
        "params": params,
        "input_hashes": [entry["sha256"] for entry in inputs],
    }
    config_hash = hashlib.sha256(
        json.dumps(hashed, sort_keys=True).encode("utf-8")
    ).hexdigest()
    manifest = {
        "command": command,
        "config_hash": config_hash,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "inputs": inputs,
        "params": params,
        "seed": seed,
        "tool_version": __version__,
    }
    dataio.write_json(os.fspath(out_path) + ".manifest.json", manifest)


# Input-file arguments, in the order manifests list them.
_INPUT_ARGS = ("in_path", "cal", "phase_points", "config")
# Parsed arguments that are neither inputs nor options of the computation.
_NOT_PARAMS = {"command", "handler", "fit", "out", "out_dir", *_INPUT_ARGS}


def _params(args) -> dict:
    """Every parsed option except the input and output paths."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}


def _finish(args, result: dict, write=None, seed=None) -> int:
    """Write ``--out`` and its manifest when given, then print ``result``.

    ``write(path)`` writes the output file; by default ``result`` goes out
    as JSON. The manifest's ``params`` are every parsed option except the
    input and output paths, which it records by hash or not at all.
    """
    from . import dataio

    if args.out:
        # Hashed first: ``--out`` may name an input, which the write replaces.
        paths = [getattr(args, name) for name in _INPUT_ARGS if getattr(args, name, None)]
        inputs = [{"path": os.fspath(p), "sha256": dataio.sha256_file(p)} for p in paths]
        if write is None:
            dataio.write_json(args.out, result)
        else:
            write(args.out)
        _write_manifest(args.out, args.command, _params(args), inputs, seed)
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import dataio
    from .simulator import SimConfig, simulate_record

    raw = dataio.read_json(args.config)
    cfg = dataio._from_json(SimConfig, raw, f"simulate config {args.config}")
    if args.seed is not None:  # applied after the read, so a bad seed is not blamed on the file
        cfg = dataclasses.replace(cfg, seed=args.seed)
    record = simulate_record(cfg)
    return _finish(
        args,
        {"out": os.fspath(args.out), "n_samples": len(record), "seed": cfg.seed},
        write=lambda path: dataio.write_record_csv(path, record),
        seed=cfg.seed,
    )


def _cmd_fit_sweep(args) -> int:
    from . import dataio, lineshape

    fit = getattr(lineshape, args.fit)(dataio.read_sweep_csv(args.in_path))
    return _finish(args, dataio._to_json(fit))


def _cmd_gas_solve(args) -> int:
    from . import dataio
    from .cellchem import GasCoefficients, solve_composition

    coeffs = None
    if args.config:
        raw = dataio.read_json(args.config)
        coeffs = dataio._from_json(GasCoefficients, raw, f"coefficient config {args.config}")
    comp = solve_composition(args.shift_ghz, args.width_ghz, coeffs)
    return _finish(args, dataio._to_json(comp))


def _cmd_fit_serf(args) -> int:
    from . import dataio
    from .serf import fit_tse, number_density

    points = dataio.read_linewidth_points_csv(args.in_path)
    fit = fit_tse(
        points,
        nuclear_spin_i=args.nuclear_spin,
        slowing_q=args.slowing_q,
        intrinsic_hwhm_hz=args.intrinsic,
    )
    n_cm3 = number_density(fit.t_se_s, args.vbar, args.sigma_se)
    return _finish(args, {**dataio._to_json(fit), "n_cm3": n_cm3})


def _load_series(path, channel: str) -> tuple[float, np.ndarray]:
    from . import dataio

    # Accepts two-channel records and the single-channel output of subtract.
    header = dataio.csv_header(path)
    if header[:2] == ["t_s", "value_t"]:
        if channel == "bottom":
            raise InvalidParameterError(f"{path}: a t_s,value_t series has no bottom channel")
        return dataio.read_series_csv(path)
    record = dataio.read_record_csv(path)
    return record.sample_rate_hz, (
        record.top_t if channel == "top" else record.bottom_t
    )


def _cmd_psd(args) -> int:
    from . import dataio
    from .noisepsd import band_floor, calibrate_tesla, welch_asd

    if args.band and not np.isfinite(args.band).all():
        raise InvalidParameterError("band edges must be finite, got {:g}:{:g}".format(*args.band))
    rate, series = _load_series(args.in_path, args.channel)
    psd = welch_asd(series, rate, args.segment_len, args.overlap)
    result = {"out": os.fspath(args.out), "n_averages": psd.n_averages}
    if args.calibrate_tone:
        tone_freq, tone_amp = args.calibrate_tone
        scale = calibrate_tesla(psd, tone_freq, tone_amp)
        psd = psd.scaled(scale)
        result["tesla_scale"] = scale
    if args.band:
        lo, hi = args.band
        result["band_floor_t_sqrthz"] = band_floor(psd, lo, hi)
        result["band"] = [lo, hi]
    return _finish(args, result, write=lambda path: dataio.write_psd_csv(path, psd))


# numpy's FFT slows sharply for a length with a large prime factor: one rfft
# of 131 073 = 3 x 43 691 samples takes about ten times one of 131 072.
_FFT_PRIME_LIMIT = 1000


def _warn_slow_fft_length(n: int) -> None:
    """Warn on stderr when ``n`` has a prime factor above ``_FFT_PRIME_LIMIT``."""
    rest, p = n, 2
    while p * p <= rest:  # leaves rest at the largest prime factor of n
        rest, p = (rest // p, p) if rest % p == 0 else (rest, p + 1)
    if rest <= _FFT_PRIME_LIMIT:
        return
    bits = range(n.bit_length())
    smooth = max(m << (n // m).bit_length() - 1  # m times the largest power of two keeping it <= n
                 for m in (3**b * 5**c for b in bits for c in bits) if m <= n)
    print(
        f"warning: record length {n} has the prime factor {rest}, which makes its FFTs slow;"
        f" the nearest 5-smooth length at or below it is {smooth}",
        file=sys.stderr,
    )


def _cmd_calibrate(args) -> int:
    from . import dataio
    from .gradiometer import GradCalibration, _check_correction, amplitude_ratio, fit_phase_model

    # Every flag is checked before the record is read and its tone gated.
    if not args.phase_points and (args.f1 is None or args.f2 is None):
        raise InvalidParameterError("provide either --phase-points or both --f1 and --f2")
    if args.phase_points and (args.f1 is not None or args.f2 is not None):
        raise InvalidParameterError("--phase-points fits f1 and f2; do not also give --f1 or --f2")
    if args.phase_points:
        fit = fit_phase_model(dataio.read_phase_points_csv(args.phase_points))
        f1, f2 = fit.f1_hz, fit.f2_hz
    else:
        f1, f2 = args.f1, args.f2
    # 1.0 stands in for the measured ratio, so that the calibration's own checks run first.
    cal = GradCalibration(1.0, f1, f2, tone_freq_hz=args.tone_freq, tone_amp_t=args.tone_amp)
    record = dataio.read_record_csv(args.in_path)
    _warn_slow_fft_length(len(record))
    ratio = amplitude_ratio(record, args.tone_freq)
    cal = dataclasses.replace(cal, amplitude_ratio=ratio)
    # Rejected here, so that no phase-corrected subtract rejects what this writes.
    _check_correction(cal, len(record), record.sample_rate_hz)
    return _finish(args, dataio._to_json(cal))


def _cmd_subtract(args) -> int:
    from . import dataio
    from .gradiometer import subtract

    record = dataio.read_record_csv(args.in_path)
    cal = dataio.read_calibration_json(args.cal)
    _warn_slow_fft_length(len(record))
    diff = subtract(record, cal, phase_correct=args.phase)
    # Squared in units of the peak's power of two, so no finite difference over- or underflows.
    e = np.frexp(max(diff.max(), -diff.min()))[1]
    rms = float(np.ldexp(np.sqrt(np.mean(np.ldexp(diff, -e) ** 2)), e))
    return _finish(
        args,
        {"out": os.fspath(args.out), "rms_t": rms},
        write=lambda path: dataio.write_series_csv(path, record.sample_rate_hz, diff),
    )


def _cmd_phase_fit(args) -> int:
    from . import dataio
    from .gradiometer import fit_phase_model

    fit = fit_phase_model(dataio.read_phase_points_csv(args.in_path))
    return _finish(args, dataio._to_json(fit))


# Defaults of nmr-estimate's sample flags. The flags themselves default to
# None, so that one given beside --config, which sets every field, is caught.
_SAMPLE_DEFAULTS = {"isotope": "1H", "volume_ul": 200.0, "spin_density": 6.7e28, "abundance": None,
                    "prepol_t": 2.0, "temperature_k": 300.0, "distance_m": 0.01}


def _sample_from_args(args) -> SampleSpec:
    from . import dataio
    from .nmrsignal import SampleSpec, load_isotopes

    given = [name for name in _SAMPLE_DEFAULTS if getattr(args, name) is not None]
    if args.config and given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise InvalidParameterError(f"--config sets every sample field; do not also give {flags}")
    # Filled in for --config runs too, so that their manifest params keep the defaults.
    vars(args).update({k: v for k, v in _SAMPLE_DEFAULTS.items() if k not in given})
    if args.config:
        raw = dataio.read_json(args.config)
        return dataio._from_json(SampleSpec, raw, f"sample config {args.config}")
    isotopes = load_isotopes()
    if args.isotope not in isotopes:
        raise InvalidParameterError(
            f"unknown isotope {args.isotope!r}; known: {', '.join(sorted(isotopes))}"
        )
    iso = isotopes[args.isotope]
    return SampleSpec(
        volume_m3=args.volume_ul * 1e-9,
        spin_density_per_m3=args.spin_density,
        natural_abundance=args.abundance if args.abundance is not None else iso.natural_abundance,
        gyromag_rad_s_t=iso.gyromag_rad_s_t,
        spin=iso.spin,
        prepol_field_t=args.prepol_t,
        temperature_k=args.temperature_k,
        distance_m=args.distance_m,
    )


def _cmd_nmr_estimate(args) -> int:
    from .nmrsignal import dipole_field, thermal_polarization

    sample = _sample_from_args(args)
    result = {
        "polarization": thermal_polarization(
            sample.gyromag_rad_s_t, sample.prepol_field_t, sample.temperature_k
        ),
        "field_t": dipole_field(sample),
        "model": DIPOLE_MODEL_NAME,
    }
    return _finish(args, result)


def _cmd_demo_paper(args) -> int:
    from . import dataio, demo

    results = demo.run_demo(args.seed)
    print(demo.summary_table(results))
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    grad = results["gradiometer"]
    artifacts = {
        "summary.json": lambda p: dataio.write_json(p, demo.public_results(results)),
        "calibration.json": lambda p: dataio.write_calibration_json(p, grad["_cal"]),
        "psd_single.csv": lambda p: dataio.write_psd_csv(p, grad["_psd_top"]),
        "psd_difference.csv": lambda p: dataio.write_psd_csv(p, grad["_psd_diff"]),
    }
    for name, writer in artifacts.items():
        path = os.path.join(out_dir, name)
        writer(path)
        _write_manifest(path, "demo-paper", {**_params(args), "artifact": name}, [], args.seed)
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="serfkit",
        description="SERF magnetometer characterization and gradiometric calibration",
    )
    parser.add_argument("--version", action="version", version=f"serfkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a synthetic two-channel record")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output record CSV (t_s,top_t,bottom_t)")
    p.set_defaults(handler=_cmd_simulate)

    for name, fit, help_text in (
        ("fit-absorption", "fit_lorentzian", "fit a Lorentzian to an absorption sweep"),
        ("fit-response", "fit_response_curve", "fit the resonance response curve"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="in_path", required=True, help="sweep CSV (freq_hz,value)")
        p.add_argument("--out", required=True, help="fit result JSON")
        p.set_defaults(handler=_cmd_fit_sweep, fit=fit)

    p = sub.add_parser("gas-solve", help="invert line shift/width into gas densities")
    p.add_argument("--shift-ghz", type=float, required=True)
    p.add_argument("--width-ghz", type=float, required=True)
    p.add_argument("--config", help="coefficient overrides JSON")
    p.add_argument("--out", help="composition JSON")
    p.set_defaults(handler=_cmd_gas_solve)

    p = sub.add_parser("fit-serf", help="fit the spin-exchange time from linewidths")
    p.add_argument(
        "--in", dest="in_path", required=True, help="points CSV (resonance_hz,hwhm_hz[,weight])"
    )
    p.add_argument("--nuclear-spin", type=float, default=constants.DEFAULT_NUCLEAR_SPIN)
    p.add_argument("--slowing-q", type=float, default=constants.DEFAULT_SLOWING_Q)
    p.add_argument(
        "--intrinsic",
        type=float,
        default=None,
        help="hold the zero-field linewidth fixed at this value instead of co-fitting",
    )
    p.add_argument("--vbar", type=float, default=constants.DEFAULT_VBAR_M_S,
                   help="relative thermal velocity m/s")
    p.add_argument("--sigma-se", type=float, default=constants.DEFAULT_SIGMA_SE_CM2,
                   help="spin-exchange cross section cm^2")
    p.add_argument("--out", required=True, help="fit result JSON")
    p.set_defaults(handler=_cmd_fit_serf)

    p = sub.add_parser("psd", help="Welch amplitude spectral density of one channel")
    p.add_argument(
        "--in",
        dest="in_path",
        required=True,
        help="record CSV, or a single-series CSV (t_s,value_t) as written by subtract",
    )
    p.add_argument("--channel", choices=("top", "bottom"), default="top",
                   help="channel to use when the input is a two-channel record")
    p.add_argument("--segment-len", type=int, default=constants.DEFAULT_SEGMENT_LEN)
    p.add_argument("--overlap", type=float, default=constants.DEFAULT_OVERLAP)
    p.add_argument(
        "--calibrate-tone",
        type=_pair("tone", "freq_hz:amp_t"),
        default=None,
        metavar="FREQ:AMP",
        help="rescale so the tone at FREQ hz reads AMP tesla",
    )
    p.add_argument("--band", type=_pair("band", "lo:hi"), default=None, metavar="LO:HI",
                   help="report the median floor over this band")
    p.add_argument("--out", required=True, help="output CSV (freq_hz,asd_t_sqrthz)")
    p.set_defaults(handler=_cmd_psd)

    p = sub.add_parser("calibrate", help="build the gradiometer calibration")
    p.add_argument("--in", dest="in_path", required=True, help="record CSV with the tone")
    p.add_argument("--tone-freq", type=float, required=True, help="calibration tone Hz")
    p.add_argument("--tone-amp", type=float, default=0.0, help="tone amplitude tesla")
    p.add_argument("--f1", type=float, default=None, help="top channel bandwidth Hz")
    p.add_argument("--f2", type=float, default=None, help="bottom channel bandwidth Hz")
    p.add_argument("--phase-points", default=None, help="phase CSV to fit f1/f2 from")
    p.add_argument("--out", required=True, help="calibration JSON")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("subtract", help="calibrated two-channel difference")
    p.add_argument("--in", dest="in_path", required=True, help="record CSV")
    p.add_argument("--cal", required=True, help="calibration JSON")
    p.add_argument(
        "--phase",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="apply the frequency-dependent phase correction",
    )
    p.add_argument("--out", required=True, help="output CSV (t_s,value_t)")
    p.set_defaults(handler=_cmd_subtract)

    p = sub.add_parser("phase-fit", help="fit channel bandwidths from phase differences")
    p.add_argument("--in", dest="in_path", required=True, help="phase CSV (freq_hz,phase_rad)")
    p.add_argument("--out", required=True, help="fit result JSON")
    p.set_defaults(handler=_cmd_phase_fit)

    p = sub.add_parser("nmr-estimate", help="thermal polarization and sample field")
    p.add_argument("--config", help="sample spec JSON (full field set)")
    p.add_argument("--isotope", help="isotope symbol from the bundled table")
    p.add_argument("--volume-ul", type=float, help="sample volume in uL")
    p.add_argument("--spin-density", type=float, help="target nuclei per m^3")
    p.add_argument("--abundance", type=float, help="override isotopic abundance")
    p.add_argument("--prepol-t", type=float, help="prepolarization field tesla")
    p.add_argument("--temperature-k", type=float)
    p.add_argument("--distance-m", type=float)
    p.add_argument("--out", help="estimate JSON")
    p.set_defaults(handler=_cmd_nmr_estimate)

    p = sub.add_parser(
        "demo-paper", help="run the full chain on bundled synthetic data"
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-dir", default="demo_out", help="artifact directory")
    p.set_defaults(handler=_cmd_demo_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except FitFailureError as err:
        print(f"fit failed: {err}", file=sys.stderr)
        return EXIT_FIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
