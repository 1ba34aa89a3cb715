"""In-memory span tracer and the wrappers that attribute serfkit time to layers.

A layer is one ``serfkit`` module. ``Installation`` wraps every public function of
each layer module (and ``TwoChannelRecord.__post_init__`` for ``records``) so
that each call records a span: layer, function name, start, end, parent span
and operation id. The wrapped function objects are rebound in every
``serfkit`` namespace that holds them, so calls between modules are traced
as well as the benchmark's own calls. ``numpy.fft`` transforms are wrapped to
count transform lengths against the innermost open span's layer.

Nothing in ``src/`` changes; ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
import types
from collections import defaultdict

LAYERS = (
    "cli",
    "dataio",
    "records",
    "simulator",
    "gradiometer",
    "noisepsd",
    "lineshape",
    "fitting",
    "serf",
    "cellchem",
    "demo",
)
BENCH = "bench"  # spans owned by the benchmark: the operation and CLI stages
CLI_STAGES = ("simulate", "calibrate", "subtract", "psd_top", "psd_diff")

DATAIO_READ = (
    "read_json",
    "read_sweep_csv",
    "read_record_csv",
    "read_series_csv",
    "read_linewidth_points_csv",
    "read_phase_points_csv",
    "read_calibration_json",
    "csv_header",
)
DATAIO_ARRAY_READ = ("read_record_csv", "read_series_csv")
DATAIO_HASH = ("sha256_file",)
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")

# Entry-span time groups: metric -> (layer, function names). An entry span is
# the outermost open span of its layer, so a group's time is the time spent
# inside the layer after being called from outside it through those names.
TIME_GROUPS = {
    "cli.import_s": ("cli", ("import",)),
    "dataio.read_s": ("dataio", DATAIO_READ),
    "dataio.hash_s": ("dataio", DATAIO_HASH),
    "gradiometer.amplitude_ratio_s": ("gradiometer", ("amplitude_ratio",)),
    "gradiometer.subtract_s": ("gradiometer", ("subtract",)),
    "gradiometer.reduction_ratio_s": ("gradiometer", ("reduction_ratio",)),
    "gradiometer.fit_phase_model_s": ("gradiometer", ("fit_phase_model",)),
    "noisepsd.welch_s": ("noisepsd", ("welch_asd",)),
    "noisepsd.band_floor_s": ("noisepsd", ("band_floor",)),
    "noisepsd.tone_s": ("noisepsd", ("tone_amplitude", "calibrate_tesla")),
    "lineshape.fit_s": ("lineshape", ("fit_lorentzian", "fit_response_curve")),
    "fitting.lsq_s": ("fitting", ("fit_damped_least_squares",)),
    "serf.fit_tse_s": ("serf", ("fit_tse",)),
    "cellchem.solve_s": ("cellchem", ("solve_composition",)),
}
GROUP_OF = {(layer, name): metric for metric, (layer, names) in TIME_GROUPS.items() for name in names}
# Counters summed per operation: metric -> (layer, counter key).
COUNT_METRICS = {
    "dataio.read_bytes": ("dataio", "read_bytes"),
    "dataio.write_bytes": ("dataio", "write_bytes"),
    "dataio.hash_bytes": ("dataio", "hash_bytes"),
    "simulator.fft_points": ("simulator", "fft_points"),
    "gradiometer.fft_points": ("gradiometer", "fft_points"),
    "noisepsd.welch_segments": ("noisepsd", "welch_segments"),
    "noisepsd.fft_points": ("noisepsd", "fft_points"),
    "noisepsd.band_floor_bins": ("noisepsd", "band_floor_bins"),
}


def per_layer_specs() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    specs = []
    for layer in LAYERS:
        specs += [
            (f"{layer}.calls", "count/op"),
            (f"{layer}.busy_s", "s/op"),
            (f"{layer}.self_s", "s/op"),
        ]
    specs += [(name, "s/op") for name in TIME_GROUPS]
    specs += [(f"cli.stage_s.{stage}", "s/op") for stage in CLI_STAGES]
    specs += [("dataio.write_s", "s/op")]
    specs += [(name, "B/op" if name.endswith("_bytes") else "count/op") for name in COUNT_METRICS]
    specs += [
        ("dataio.read_peak_mb", "MiB"),
        ("fitting.trials_per_fit", "count"),
        ("fitting.residual_evals_per_fit", "count"),
        ("fitting.jacobian_evals_per_fit", "count"),
        ("fitting.accept_ratio", "ratio"),
        ("fitting.failures", "count"),
        ("trace.ops_per_s", "1/s"),
        ("trace.op_wall_s", "s/op"),
        ("trace.uncovered_s", "s/op"),
    ]
    return specs


class Tracer:
    """Spans and counters of one process, kept in memory until written out.

    A span is ``[layer, name, start, end, parent_index, op_id, is_entry]``;
    ``is_entry`` is true when no span of the same layer was open. With
    ``trace_memory`` the record and series reads run under ``tracemalloc``,
    which slows them several times over, so the runner asks for it on the
    untimed warm-up operation only.
    """

    def __init__(self, trace_memory: bool = False):
        self.trace_memory = trace_memory
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[tuple, float] = defaultdict(float)  # (op, layer, key)
        self.maxima: dict[tuple, float] = {}  # (layer, key) -> max over the run
        self.op = None

    def open(self, layer: str, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        entry = self.depth[layer] == 0
        self.depth[layer] += 1
        self.stack.append(index)
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent, self.op, entry])
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        self.depth[span[0]] -= 1
        self.stack.pop()

    def is_entry(self) -> bool:
        return self.spans[self.stack[-1]][6]

    def count(self, layer: str, key: str, value: float) -> None:
        self.counts[(self.op, layer, key)] += value

    def count_here(self, key: str, value: float) -> None:
        layer = self.spans[self.stack[-1]][0] if self.stack else BENCH
        self.count(layer, key, value)

    def note_max(self, layer: str, key: str, value: float) -> None:
        self.maxima[(layer, key)] = max(self.maxima.get((layer, key), 0.0), value)

    def merge(self, child: dict, parent: int) -> None:
        """Adopt a child process's spans under ``parent``, in the current op.

        ``time.perf_counter`` reads CLOCK_MONOTONIC, which is shared by all
        processes on the host, so child timestamps need no offset.
        """
        base = len(self.spans)
        for layer, name, t0, t1, p, _op, entry in child["spans"]:
            self.spans.append([layer, name, t0, t1, parent if p < 0 else base + p, self.op, entry])
        for layer, key, value in child["counts"]:
            self.count(layer, key, value)
        for layer, key, value in child["maxima"]:
            self.note_max(layer, key, value)

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[layer, key, v] for (_op, layer, key), v in self.counts.items()],
            "maxima": [[layer, key, v] for (layer, key), v in self.maxima.items()],
        }

    def write_jsonl(self, path) -> None:
        """One span per line: ``[layer, name, start, end, parent, op, entry]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- hooks: run inside the wrapped call's span --------------------------------


@functools.cache
def _signature(fn):
    return inspect.signature(fn)


def _arg(fn, args, kwargs, name):
    return _signature(fn).bind(*args, **kwargs).arguments[name]


def _path_arg(fn, args, kwargs):
    return _arg(fn, args, kwargs, "path")


def _read_hook(tracer, fn, args, kwargs):
    if tracer.is_entry() and fn.__name__ != "csv_header":
        tracer.count("dataio", "read_bytes", os.path.getsize(_path_arg(fn, args, kwargs)))
    if (
        not tracer.trace_memory
        or fn.__name__ not in DATAIO_ARRAY_READ
        or tracemalloc.is_tracing()
    ):
        return fn(*args, **kwargs)
    tracemalloc.start()
    try:
        return fn(*args, **kwargs)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracer.note_max("dataio", "read_peak_mb", peak / 2**20)


def _write_hook(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer.count("dataio", "write_bytes", os.path.getsize(_path_arg(fn, args, kwargs)))
    return out


def _hash_hook(tracer, fn, args, kwargs):
    tracer.count("dataio", "hash_bytes", os.path.getsize(_path_arg(fn, args, kwargs)))
    return fn(*args, **kwargs)


def _welch_hook(tracer, fn, args, kwargs):
    psd = fn(*args, **kwargs)
    tracer.count("noisepsd", "welch_segments", psd.n_averages)
    return psd


def _band_floor_hook(tracer, fn, args, kwargs):
    freqs = _arg(fn, args, kwargs, "psd").freqs_hz
    lo, hi = _arg(fn, args, kwargs, "f_lo_hz"), _arg(fn, args, kwargs, "f_hi_hz")
    tracer.count("noisepsd", "band_floor_bins", int(((freqs >= lo) & (freqs <= hi)).sum()))
    return fn(*args, **kwargs)


def _lsq_hook(tracer, fn, args, kwargs):
    """Count residual and Jacobian evaluations, trial and accepted steps.

    The solver evaluates the Jacobian once per outer iteration at the
    current parameters and once more at the result, so every change of the
    parameters between consecutive Jacobian calls is one accepted step.
    """
    residual_fn, jacobian_fn = args[0], args[1]
    state = {"res": 0, "jac": 0, "accepted": 0, "last": None}

    def residual(p):
        state["res"] += 1
        return residual_fn(p)

    def jacobian(p):
        state["jac"] += 1
        if state["last"] is not None and not (state["last"] == p).all():
            state["accepted"] += 1
        state["last"] = p.copy()
        return jacobian_fn(p)

    from serfkit.errors import FitFailureError

    try:
        result = fn(residual, jacobian, *args[2:], **kwargs)
    except FitFailureError:
        tracer.count("fitting", "failures", 1)
        # One residual evaluation per finite trial step after the first.
        tracer.count("fitting", "trials", max(state["res"] - 1, 0))
        raise
    else:
        tracer.count("fitting", "trials", result.n_iter)
        return result
    finally:
        tracer.count("fitting", "fits", 1)
        tracer.count("fitting", "residual_evals", state["res"])
        tracer.count("fitting", "jacobian_evals", state["jac"])
        tracer.count("fitting", "accepted", state["accepted"])


HOOKS = {
    ("dataio", "sha256_file"): _hash_hook,
    ("dataio", "atomic_write_text"): _write_hook,
    ("noisepsd", "welch_asd"): _welch_hook,
    ("noisepsd", "band_floor"): _band_floor_hook,
    ("fitting", "fit_damped_least_squares"): _lsq_hook,
}
HOOKS.update({("dataio", name): _read_hook for name in DATAIO_READ})


def _wrap(tracer, layer, name, fn):
    hook = HOOKS.get((layer, name))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(layer, name)
        try:
            if hook is None:
                return fn(*args, **kwargs)
            return hook(tracer, fn, args, kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _fft_points(name, args, kwargs):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is not None:
        return int(n)
    m = args[0].shape[-1] if hasattr(args[0], "shape") else len(args[0])
    return 2 * (m - 1) if name == "irfft" else m


def _wrap_fft(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count_here("fft_points", _fft_points(name, args, kwargs))
        return fn(*args, **kwargs)

    return wrapper


class Installation:
    """Wrappers installed for one tracer; ``uninstall`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        import numpy.fft

        self.restore: list[tuple[object, str, object]] = []
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"serfkit.{layer}")
            for name, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrapped[id(obj)] = _wrap(tracer, layer, name, obj)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "serfkit" or module_name.startswith("serfkit.")):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    self._set(module, name, wrapped[id(obj)])

        from serfkit.records import TwoChannelRecord

        self._set(
            TwoChannelRecord,
            "__post_init__",
            _wrap(tracer, "records", "TwoChannelRecord", TwoChannelRecord.__post_init__),
        )
        for name in FFT_FUNCS:
            self._set(numpy.fft, name, _wrap_fft(tracer, name, getattr(numpy.fft, name)))

    def _set(self, owner, name, value) -> None:
        self.restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.restore):
            setattr(owner, name, original)
        self.restore.clear()


def aggregate(tracer: Tracer, ops: list, traced_ops_per_s: float) -> dict[str, float]:
    """Per-layer metrics averaged over the operations in ``ops``.

    Self time of a span is its duration minus the durations of its direct
    children; summed over every span of an operation it telescopes to the
    root span's duration, so the layer self times plus ``trace.uncovered_s``
    (self time of the benchmark's own spans) equal ``trace.op_wall_s``.
    """
    wanted = set(ops)
    n_ops = max(len(wanted), 1)
    child_time = defaultdict(float)
    for layer, name, t0, t1, parent, op, entry in tracer.spans:
        if op in wanted and parent >= 0:
            child_time[parent] += t1 - t0
    total = defaultdict(float)
    for index, (layer, name, t0, t1, parent, op, entry) in enumerate(tracer.spans):
        if op not in wanted:
            continue
        duration = t1 - t0
        total[f"{layer}.self_s"] += duration - child_time[index]
        if layer == BENCH:
            if name == "op":
                total["trace.op_wall_s"] += duration
            elif name.startswith("stage:"):
                total[f"cli.stage_s.{name[6:]}"] += duration
            continue
        if entry:
            total[f"{layer}.calls"] += 1
            total[f"{layer}.busy_s"] += duration
            group = GROUP_OF.get((layer, name))
            if group is None and layer == "dataio":
                group = "dataio.write_s"  # every other dataio entry writes a file
            if group is not None:
                total[group] += duration
    counts = defaultdict(float)
    for (op, layer, key), value in tracer.counts.items():
        if op in wanted:
            counts[(layer, key)] += value
    for metric, key in COUNT_METRICS.items():
        total[metric] = counts[key]

    out = {name: total[name] / n_ops for name, _unit in per_layer_specs()}
    out["trace.uncovered_s"] = total[f"{BENCH}.self_s"] / n_ops
    fits = counts[("fitting", "fits")]
    trials = counts[("fitting", "trials")]
    out["fitting.trials_per_fit"] = trials / fits if fits else 0.0
    out["fitting.residual_evals_per_fit"] = counts[("fitting", "residual_evals")] / fits if fits else 0.0
    out["fitting.jacobian_evals_per_fit"] = counts[("fitting", "jacobian_evals")] / fits if fits else 0.0
    out["fitting.accept_ratio"] = counts[("fitting", "accepted")] / trials if trials else 0.0
    out["fitting.failures"] = counts[("fitting", "failures")]
    out["dataio.read_peak_mb"] = tracer.maxima.get(("dataio", "read_peak_mb"), 0.0)
    out["trace.ops_per_s"] = traced_ops_per_s
    return out
