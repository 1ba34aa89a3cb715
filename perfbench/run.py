"""Run one serfkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; serfkit is imported from ``src/``.
Operation ``i`` uses ``seed + i``. Operation 0 is a warm-up: it is checked and
its outputs give ``output_digest``, but it is not timed. Timed operations run
back to back while the next one, at the mean duration so far, would end
within ``--seconds`` (at least one runs).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
every call into a serfkit module is recorded as a span and the per-layer
metrics are printed instead. Each metric is printed on its own line with its
unit, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. A result file with the
environment, the digest and every figure goes to ``.perfbench_out/``; a
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import spans
from workloads import WORKLOADS, Context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_SAMPLES = 11
# Tail percentile: the highest of these with at least TAIL_MIN_BEYOND samples
# beyond it; with fewer than 100 samples the maximum is reported instead.
TAIL_PERCENTILES = (99.0, 90.0)
TAIL_MIN_BEYOND = 10
MAX_FAILURE_MESSAGES = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)  # successful timed operations
    timed_wall: float = 0.0  # every timed operation, failed ones included
    timed_ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: str | None = None

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.timed_wall if self.timed_wall else 0.0

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(error)


def run_op(workload, seed: int, op_id: int, ctx: Context):
    """One operation: returns ``(elapsed_s, result or None, error or None)``."""
    inputs = workload.prepare(seed, ctx)
    tracer = ctx.tracer
    if tracer is not None:
        tracer.op = op_id
        root = tracer.open(spans.BENCH, "op")
    start = time.perf_counter()
    try:
        result, error = workload.execute(inputs, ctx), None
    except Exception:  # a failed operation is counted; the run goes on
        result, error = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)
    if error is None:
        try:
            workload.check(result)
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
    return elapsed, result, error


def measure(workload, seed: int, seconds: float, ctx: Context, setup=None) -> Measurement:
    """Warm-up operation, then timed operations for about ``seconds``.

    ``setup``, a ``SetupSampler``, takes its samples between timed
    operations, spread over the run; its time does not count toward
    ``seconds``.
    """
    m = Measurement()
    _, result, error = run_op(workload, seed, 0, ctx)
    m.record(error)
    if result is not None:
        digest = hashlib.sha256()
        workload.digest(result, digest)
        m.digest = digest.hexdigest()
    del result  # a 1 h operation holds ~150 MB; free it before the next one
    start = time.perf_counter()
    op_id = 1
    while True:
        elapsed, result, error = run_op(workload, seed + op_id, op_id, ctx)
        del result
        m.record(error)
        m.timed_ops.append(op_id)
        m.timed_wall += elapsed
        if error is None:
            m.latencies.append(elapsed)
        op_id += 1
        run_time = time.perf_counter() - start - (setup.spent if setup else 0.0)
        if setup is not None:
            setup.catch_up(run_time / seconds)
        # Stop when the next operation, at the mean so far, would end late.
        if run_time + m.timed_wall / len(m.timed_ops) > seconds:
            if setup is not None:
                setup.catch_up(1.0)
            return m


class SetupSampler:
    """Import time of a module in fresh interpreters, sampled across a run.

    Machine speed here drifts over seconds, so samples spread over the run
    give a steadier median than a burst of samples at its start.
    """

    def __init__(self, module: str, env: dict, count: int = SETUP_SAMPLES):
        self.code = (
            "import time; t = time.perf_counter(); "
            f"import {module}; print(repr(time.perf_counter() - t))"
        )
        self.env, self.count = env, count
        self.samples: list[float] = []
        self.spent = 0.0

    def catch_up(self, fraction: float) -> None:
        """Take samples until ``fraction`` of them (at least one) are taken."""
        start = time.perf_counter()
        while len(self.samples) < max(1, min(self.count, round(self.count * fraction))):
            proc = subprocess.run(
                [sys.executable, "-c", self.code], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
                timeout=60,
            )
            self.samples.append(float(proc.stdout.strip().splitlines()[-1]))
        self.spent += time.perf_counter() - start


def tail_latency(sorted_latencies: list) -> tuple[float, float]:
    """``(percentile, value)``, nearest rank, per ``TAIL_PERCENTILES``."""
    n = len(sorted_latencies)
    for pct in TAIL_PERCENTILES:
        rank = -(-int(pct * n) // 100)  # ceil(pct/100 * n), exact for these pct
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, sorted_latencies[rank - 1]
    return 100.0, sorted_latencies[-1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int) -> int:
    """Size of the unified cache at ``level`` seen by CPU 0, or 0 if unknown."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    try:
        for index in sorted(os.listdir(base)):
            path = os.path.join(base, index)
            with open(os.path.join(path, "level"), encoding="utf-8") as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(path, "type"), encoding="utf-8") as fh:
                if fh.read().strip() != "Unified":
                    continue
            with open(os.path.join(path, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (OSError, ValueError):
        pass
    return 0


def _git_commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed: int) -> dict:
    llc = _cache_bytes(3)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": llc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "seed": seed,
        "working_set_bytes": workload.working_set_bytes,
        "working_set_over_llc": workload.working_set_bytes / llc if llc else None,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def end_to_end_metrics(m: Measurement, setup_samples: list, peak_rss_mb: float) -> tuple:
    """End-to-end metrics by name, as ``(value, unit)``, and the extra figures."""
    lat = sorted(m.latencies)
    if lat:
        tail_pct, tail = tail_latency(lat)
        values = {
            "ops_per_s": m.ops_per_s,
            "op_s.p50": statistics.median(lat),
            "op_s.tail": tail,
        }
    else:
        tail_pct, values = None, {"ops_per_s": 0.0, "op_s.p50": 0.0, "op_s.tail": 0.0}
    values["peak_rss_mb"] = peak_rss_mb
    values["setup_s"] = statistics.median(setup_samples)
    extra = {
        "fail_frac": m.failed / m.attempted,
        "op_s.tail_percentile": tail_pct,
        "op_s.samples": len(lat),
        "setup_s.samples": setup_samples,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "serfkit", "__init__.py")):
        print(f"error: no serfkit source under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]()
    if workload.in_process:
        import serfkit

        if not os.path.abspath(serfkit.__file__).startswith(SRC + os.sep):
            print(f"error: serfkit imported from {serfkit.__file__}, not {SRC}", file=sys.stderr)
            return 2

    env = child_env()
    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    ctx = Context(work_dir=work_dir, env=env)
    try:
        if args.trace:
            ctx.tracer = spans.Tracer()
            installed = spans.Installation(ctx.tracer) if workload.in_process else None
            try:
                m = measure(workload, args.seed, args.seconds, ctx)
            finally:
                if installed is not None:
                    installed.uninstall()
            layer_values = spans.aggregate(ctx.tracer, m.timed_ops, m.ops_per_s)
            metrics = {name: (layer_values[name], unit) for name, unit in spans.per_layer_specs()}
            extra = {"fail_frac": m.failed / m.attempted}
            base = f"{args.workload}-seed{args.seed}"
            ctx.tracer.write_jsonl(os.path.join(OUT_DIR, f"{base}.spans.jsonl"))
        else:
            setup = SetupSampler(workload.setup_module, env)
            m = measure(workload, args.seed, args.seconds, ctx, setup)
            who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            metrics, extra = end_to_end_metrics(m, setup.samples, peak_rss_mb)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(workload, args.seed),
        "output_digest": m.digest,
        "attempted": m.attempted,
        "failed": m.failed,
        "failures": m.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "extra": extra,
    }
    result_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)

    for message in m.failures:
        print(f"failed operation:\n{message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_frac = {extra['fail_frac']:.6g} ratio ({m.failed}/{m.attempted})")
    if not args.trace:
        print(f"  op_s.tail is p{extra['op_s.tail_percentile']} of {extra['op_s.samples']} samples")
    print(f"  output_digest = {m.digest}")
    print(f"  result file: {os.path.relpath(result_path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": m.failed == 0,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
