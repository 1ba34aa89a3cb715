"""Tests of the benchmark itself: seeding, metric reporting, failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Context, OpFailed  # noqa: E402

# Layers each workload calls; every other layer must report zero calls.
CALLED_LAYERS = {
    "cli_chain_60s": {"cli", "dataio", "records", "simulator", "gradiometer", "noisepsd"},
    "long_record_1h": {"records", "simulator", "gradiometer", "noisepsd"},
    "fit_campaign": {"gradiometer", "lineshape", "fitting", "serf", "cellchem"},
    "demo_paper": {
        "demo", "records", "simulator", "gradiometer", "noisepsd",
        "lineshape", "fitting", "serf", "cellchem",
    },
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _ctx(tmp_path) -> Context:
    return Context(work_dir=str(tmp_path), env=run.child_env())


def _fingerprint(inputs) -> bytes:
    if isinstance(inputs, str):  # the CLI chain's operation directory
        with open(os.path.join(inputs, "sim.json"), "rb") as fh:
            return fh.read()
    if isinstance(inputs, dict):
        return b"".join(k.encode() + v.tobytes() for k, v in sorted(inputs.items()))
    return repr(inputs).encode()


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = _spec()
    # fit_campaign runs on request but is not gated: see README.md.
    assert [w["name"] for w in spec["workloads"]] == [
        "cli_chain_60s", "long_record_1h", "demo_paper"
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_specs()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_inputs_and_a_fixed_seed_repeats_them(name, tmp_path):
    workload = WORKLOADS[name]()
    ctx = _ctx(tmp_path)
    first = _fingerprint(workload.prepare(5, ctx))
    assert _fingerprint(workload.prepare(5, ctx)) == first
    assert _fingerprint(workload.prepare(6, ctx)) != first


class _Recorder:
    """Workload stand-in that records seeds and fails on chosen ones."""

    name = "recorder"
    in_process = True

    def __init__(self, raise_on=(), check_fails_on=()):
        self.seeds, self.raise_on, self.check_fails_on = [], set(raise_on), set(check_fails_on)

    def prepare(self, seed, ctx):
        self.seeds.append(seed)
        return seed

    def execute(self, seed, ctx):
        if seed in self.raise_on:
            raise ValueError(f"setting an array element with a sequence (seed {seed})")
        return seed

    def check(self, seed):
        if seed in self.check_fails_on:
            raise OpFailed(f"bad output for seed {seed}")

    def digest(self, seed, h):
        h.update(repr(seed).encode())


def test_operation_i_uses_seed_plus_i(tmp_path):
    recorder = _Recorder()
    m = run.measure(recorder, 100, 0.05, _ctx(tmp_path))
    assert recorder.seeds == list(range(100, 100 + m.attempted))
    assert m.timed_ops == list(range(1, m.attempted))


def test_raising_and_failed_checks_are_counted_not_fatal(tmp_path):
    recorder = _Recorder(raise_on={10, 12}, check_fails_on={11})
    m = run.measure(recorder, 10, 0.05, _ctx(tmp_path))
    assert m.attempted > 3
    assert m.failed == 3
    assert m.digest is None  # the warm-up operation (seed 10) failed
    assert len(m.latencies) == len(m.timed_ops) - 2
    assert "ValueError" in m.failures[0] and "OpFailed" in m.failures[1]


def test_fit_check_rejects_an_output_off_by_more_than_five_percent(tmp_path):
    campaign = WORKLOADS["fit_campaign"]()
    result = campaign.execute(campaign.prepare(3, _ctx(tmp_path)), _ctx(tmp_path))
    campaign.check(result)
    result["t_se_s"] *= 1.06
    with pytest.raises(OpFailed, match="t_se_s"):
        campaign.check(result)


class _RaggedRecordChain(workloads.CliChain):
    """The CLI chain from ``calibrate`` on, fed a record CSV with a ragged row."""

    def stages(self):
        return self.STAGES[1:]

    def prepare(self, seed, ctx):
        op_dir = super().prepare(seed, ctx)
        rows = ["t_s,top_t,bottom_t"]
        rows += [f"{i / 1000.0!r},1e-12,2e-12" for i in range(5000)]
        rows[2500] = rows[2500].rsplit(",", 1)[0]  # drop one column
        with open(os.path.join(op_dir, "rec.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        return op_dir


def test_ragged_record_row_is_a_failed_operation(tmp_path):
    m = run.measure(_RaggedRecordChain(), 1, 0.01, _ctx(tmp_path))
    assert m.attempted == 2
    assert m.failed == 2
    assert "stage calibrate exited" in m.failures[0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert run.tail_latency([1.0, 2.0, 3.0]) == (100.0, 3.0)
    values = [float(i) for i in range(1, 101)]
    assert run.tail_latency(values) == (90.0, 90.0)
    values = [float(i) for i in range(1, 1001)]
    assert run.tail_latency(values) == (99.0, 990.0)


def test_uninstall_restores_every_original():
    import numpy.fft

    from serfkit import demo, gradiometer
    from serfkit.records import TwoChannelRecord

    originals = (gradiometer.subtract, demo.subtract, numpy.fft.rfft,
                 TwoChannelRecord.__post_init__)
    installed = spans.Installation(spans.Tracer())
    assert gradiometer.subtract is not originals[0]
    assert demo.subtract is gradiometer.subtract
    installed.uninstall()
    assert (gradiometer.subtract, demo.subtract, numpy.fft.rfft,
            TwoChannelRecord.__post_init__) == originals


def _parse(stdout: str) -> tuple[list[str], dict]:
    lines = stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace):
    proc = _run_bench("--workload", name, "--seed", "3", "--seconds", "0.01",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines, result = _parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:2] == [m["name"], "="] and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    assert any(line.split()[:2] == ["fail_frac", "="] for line in lines)

    with open(os.path.join(ROOT, ".perfbench_out", f"{name}-seed3-trace{trace}.json"),
              encoding="utf-8") as fh:
        saved = json.load(fh)
    assert set(saved["environment"]) >= {
        "cpu_model", "nproc", "l2_bytes", "l3_bytes", "python", "numpy",
        "git_commit", "seed", "working_set_bytes", "working_set_over_llc",
    }
    assert len(saved["output_digest"]) == 64

    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    called = {layer for layer in spans.LAYERS if values[f"{layer}.calls"] > 0}
    assert called == CALLED_LAYERS[name]
    if name != "cli_chain_60s":
        assert all(v == 0 for k, v in values.items() if k.startswith("dataio."))
    self_total = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert self_total + values["trace.uncovered_s"] == pytest.approx(
        values["trace.op_wall_s"], rel=1e-9
    )


def test_seed_digest_repeats():
    digests = []
    for _ in range(2):
        proc = _run_bench("--workload", "demo_paper", "--seed", "8", "--seconds", "0.01",
                          "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(ROOT, ".perfbench_out", "demo_paper-seed8-trace0.json"),
                  encoding="utf-8") as fh:
            digests.append(json.load(fh)["output_digest"])
    assert digests[0] == digests[1]


def test_fails_without_printing_a_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench("--workload", "fit_campaign", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
