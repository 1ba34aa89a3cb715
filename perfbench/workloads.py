"""The benchmark workloads: input generation, one operation, output check.

Every workload is a closed loop with a single client: the runner calls
``prepare`` (untimed), ``execute`` (timed), then ``check`` and, for the
warm-up operation only, ``digest``. Operation ``i`` of a run uses
``seed + i``; serfkit receives only the generated inputs (a config JSON, CSV
files or arrays).

Tolerances. A check must flag broken code, not the estimator's own scatter.
On a 60 s record the 20-30 Hz difference floor scatters from seed to seed
(measured over seeds 300-3299: mean -3.0 %, standard deviation 2.3 %, 3 of
3000 seeds beyond 10 %, worst -11.2 %), so on 60 s records the floor gate is
15 %, about 5 standard deviations. The 1 h record keeps the 10 % gate. The
fit campaign's noise levels put its 5 % recovery gate at 8 or more standard
deviations of each fit's scatter.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

TONE_FREQ_HZ = 10.0
TONE_AMP_T = 16e-12
F1_HZ = 49.9
F2_HZ = 68.8
FS_HZ = 1000.0
# README ``sim.json`` noise model.
COMMON_ASD = 8e-15
SENSOR_ASD = 8.5e-16
DIFF_FLOOR_T = 1.2e-15
MIN_REDUCTION = 50.0
STAGE_TIMEOUT_S = 120  # a hung CLI stage is killed and its operation fails


class OpFailed(Exception):
    """An operation's output failed its check, or a CLI stage failed."""


@dataclass
class Context:
    """Where an operation runs and how it is traced."""

    work_dir: str
    tracer: object = None
    env: dict = field(default_factory=dict)


def _within(name: str, value: float, truth: float, rel: float) -> None:
    if not abs(value / truth - 1.0) <= rel:
        raise OpFailed(f"{name} = {value:.6g}, truth {truth:.6g}, tolerance {rel:.0%}")


def _hash_arrays(h, items) -> None:
    """Feed named floats and arrays to a hash in a fixed order."""
    import numpy as np

    for name, value in items:
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value, dtype=float).tobytes())
        else:
            h.update(repr(float(value)).encode())


def _spectral_working_set(n: int) -> int:
    """Bytes of a record's two channels, the difference, and two rfft spectra."""
    return 3 * n * 8 + 2 * (n // 2 + 1) * 16


# --- cli_chain_60s ----------------------------------------------------------------


@dataclass
class StageResult:
    returncode: int
    stdout: str
    stderr: str


class CliChain:
    name = "cli_chain_60s"
    setup_module = "serfkit.cli"
    in_process = False
    n_samples = 60_000
    working_set_bytes = _spectral_working_set(n_samples)
    floor_tolerance = 0.15

    STAGES = (
        ("simulate", ["simulate", "--config", "sim.json", "--out", "rec.csv"]),
        (
            "calibrate",
            ["calibrate", "--in", "rec.csv", "--tone-freq", "10", "--tone-amp", "16e-12",
             "--f1", "49.9", "--f2", "68.8", "--out", "cal.json"],
        ),
        ("subtract", ["subtract", "--in", "rec.csv", "--cal", "cal.json", "--phase",
                      "--out", "diff.csv"]),
        ("psd_top", ["psd", "--in", "rec.csv", "--band", "2:10",
                     "--calibrate-tone", "10:16e-12", "--out", "psd_top.csv"]),
        ("psd_diff", ["psd", "--in", "diff.csv", "--band", "20:30", "--out", "psd_diff.csv"]),
    )

    def stages(self):
        return self.STAGES

    def prepare(self, seed: int, ctx: Context) -> str:
        op_dir = os.path.join(ctx.work_dir, "op")
        shutil.rmtree(op_dir, ignore_errors=True)
        os.makedirs(op_dir)
        config = {
            "sample_rate_hz": FS_HZ,
            "duration_s": self.n_samples / FS_HZ,
            "seed": seed,
            "f1_hz": F1_HZ,
            "f2_hz": F2_HZ,
            "tones": [[TONE_FREQ_HZ, TONE_AMP_T, 0.0]],
            "noise": {"common_asd_t_sqrthz": COMMON_ASD, "sensor_asd_t_sqrthz": SENSOR_ASD},
        }
        with open(os.path.join(op_dir, "sim.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
        return op_dir

    def run_stage(self, name: str, args: list, op_dir: str, ctx: Context) -> StageResult:
        if ctx.tracer is None:
            argv = [sys.executable, "-m", "serfkit", *args]
        else:
            spans_path = os.path.join(ctx.work_dir, f"spans-{name}.json")
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
            # tracemalloc slows reads several times over: warm-up operation only.
            trace_memory = "1" if ctx.tracer.op == 0 else "0"
            argv = [sys.executable, launcher, spans_path, trace_memory, *args]
            span = ctx.tracer.open("bench", f"stage:{name}")
        try:
            proc = subprocess.run(
                argv, cwd=op_dir, env=ctx.env, stdin=subprocess.DEVNULL,
                capture_output=True, text=True, check=False, timeout=STAGE_TIMEOUT_S,
            )
        finally:
            if ctx.tracer is not None:
                ctx.tracer.close(span)
        if ctx.tracer is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                ctx.tracer.merge(json.load(fh), span)
            os.unlink(spans_path)
        return StageResult(proc.returncode, proc.stdout, proc.stderr)

    def execute(self, op_dir: str, ctx: Context) -> dict:
        results = {}
        for name, args in self.stages():
            stage = self.run_stage(name, args, op_dir, ctx)
            if stage.returncode != 0 or "Traceback" in stage.stderr:
                raise OpFailed(
                    f"stage {name} exited {stage.returncode}: {stage.stderr.strip()[-300:]}"
                )
            results[name] = stage
        return {"dir": op_dir, "stages": results}

    def check(self, result: dict) -> None:
        out = json.loads(result["stages"]["psd_diff"].stdout)
        _within("difference floor", out["band_floor_t_sqrthz"], DIFF_FLOOR_T, self.floor_tolerance)

    def digest(self, result: dict, h) -> None:
        """Stage stdout, then every output file; manifests lose ``created_utc``."""
        for name, stage in result["stages"].items():
            h.update(f"{name}:{stage.stdout}".encode())
        for filename in sorted(os.listdir(result["dir"])):
            with open(os.path.join(result["dir"], filename), "rb") as fh:
                data = fh.read()
            if filename.endswith(".manifest.json"):
                manifest = json.loads(data)
                manifest.pop("created_utc", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            h.update(filename.encode() + b"\0" + data)


# --- long_record_1h ---------------------------------------------------------------


class LongRecord:
    name = "long_record_1h"
    setup_module = "serfkit"
    in_process = True
    n_samples = 3_600_000
    working_set_bytes = _spectral_working_set(n_samples)
    floor_tolerance = 0.10
    SEGMENTS = (4096, 65536)

    def prepare(self, seed: int, ctx: Context):
        from serfkit.simulator import NoiseModel, SimConfig

        return SimConfig(
            sample_rate_hz=FS_HZ,
            duration_s=self.n_samples / FS_HZ,
            seed=seed,
            f1_hz=F1_HZ,
            f2_hz=F2_HZ,
            tones=((TONE_FREQ_HZ, TONE_AMP_T, 0.0),),
            noise=NoiseModel(common_asd_t_sqrthz=COMMON_ASD, sensor_asd_t_sqrthz=SENSOR_ASD),
        )

    def execute(self, cfg, ctx: Context) -> dict:
        from serfkit import gradiometer, noisepsd, simulator

        record = simulator.simulate_record(cfg)
        ratio = gradiometer.amplitude_ratio(record, TONE_FREQ_HZ)
        cal = gradiometer.GradCalibration(ratio, F1_HZ, F2_HZ, TONE_FREQ_HZ, TONE_AMP_T)
        diff = gradiometer.subtract(record, cal, phase_correct=True)
        out = {
            "record": record,
            "amplitude_ratio": ratio,
            "diff": diff,
            "reduction_ratio": gradiometer.reduction_ratio(record, cal, TONE_FREQ_HZ),
        }
        for seg in self.SEGMENTS:
            top = noisepsd.welch_asd(record.top_t, record.sample_rate_hz, seg)
            psd_diff = noisepsd.welch_asd(diff, record.sample_rate_hz, seg)
            scale = noisepsd.calibrate_tesla(top, TONE_FREQ_HZ, TONE_AMP_T)
            out[f"psd_top_{seg}"] = top.asd_t_sqrthz
            out[f"psd_diff_{seg}"] = psd_diff.asd_t_sqrthz
            out[f"tesla_scale_{seg}"] = scale
            out[f"top_floor_2_10_{seg}"] = noisepsd.band_floor(top.scaled(scale), 2.0, 10.0)
            out[f"diff_floor_20_30_{seg}"] = noisepsd.band_floor(psd_diff, 20.0, 30.0)
            out[f"diff_floor_1_400_{seg}"] = noisepsd.band_floor(psd_diff, 1.0, 400.0)
        return out

    def check(self, result: dict) -> None:
        if not result["reduction_ratio"] >= MIN_REDUCTION:
            raise OpFailed(f"reduction ratio {result['reduction_ratio']:.3g} < {MIN_REDUCTION:g}")
        for seg in self.SEGMENTS:
            _within(f"difference floor ({seg})", result[f"diff_floor_20_30_{seg}"],
                    DIFF_FLOOR_T, self.floor_tolerance)

    def digest(self, result: dict, h) -> None:
        record = result["record"]
        _hash_arrays(h, [("top_t", record.top_t), ("bottom_t", record.bottom_t)])
        _hash_arrays(h, sorted((k, v) for k, v in result.items() if k != "record"))


# --- fit_campaign -----------------------------------------------------------------

ABS_FREQS = (389.24e12, 389.34e12, 401)
ABS_SHIFT_GHZ = 1.916
ABS_WIDTH_GHZ = 31.878
ABS_DEPTH = -0.9
ABS_NOISE = 0.002 * 0.9
HE_AMG, N2_AMG = 1.86, 0.34
RESP_FREQS = (60.0, 140.0, 201)
RESP_CENTER_HZ, RESP_HWHM_HZ, RESP_NOISE = 100.0, 8.0, 0.01
TSE_RES_HZ = (20.0, 201.0, 20.0)
T_SE_S, INTRINSIC_HWHM_HZ, TSE_NOISE = 8.6e-6, 10.45, 0.005
# (I = 3/2, q = 6): 1/T2_SE = omega0^2 T_SE * 10, so HWHM = w0 + 2 pi nu^2 T_SE * 10.
SE_FACTOR = 10.0
PHASE_FREQS = (5.0, 201.0, 5.0)
PHASE_NOISE_RAD = 0.002
FIT_TOLERANCE = 0.05


def _lorentz(f, center, hwhm, amplitude, baseline):
    return baseline + amplitude * hwhm**2 / ((f - center) ** 2 + hwhm**2)


class FitCampaign:
    name = "fit_campaign"
    setup_module = "serfkit"
    in_process = True

    def __init__(self):
        import numpy as np

        from serfkit.constants import K_D1_FREQ_HZ

        self.k_d1_hz = K_D1_FREQ_HZ
        self.abs_f = np.linspace(*ABS_FREQS)
        self.abs_clean = _lorentz(
            self.abs_f, K_D1_FREQ_HZ + ABS_SHIFT_GHZ * 1e9, ABS_WIDTH_GHZ * 1e9, ABS_DEPTH, 1.0
        )
        self.resp_f = np.linspace(*RESP_FREQS)
        self.resp_clean = _lorentz(self.resp_f, RESP_CENTER_HZ, RESP_HWHM_HZ, 1.0, 0.05)
        self.tse_res = np.arange(*TSE_RES_HZ)
        self.tse_clean = INTRINSIC_HWHM_HZ + 2.0 * np.pi * self.tse_res**2 * T_SE_S * SE_FACTOR
        self.phase_f = np.arange(*PHASE_FREQS)
        self.phase_clean = np.arctan2(
            self.phase_f * (F1_HZ - F2_HZ), self.phase_f**2 + F1_HZ * F2_HZ
        )
        arrays = (self.abs_f, self.resp_f, self.tse_res, self.phase_f)
        self.working_set_bytes = sum(2 * a.nbytes for a in arrays)

    def prepare(self, seed: int, ctx: Context) -> dict:
        import numpy as np

        rng = np.random.default_rng(seed)
        return {
            "abs": self.abs_clean + rng.normal(0.0, ABS_NOISE, len(self.abs_f)),
            "resp": self.resp_clean + rng.normal(0.0, RESP_NOISE, len(self.resp_f)),
            "tse": self.tse_clean * (1.0 + rng.normal(0.0, TSE_NOISE, len(self.tse_res))),
            "phase": self.phase_clean + rng.normal(0.0, PHASE_NOISE_RAD, len(self.phase_f)),
        }

    def execute(self, data: dict, ctx: Context) -> dict:
        from serfkit import cellchem, gradiometer, lineshape, serf

        line = lineshape.fit_lorentzian(lineshape.FrequencySweep(self.abs_f, data["abs"]))
        shift_ghz = (line.center_hz - self.k_d1_hz) / 1e9
        width_ghz = line.hwhm_hz / 1e9
        comp = cellchem.solve_composition(shift_ghz, width_ghz)
        resp = lineshape.fit_response_curve(lineshape.FrequencySweep(self.resp_f, data["resp"]))
        tse = serf.fit_tse(
            [serf.LinewidthPoint(float(f), float(w)) for f, w in zip(self.tse_res, data["tse"])]
        )
        phase = gradiometer.fit_phase_model(
            [gradiometer.PhasePoint(float(f), float(p)) for f, p in zip(self.phase_f, data["phase"])]
        )
        return {
            "shift_ghz": shift_ghz,
            "width_ghz": width_ghz,
            "he_amagat": comp.he_amagat,
            "n2_amagat": comp.n2_amagat,
            "response_hwhm_hz": resp.hwhm_hz,
            "t_se_s": tse.t_se_s,
            "f1_hz": phase.f1_hz,
            "f2_hz": phase.f2_hz,
        }

    TRUTH = {
        "shift_ghz": ABS_SHIFT_GHZ,
        "width_ghz": ABS_WIDTH_GHZ,
        "he_amagat": HE_AMG,
        "n2_amagat": N2_AMG,
        "response_hwhm_hz": RESP_HWHM_HZ,
        "t_se_s": T_SE_S,
        "f1_hz": F1_HZ,
        "f2_hz": F2_HZ,
    }

    def check(self, result: dict) -> None:
        for key, truth in self.TRUTH.items():
            _within(key, result[key], truth, FIT_TOLERANCE)

    def digest(self, result: dict, h) -> None:
        _hash_arrays(h, sorted(result.items()))


# --- demo_paper -------------------------------------------------------------------


class DemoPaper:
    name = "demo_paper"
    setup_module = "serfkit"
    in_process = True
    working_set_bytes = _spectral_working_set(60_000)
    floor_tolerance = 0.15

    def prepare(self, seed: int, ctx: Context) -> int:
        return seed

    def execute(self, seed: int, ctx: Context) -> dict:
        from serfkit import demo

        return demo.run_demo(seed)

    def check(self, result: dict) -> None:
        grad = result["gradiometer"]
        if not grad["reduction_ratio"] >= MIN_REDUCTION:
            raise OpFailed(f"reduction ratio {grad['reduction_ratio']:.3g} < {MIN_REDUCTION:g}")
        _within("difference floor", grad["difference_floor_t_sqrthz"], DIFF_FLOOR_T,
                self.floor_tolerance)

    def digest(self, result: dict, h) -> None:
        from serfkit import demo

        grad = result["gradiometer"]
        h.update(json.dumps(demo.public_results(result), sort_keys=True).encode())
        _hash_arrays(h, [("psd_top", grad["_psd_top"].asd_t_sqrthz),
                         ("psd_diff", grad["_psd_diff"].asd_t_sqrthz)])


WORKLOADS = {w.name: w for w in (CliChain, LongRecord, FitCampaign, DemoPaper)}
