"""``import serfkit`` loads nothing, yet ``serfkit.X`` resolves every exported name.

``import serfkit.cli`` loads no numeric module, and a command loads only the
modules it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import serfkit

MODULES = [
    "cellchem", "constants", "errors", "fitting", "gradiometer", "lineshape", "nmrsignal",
    "noisepsd", "records", "serf", "simulator",
]

# Run in a fresh interpreter, where no other test has imported numpy or a
# serfkit module yet; prints what it saw as one JSON object.
PROBE = """
import json, sys
import serfkit
loaded = sorted(m for m in sys.modules if m.startswith("serfkit.") or m == "numpy")
exported = [name for name in serfkit.__all__ if name != "__version__"]
misplaced = [
    name for name in exported
    if getattr(sys.modules[getattr(serfkit, name).__module__], name) is not getattr(serfkit, name)
]
star = {}
exec("from serfkit import *", star)
try:
    serfkit.nope
    unknown = None
except AttributeError as err:
    unknown = str(err)
print(json.dumps({
    "loaded": loaded,
    "misplaced": misplaced,
    "exported": exported,
    "star": sorted(set(star) - {"__builtins__"}),
    "all": sorted(serfkit.__all__),
    "modules": {name: getattr(serfkit, name).__name__ for name in sys.argv[1:]},
    "dir": dir(serfkit),
    "unknown": unknown,
}))
"""


@pytest.fixture(scope="module")
def seen():
    env = dict(os.environ, PYTHONPATH=str(Path(serfkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *MODULES],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_bare_import_loads_no_submodule_and_no_numpy(seen):
    assert seen["loaded"] == []


def test_every_exported_name_is_the_object_in_its_module(seen):
    assert len(seen["all"]) == 59
    assert seen["misplaced"] == []


def test_star_import_binds_exactly_all(seen):
    assert seen["star"] == seen["all"]


def test_module_attributes_resolve(seen):
    assert seen["modules"] == {name: f"serfkit.{name}" for name in MODULES}


def test_dir_lists_all_exports_and_modules(seen):
    assert set(seen["all"]) | set(MODULES) <= set(seen["dir"])


def test_unknown_name_raises_attribute_error(seen):
    assert seen["unknown"] == "module 'serfkit' has no attribute 'nope'"


def test_deleted_forward_model_is_not_exported():
    with pytest.raises(AttributeError):
        serfkit.predict_shift_width


# Imports the CLI in a fresh interpreter, runs one command, and prints the
# serfkit modules loaded after each step as the last line of its output.
CLI_PROBE = """
import json, sys
import serfkit.cli
imported = sorted(m for m in sys.modules if m.startswith("serfkit"))
code = serfkit.cli.main(sys.argv[1:])
ran = sorted(m for m in sys.modules if m.startswith("serfkit"))
print(json.dumps({"imported": imported, "code": code, "ran": ran}))
"""


def _probe_cli(cwd, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(serfkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, *argv],
        cwd=cwd, capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["code"] == 0, proc.stderr
    return seen


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    config = {"sample_rate_hz": 1000.0, "duration_s": 8.192, "tones": [[10.0, 16e-12, 0.0]]}
    (work / "sim.json").write_text(json.dumps(config))
    return {
        "simulate": _probe_cli(work, "simulate", "--config", "sim.json", "--out", "rec.csv"),
        "psd": _probe_cli(work, "psd", "--in", "rec.csv", "--out", "psd.csv"),
    }


def _loaded(names):
    return {f"serfkit.{name}" for name in names.split()}


def test_cli_import_loads_no_numeric_module(commands):
    for seen in commands.values():
        assert {"serfkit", "serfkit.cli", "serfkit.errors"} <= set(seen["imported"])
        assert set(seen["imported"]) <= {"serfkit", *_loaded("cli errors constants")}


def test_psd_loads_only_what_it_runs(commands):
    ran = set(commands["psd"]["ran"])
    assert _loaded("dataio records noisepsd") <= ran
    assert not ran & _loaded("gradiometer fitting simulator lineshape serf cellchem nmrsignal demo")


def test_simulate_loads_only_what_it_runs(commands):
    ran = set(commands["simulate"]["ran"])
    assert _loaded("dataio simulator") <= ran
    assert not ran & _loaded("gradiometer noisepsd fitting")
