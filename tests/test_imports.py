"""What importing the package and running each command loads."""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ufesim
from ufesim.cli import main

FIXTURE = Path(__file__).parent / "data" / "points_sample.csv"
CLI = {"ufesim", "ufesim.cli", "ufesim.errors"}

# Runs main(argv) in a fresh interpreter; the last stdout line reports its
# exit code, the ufesim modules it imported and whether it imported numpy,
# dataclasses and inspect.
PROBE = """\
import json, sys
from ufesim.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({
    "code": code,
    "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "ufesim"),
    "numpy": "numpy" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
}))
"""


def run_fresh(*args: str, code: str = PROBE, env=None) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def records_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("records") / "records.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", str(FIXTURE), "-o", str(out)]) == 0
    return out


SIMULATE = ["simulate", "--records", "{records}", "--a", "Alpha_One", "--n", "40"]
SIMULATOR = {"sidecar", "pools", "simulate", "counterfactual", "scoring", "rng", "forking"}


# argv (with {records}, {uncached}, {out} and {fixture} filled in), exit
# code, the modules beyond the CLI's that the command loads, and whether
# it loads numpy.  {uncached} is a copy of the records CSV with no
# sidecar, so the command misses: it parses the CSV and rewrites the
# sidecar, columns, tallies and all.
@pytest.mark.parametrize(
    "argv, exit_code, loaded, numpy",
    [
        (["--version"], 0, set(), False),
        (SIMULATE, 2, set(), False),  # no --b: a usage error
        (SIMULATE + ["--b", "Beta_Two"], 0, SIMULATOR, False),
        (
            ["simulate", "--records", "{uncached}", "--a", "Alpha_One", "--b", "Beta_Two",
             "--n", "40"],
            0,
            SIMULATOR | {"records", "analytics"},
            True,
        ),
        (["list-players", "--records", "{records}"], 0, {"sidecar"}, False),
        (["list-players", "--records", "{uncached}"], 0, {"sidecar", "records", "analytics"}, True),
        (
            ["stats", "--records", "{records}", "--out-dir", "{out}"],
            0,
            {"sidecar", "analytics"},
            False,
        ),
        (
            ["stats", "--records", "{records}", "--out-dir", "{out}", "--svg"],
            0,
            {"sidecar", "analytics", "svg"},
            False,
        ),
        (
            ["stats", "--records", "{uncached}", "--out-dir", "{out}"],
            0,
            {"sidecar", "analytics", "records"},
            True,
        ),
        (
            ["ingest", "{fixture}", "-o", "{out}/r.csv"],
            0,
            {"ingest", "notation", "records", "sidecar", "analytics", "forking"},
            True,
        ),
    ],
    ids=["version", "usage-error", "simulate", "simulate-miss", "list-players",
         "list-players-miss", "stats", "stats-svg", "stats-miss", "ingest"],
)
def test_each_command_imports_only_what_it_runs(
    argv, exit_code, loaded, numpy, records_csv, tmp_path
):
    uncached = shutil.copy(records_csv, tmp_path / "uncached.csv")
    fill = {"records": records_csv, "uncached": uncached, "out": tmp_path, "fixture": FIXTURE}
    proc = run_fresh(*(arg.format(**fill) for arg in argv))
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == exit_code
    assert set(report["modules"]) == CLI | {f"ufesim.{m}" for m in loaded}
    assert report["numpy"] == numpy
    # What loads no numpy (a usage error, --version and every hit) loads
    # no dataclasses, nor the inspect it imports: the records on those
    # paths are NamedTuples.  ingest and a miss load records, which may.
    if not numpy:
        assert not report["dataclasses"] and not report["inspect"]


def test_notation_imports_no_numpy():
    # The notation decoder takes its codes from sidecar, as a numpy-free
    # per-file reader for ingest would.
    proc = run_fresh(
        code="import json, sys\n"
        "import ufesim.notation\n"
        "print(json.dumps({'modules': sorted(m for m in sys.modules"
        " if m.partition('.')[0] == 'ufesim'), 'numpy': 'numpy' in sys.modules}))\n"
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {
        "modules": ["ufesim", "ufesim.errors", "ufesim.notation", "ufesim.sidecar"],
        "numpy": False,
    }


# Runs `stats` in a fresh interpreter on records with no sidecar, so that
# main loads numpy; reports OPENBLAS_NUM_THREADS, the BLAS numpy was built
# with and, on Linux, how many threads the process has once numpy is loaded.
THREADS = """\
import contextlib, io, json, os, sys
from ufesim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except Exception:  # a numpy too old for mode="dicts", or no BLAS entry
    blas = None
print(json.dumps({"code": code, "setting": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "blas": blas, "tasks": tasks}))
"""


@pytest.mark.parametrize("setting", [None, "2"], ids=["default", "user-set"])
def test_cli_keeps_openblas_to_one_thread_unless_told(setting, records_csv, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    uncached = shutil.copy(records_csv, tmp_path / "uncached.csv")
    argv = ["stats", "--records", str(uncached), "--out-dir", str(tmp_path)]
    report = json.loads(run_fresh(*argv, code=THREADS, env=env).stdout.splitlines()[-1])
    assert report["code"] == 0
    assert report["setting"] == (setting or "1")
    # Only OpenBLAS reads the setting; another BLAS or extension may start threads.
    blas = (report["blas"] or "").lower()
    if setting is None and report["tasks"] is not None and "openblas" in blas:
        assert report["tasks"] == 1


def test_every_export_is_its_defining_modules_object():
    for name in ufesim.__all__:
        if name == "__version__":
            continue
        module = import_module(f"ufesim.{ufesim._EXPORTS[name]}")
        value = getattr(ufesim, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__


def test_dir_covers_all_and_unknown_names_raise():
    assert set(ufesim.__all__) <= set(dir(ufesim))
    with pytest.raises(AttributeError, match="no_such_name"):
        ufesim.no_such_name  # noqa: B018


def test_star_import_in_a_fresh_interpreter():
    proc = run_fresh(
        code="import sys\n"
        "import ufesim\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'ufesim'))\n"
        "from ufesim import *\n"
        "print([n for n in ufesim.__all__ if n not in globals()])\n"
    )
    assert proc.stdout.splitlines() == ["['ufesim']", "[]"]
