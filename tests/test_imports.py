"""What importing the package and running each command loads."""
from __future__ import annotations

import contextlib
import io
import json
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
# exit code and the ufesim modules it imported.
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
}))
"""


def run_fresh(*args: str, code: str = PROBE) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120
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
SIMULATOR = {"records", "pools", "simulate", "counterfactual", "scoring", "rng"}


# argv (with {records}, {out} and {fixture} filled in), exit code, and the
# modules beyond the CLI's that the command loads.
@pytest.mark.parametrize(
    "argv, exit_code, loaded",
    [
        (["--version"], 0, set()),
        (SIMULATE, 2, set()),  # no --b: a usage error
        (SIMULATE + ["--b", "Beta_Two"], 0, SIMULATOR),
        (["list-players", "--records", "{records}"], 0, {"records", "analytics"}),
        (["stats", "--records", "{records}", "--out-dir", "{out}"], 0, {"records", "analytics"}),
        (
            ["stats", "--records", "{records}", "--out-dir", "{out}", "--svg"],
            0,
            {"records", "analytics", "svg"},
        ),
        (["ingest", "{fixture}", "-o", "{out}/r.csv"], 0, {"ingest", "notation", "records"}),
    ],
    ids=["version", "usage-error", "simulate", "list-players", "stats", "stats-svg", "ingest"],
)
def test_each_command_imports_only_what_it_runs(argv, exit_code, loaded, records_csv, tmp_path):
    fill = {"records": records_csv, "out": tmp_path, "fixture": FIXTURE}
    proc = run_fresh(*(arg.format(**fill) for arg in argv))
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == exit_code
    assert set(report["modules"]) == CLI | {f"ufesim.{m}" for m in loaded}
    if not loaded:
        assert not report["numpy"]


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
