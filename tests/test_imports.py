"""Import hygiene. numpy stays off the import path: only the aperture fit
loads it. Each CLI command loads only the vinebuckle modules it runs, and
the package namespace loads a module on first use of one of its names. No
module imports a private name from a sibling module, and ``mechanics`` states
each model's limit in its helper and in the copies it names.

Each numpy and module-loading check runs in a fresh interpreter, since the
test process has imported every module already.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import vinebuckle

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

# Runs each argv through cli.main and prints [exit code, stdout, stderr] per
# call as JSON, then whether numpy got imported, then the vinebuckle modules
# loaded after each call. With "block" as its first argument numpy cannot be
# imported at all.
RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from vinebuckle import cli
results, loaded = [], []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "vinebuckle"))
print(json.dumps([results, "numpy" in sys.modules, loaded]))
"""

SCENARIOS = {
    "retract.json": {"initial_length_cm": 300, "pressure_kpa": 2.0, "device": True,
                     "kappa_per_m": 0.444, "step_cm": 2.0},
    "grow.json": {"mode": "grow", "initial_length_cm": 0, "target_length_cm": 300,
                  "pressure_schedule": [[0, 1.5], [300, 3.0]]},
}

COMMANDS = [
    ["predict", "--pressure-kpa", "2", "--length-cm", "100"],
    ["predict", "--pressure-kpa", "2", "--length-cm", "50", "--kappa-per-m", "0.444", "--json"],
    ["predict", "--pressure-kpa", "2", "--length-cm", "300", "--device"],
    ["predict", "--pressure-kpa", "2", "--length-cm", "300", "--device", "--json"],
    ["transition", "--pressure-kpa", "2", "--kappa-per-m", "0.444"],
    ["transition", "--pressure-kpa", "2", "--kappa-per-m", "0.444", "--json"],
    ["device", "info"],
    ["device", "info", "--json"],
    ["sweep", "--kappa-per-m", "0.22", "--p", "0:10:20", "--l", "0:300:20",
     "--out-csv", "grid.csv", "--out-svg", "grid.svg",
     "--out-transition-csv", "transition.csv", "--oracle-check", "--json"],
    ["sweep", "--p", "0:10:10", "--l", "0:300:10", "--device", "--efficiency", "0.5",
     "--out-csv", "device.csv", "--oracle-check"],
    ["sweep", "--p", "0:10:20", "--l", "0:300:20", "--out-csv", "bare.csv",
     "--out-svg", "bare.svg", "--out-transition-csv", "bare_transition.csv", "--oracle-check"],
    ["simulate", "--scenario", "retract.json", "--out-csv", "retract.csv", "--json"],
    ["simulate", "--scenario", "grow.json", "--out-csv", "grow.csv"],
    ["fit", "inversion", "--csv", str(DATA / "tension_sweep.csv")],
    ["fit", "inversion", "--csv", str(DATA / "tension_sweep.csv"), "--json"],
]
NUMPY_COMMANDS = [
    ["fit", "aperture", "--csv", str(DATA / "aperture_force.csv"), "--shape", "circle", "--json"],
]

# What importing cli loads: every command builds a body and a device.
CLI_MODULES = ["vinebuckle", "vinebuckle.cli", "vinebuckle.device", "vinebuckle.mechanics",
               "vinebuckle.units", "vinebuckle.version"]
# The modules each command loads beyond those.
LOADS = {"predict": [], "transition": [], "device": [], "fit": ["vinebuckle.calibration"],
         "sweep": ["vinebuckle.sweep"], "simulate": ["vinebuckle.sim"]}


def _interpreter(code: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _workdir(tmp_path: Path, name: str) -> Path:
    workdir = tmp_path / name
    workdir.mkdir()
    for scenario, doc in SCENARIOS.items():
        (workdir / scenario).write_text(json.dumps(doc))
    return workdir


def _run_commands(tmp_path: Path, mode: str) -> tuple[list, bool, dict]:
    workdir = _workdir(tmp_path, mode)
    results, numpy_loaded, _ = json.loads(
        _interpreter(RUNNER, mode, json.dumps(COMMANDS), cwd=workdir)
    )
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return results, numpy_loaded, files


def test_importing_the_package_and_cli_leaves_numpy_unloaded(tmp_path):
    code = "import sys, vinebuckle, vinebuckle.cli; print('numpy' in sys.modules)"
    assert _interpreter(code, cwd=tmp_path).strip() == "False"


def test_every_command_but_fit_aperture_needs_no_numpy(tmp_path):
    blocked, _, blocked_files = _run_commands(tmp_path, "block")
    free, numpy_loaded, free_files = _run_commands(tmp_path, "free")
    assert [code for code, *_ in blocked] == [0] * len(COMMANDS)
    assert blocked == free
    assert not numpy_loaded
    assert set(blocked_files) == set(free_files) >= {
        "grid.csv", "grid.svg", "transition.csv", "device.csv", "bare.csv", "bare.svg",
        "bare_transition.csv", "retract.csv", "grow.csv",
    }
    assert blocked_files == free_files


def test_fit_aperture_without_numpy_exits_1_with_one_error_line(tmp_path):
    results, _, _ = json.loads(
        _interpreter(RUNNER, "block", json.dumps(NUMPY_COMMANDS), cwd=_workdir(tmp_path, "fit"))
    )
    message = "error: this command needs numpy, which is not installed\n"
    assert results == [[1, "", message]] * len(NUMPY_COMMANDS)


@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    numpy_commands = NUMPY_COMMANDS if importlib.util.find_spec("numpy") else []
    commands = [argv for argv in COMMANDS + numpy_commands if argv[0] == command]
    results, _, loaded = json.loads(
        _interpreter(RUNNER, "free", json.dumps(commands), cwd=_workdir(tmp_path, command))
    )
    assert [code for code, *_ in results] == [0] * len(commands)
    assert loaded == [sorted(CLI_MODULES + LOADS[command])] * len(commands)


def test_importing_the_package_loads_only_its_version(tmp_path):
    code = (
        "import json, sys, vinebuckle; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'vinebuckle')))"
    )
    assert json.loads(_interpreter(code, cwd=tmp_path)) == ["vinebuckle", "vinebuckle.version"]


def test_star_import_binds_every_public_name(tmp_path):
    code = (
        "import json, vinebuckle; ns = {}; exec('from vinebuckle import *', ns); "
        "print(json.dumps([n for n in vinebuckle.__all__ "
        "if n not in ns or ns[n] is not getattr(vinebuckle, n)]))"
    )
    assert json.loads(_interpreter(code, cwd=tmp_path)) == []


def test_a_submodule_resolves_after_a_bare_import(tmp_path):
    code = "import vinebuckle; print(vinebuckle.sim.__name__, vinebuckle.sweep.__name__)"
    assert _interpreter(code, cwd=tmp_path).split() == ["vinebuckle.sim", "vinebuckle.sweep"]


CONCURRENT_FIRST_USE = """
import json, sys, threading, vinebuckle
sys.setswitchinterval(1e-6)
names = ["classify_grid", "Scenario", "fit_inversion_force", "BodySpec", "sim", "units"]
barrier = threading.Barrier(8)
seen, errors = [], []
def use():
    barrier.wait()
    try:
        seen.append(tuple(id(getattr(vinebuckle, name)) for name in names))
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=use) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(json.dumps([errors, len(seen), len(set(seen)), any(t.is_alive() for t in threads)]))
"""


def test_concurrent_first_use_gives_every_thread_the_same_objects(tmp_path):
    # more threads than cores, a short switch interval, all released at once
    assert json.loads(_interpreter(CONCURRENT_FIRST_USE, cwd=tmp_path)) == [[], 8, 1, False]


def test_each_public_name_is_its_home_module_object():
    names = [name for name in vinebuckle.__all__ if name != "__version__"]
    assert sorted(names) == sorted(vinebuckle._HOME)
    for name in names:
        home = importlib.import_module(f"vinebuckle.{vinebuckle._HOME[name]}")
        assert getattr(vinebuckle, name) is getattr(home, name), name


def test_dir_lists_every_public_name_and_submodule():
    assert set(dir(vinebuckle)) >= {*vinebuckle.__all__, "cli", "sim", "sweep", "units"}


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        vinebuckle.no_such_name
    assert not hasattr(vinebuckle, "no_such_name")


def _private_sibling_imports(path: Path) -> list[str]:
    """``from .module import _name`` (or ``from vinebuckle.module import _name``)
    statements in one source file; dunders such as ``__version__`` are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level == 1 or (node.module or "").split(".")[0] == "vinebuckle"
        for alias in node.names if sibling else ():
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    sources = sorted((SRC / "vinebuckle").glob("*.py"))
    assert len(sources) >= 9
    assert [hit for path in sources for hit in _private_sibling_imports(path)] == []


# the axial force's divisor, den_const + den_slope * L * L
AXIAL_DIVISOR = re.compile(r"\w+ \+ \w+ \* (\w+) \* \1")


def _limit_divisions(tree: ast.Module) -> tuple[Counter, Counter]:
    """The divisions that state a limit, counted per top-level function: the
    axial force, and P*A*R over the clamped moment arm (a
    ``_moment_arm_clamped`` call, or a name ``arm``)."""
    axial, curved = Counter(), Counter()
    for function in tree.body:
        for node in ast.walk(function):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                divisor = ast.unparse(node.right)
                if AXIAL_DIVISOR.fullmatch(divisor):
                    axial[function.name] += 1
                elif divisor == "arm" or divisor.startswith("_moment_arm_clamped("):
                    curved[function.name] += 1
    return axial, curved


def test_each_limit_is_stated_in_its_helper_and_the_named_copies():
    # the one-length kernels, the force functions and the closed forms'
    # residuals call the helpers; the row evaluator's loop keeps a copy for
    # speed, and the bisection gaps and the oracle's row keep theirs to stay
    # independent checks
    tree = ast.parse((SRC / "vinebuckle" / "mechanics.py").read_text())
    axial, curved = _limit_divisions(tree)
    assert axial == {
        "_axial_force": 1, "predict_row": 1, "_straight_bisect_for": 1, "oracle_row_unchecked": 1,
    }
    assert curved == {
        "_curved_limit": 1, "predict_row": 2, "_curved_bisect_for": 2, "oracle_row_unchecked": 1,
    }
