"""Import hygiene. numpy stays off the import path: only the two calibration
fits load it. And no module imports a private name from a sibling module.

Each numpy check runs in a fresh interpreter, since the test process may have
imported numpy already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv through cli.main and prints [exit code, stdout] per call as
# JSON, then whether numpy got imported. With "block" as its first argument
# numpy cannot be imported at all.
RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from vinebuckle import cli
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps([results, "numpy" in sys.modules]))
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
]


def _interpreter(code: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run_commands(tmp_path: Path, mode: str) -> tuple[list, bool, dict]:
    workdir = tmp_path / mode
    workdir.mkdir()
    for name, doc in SCENARIOS.items():
        (workdir / name).write_text(json.dumps(doc))
    results, numpy_loaded = json.loads(
        _interpreter(RUNNER, mode, json.dumps(COMMANDS), cwd=workdir)
    )
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return results, numpy_loaded, files


def test_importing_the_package_and_cli_leaves_numpy_unloaded(tmp_path):
    code = "import sys, vinebuckle, vinebuckle.cli; print('numpy' in sys.modules)"
    assert _interpreter(code, cwd=tmp_path).strip() == "False"


def test_non_fit_commands_need_no_numpy(tmp_path):
    blocked, _, blocked_files = _run_commands(tmp_path, "block")
    free, numpy_loaded, free_files = _run_commands(tmp_path, "free")
    assert [code for code, _ in blocked] == [0] * len(COMMANDS)
    assert blocked == free
    assert not numpy_loaded
    assert set(blocked_files) == set(free_files) >= {
        "grid.csv", "grid.svg", "transition.csv", "device.csv", "bare.csv", "bare.svg",
        "bare_transition.csv", "retract.csv", "grow.csv",
    }
    assert blocked_files == free_files


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
