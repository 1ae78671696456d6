#!/usr/bin/env python3
"""Mutation survey: how many small faults in one module the tier-1 tests catch.

Each mutant is one ``ast`` rewrite of ``src/vinebuckle/<module>.py``:

- a comparison's strictness flipped (``<`` and ``<=``, ``>`` and ``>=``), or
  ``==`` and ``!=`` swapped
- an arithmetic operator swapped: ``+`` and ``-``, ``*`` and ``/`` (also in
  augmented assignments)
- a nonzero float literal scaled by 1 + 1e-3

``--count`` mutants are drawn with ``--seed`` from every such site of the
module, or of the functions named by ``--function`` (a name also covers the
functions nested in it), such as one new kernel, and run in source order.
Each runs the tier-1 suite with ``-x`` on a copy of the checkout in a
temporary directory, so the checkout is never written; the unmutated copy
runs first and must pass. A mutant is killed when the suite fails or runs
past five minutes (about ten times a passing run), since a mutated loop may
never end. The script prints each survivor's site and source line, then the
kill rate.

Known equivalent mutants of ``mechanics``, which survive every run:

- ``bisect_root``: ``f_lo * f_hi > 0`` to ``>=``, and its ``*`` to ``/``: both
  ends are nonzero there, and the quotient has the product's sign (the two
  differ only where one underflows to 0).
- ``bisect_root``: ``0.5 * width_3`` to ``0.5005 * width_3``, and the Illinois
  weights ``w_lo *= 0.5`` and ``w_hi *= 0.5`` changed: they decide only which
  points are tried, and the root is bisection's either way.
- ``bisect_root``: ``2.0**180`` to ``2.002**180``: a bracket up to 1.2 * 2**180
  times the pair's width still closes within 200 halvings.
- ``bisect_root``: ``secant <= lo`` to ``<``: a secant point on ``lo`` then
  takes the midpoint, another point inside the bracket.
- ``_straight_bisect_for``: ``required <= 0`` to ``<``: at a zero required
  tension the search doubles its bracket to inf, whose gap is 0, the root.
- ``_curved_bisect_for``: ``gap(0.0) <= 0.0`` to ``<``: ``bisect_root``
  returns an end where the gap is 0.
- ``_curved_transition_for``: ``not cos_arg < 1.0`` to ``<=``, and ``not
  cos_arg > -1.0`` to ``>=``: at the bound the clamp sets the value it had.
- ``_straight_limit``: ``axial < crush`` to ``<=``: the helper returns only
  the limit, and at a tie the two are the same value.

``sim._episode`` has no known equivalent mutant: every one of its 7 sites
is killed.

Usage: python scripts/mutants.py [--module mechanics] [--count 20] [--seed 0]
       [--function NAME ...]
"""

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}
SCALE = 1 + 1e-3
TIMEOUT_S = 300.0
# what the copy of the checkout leaves out
SKIP = (".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "build", "out", ".work")


class Site(NamedTuple):
    node: int            # the node's index in ast.walk order
    op: Optional[int]    # the comparison operator's index, for a comparison
    line: int
    function: str        # dotted name of the enclosing functions, or <module>
    change: str


def _functions(tree: ast.AST) -> dict[int, str]:
    """The dotted name of the innermost function or class around each node."""
    names = {}

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if name == "<module>" else f"{name}.{child.name}"
            names[id(child)] = inner
            visit(child, inner)

    visit(tree, "<module>")
    return names


def sites(source: str) -> list[Site]:
    tree = ast.parse(source)
    functions = _functions(tree)
    found = []
    for index, node in enumerate(ast.walk(tree)):
        where = functions.get(id(node), "<module>")
        if isinstance(node, ast.Compare):
            for op_index, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    change = f"`{SYMBOLS[type(op)]}` -> `{SYMBOLS[SWAPS[type(op)]]}`"
                    found.append(Site(index, op_index, node.lineno, where, change))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            change = f"`{SYMBOLS[type(node.op)]}` -> `{SYMBOLS[SWAPS[type(node.op)]]}`"
            found.append(Site(index, None, node.lineno, where, change))
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            change = f"`{node.value!r}` -> `{node.value * SCALE!r}`"
            found.append(Site(index, None, node.lineno, where, change))
    return sorted(found, key=lambda site: (site.line, site.node))


def mutate(source: str, site: Site) -> str:
    tree = ast.parse(source)
    node = list(ast.walk(tree))[site.node]
    if isinstance(node, ast.Compare):
        node.ops[site.op] = SWAPS[type(node.ops[site.op])]()
    elif isinstance(node, ast.Constant):
        node.value *= SCALE
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree)


def run_suite(copy: Path) -> str:
    """'passed', 'failed' or 'timeout' for the tier-1 suite of the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
        "-p", "no:cacheprovider",
    ]
    # a session of its own, so that a timeout also ends the interpreters a test started
    suite = subprocess.Popen(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = suite.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(suite.pid, signal.SIGKILL)
        suite.wait()
        return "timeout"
    return "passed" if code == 0 else "failed"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--module", default="mechanics", help="a module of src/vinebuckle")
    parser.add_argument("--count", type=int, default=20, help="mutants to run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--function", action="append", default=[],
                        help="draw only from this function's sites (repeatable)")
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")

    path = ROOT / "src" / "vinebuckle" / f"{args.module}.py"
    if not path.is_file():
        parser.error(f"no module {path.relative_to(ROOT)}")
    source = path.read_text()
    lines = source.splitlines()
    pool = [
        site for site in sites(source)
        if not args.function or any(
            site.function == name or site.function.startswith(name + ".")
            for name in args.function
        )
    ]
    if not pool:
        parser.error("no mutation site in the named functions")
    chosen = random.Random(args.seed).sample(pool, min(args.count, len(pool)))
    chosen.sort(key=lambda site: (site.line, site.node))
    print(f"{len(chosen)} of {len(pool)} sites in {path.relative_to(ROOT)}, seed {args.seed}")

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*SKIP))
        target = copy / "src" / "vinebuckle" / path.name
        # the mutants are unparsed ASTs, so the baseline is the unparsed module
        target.write_text(ast.unparse(ast.parse(source)))
        if run_suite(copy) != "passed":
            print("error: the unmutated copy fails its tests", file=sys.stderr)
            return 1
        survivors = []
        for number, site in enumerate(chosen, 1):
            target.write_text(mutate(source, site))
            outcome = run_suite(copy)
            status = {"passed": "SURVIVED", "failed": "killed"}.get(outcome, outcome)
            print(f"[{number}/{len(chosen)}] {status:8s} {path.name}:{site.line} "
                  f"{site.function}: {site.change}", flush=True)
            if outcome == "passed":
                survivors.append(site)

    for site in survivors:
        print(f"survivor {path.name}:{site.line} {site.function}: {site.change}")
        print(f"    {lines[site.line - 1].strip()}")
    killed = len(chosen) - len(survivors)
    print(f"kill rate {args.module}: {killed}/{len(chosen)} ({100.0 * killed / len(chosen):.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
