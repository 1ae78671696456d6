"""The per-cell and per-step code reads Enum members from bindings, not from
their class. On Python < 3.12 each ``Verdict.INVERT``-style read goes through
``EnumType.__getattr__`` (~150 ns, against ~10 ns for a global), so
``mechanics`` binds its hot members to module aliases and the other hot
functions bind the members they need to locals before their loops.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vinebuckle"
ENUMS = {"Verdict", "FailureMode", "ModelUsed", "TerminalKind"}

# run once per row or step: no member read anywhere in them
WHOLE = [
    ("mechanics", "predict_row"),
    ("mechanics", "predict_at_length_unchecked"),
    ("mechanics", "verdict_at_unchecked"),
    ("mechanics", "_straight_limit"),
    ("mechanics", "oracle_row_unchecked"),
    ("mechanics", "solve_pressure_row_unchecked"),
    ("mechanics", "_grounded_model"),
]
# loop once per cell or step: no member read inside a loop
LOOPS = [
    ("sweep", "_emit_svg"),
    ("sweep", "_emit_csv"),
    ("sim", "_episode"),
    ("sim", "emit_episode_csv"),
    ("cli", "_cmd_sweep"),
]


def _function(source: str, name: str) -> ast.FunctionDef:
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no top-level function {name}")


def _member_reads(nodes) -> set[str]:
    """``Enum.MEMBER`` reads (or ``module.Enum.MEMBER``) under ``nodes``."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in ENUMS:
                found.add(f"line {node.lineno}: {name}.{node.attr}")
    return found


def _per_iteration(loop: ast.AST) -> list[ast.AST]:
    """The parts of a loop that run on every iteration: not a ``for``'s
    iterable or ``else``, nor a comprehension's first iterable."""
    if isinstance(loop, ast.For):
        return loop.body
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body]
    if isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        first, *rest = loop.generators
        elements = [loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]
        return [*elements, *first.ifs, *rest]
    return []


def _loop_reads(function: ast.FunctionDef) -> set[str]:
    return _member_reads(
        part for node in ast.walk(function) for part in _per_iteration(node)
    )


def _source(module: str) -> str:
    return (SRC / f"{module}.py").read_text()


@pytest.mark.parametrize("module,name", WHOLE, ids=[name for _, name in WHOLE])
def test_row_functions_read_no_enum_class(module, name):
    assert _member_reads([_function(_source(module), name)]) == set()


@pytest.mark.parametrize("module,name", LOOPS, ids=[f"{m}.{n}" for m, n in LOOPS])
def test_hot_loops_read_no_enum_class(module, name):
    assert _loop_reads(_function(_source(module), name)) == set()


def test_the_guard_sees_reads_in_every_kind_of_loop():
    source = (
        "def f(cells):\n"
        "    for cell in cells:\n"
        "        cell is Verdict.INVERT\n"
        "    while x is mechanics.ModelUsed.CURVED:\n"
        "        pass\n"
        "    [c for c in cells if c is FailureMode.CRUSH]\n"
        "    sum(1 for c in cells for d in c if d is TerminalKind.BUCKLED)\n"
        "    for kind in (Verdict.INVERT,):\n"
        "        pass\n"
        "    return Verdict.BUCKLE\n"
    )
    function = _function(source, "f")
    assert _loop_reads(function) == {
        "line 3: Verdict.INVERT",
        "line 4: ModelUsed.CURVED",
        "line 6: FailureMode.CRUSH",
        "line 7: TerminalKind.BUCKLED",
    }
    assert _member_reads([function]) == _loop_reads(function) | {
        "line 8: Verdict.INVERT",
        "line 10: Verdict.BUCKLE",
    }

