"""No operator in the library can turn exact values into floats.

Integral values are held as ints, and on ints `/` and `**` with a negative
exponent give floats.  So every `/` and `**` under src/cprings has to be one
whose base or numerator is built as a `Fraction` on the spot.  This AST scan
finds each one (as an operator or an augmented assignment) and fails on any
that the list below does not name, so a new one is looked at before it lands.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module path, enclosing function, operator expression) -> why it stays exact
ALLOWED = {
    ("src/cprings/exactlin.py", "rref", "Fraction(1) / pv"):
        "the pivot inverse: a Fraction numerator, brought back to an int by frac",
}


def _inexact_ops(tree):
    """(enclosing function, expression) of each `/` and `**` in the module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Div, ast.Pow)):
            found.append((func, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_scan_finds_division_and_power():
    code = "def f(a, b):\n    a /= b\n    return a ** -b\n"
    assert _inexact_ops(ast.parse(code)) == [("f", "a /= b"), ("f", "a ** (-b)")]


def test_no_unlisted_division_or_power():
    seen = set()
    unlisted = []
    for path in sorted((ROOT / "src" / "cprings").glob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for func, expr in _inexact_ops(ast.parse(path.read_text(), str(path))):
            seen.add((rel, func, expr))
            if (rel, func, expr) not in ALLOWED:
                unlisted.append(f"{rel}: {func}: {expr}")
    assert not unlisted, "division or power outside the allow-list:\n" + "\n".join(unlisted)
    # an allow-list entry whose operator is gone is stale
    assert set(ALLOWED) <= seen, set(ALLOWED) - seen
