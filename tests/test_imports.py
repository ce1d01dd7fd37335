"""No module of the library, the tests or the scripts imports a name it never uses.

No linter is part of the toolchain, so this is the check: an AST scan of
every module under src/, tests/ and scripts/.  A module uses a bound name
when the name is read anywhere in it or listed in its `__all__`; a name that
conftest imports counts as used when a test imports it from conftest.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module path, name) pairs that are imported on purpose without being read
ALLOWED = {
    # perfbench's tracer rebinds `cpring.matvec`, and its own test checks
    # that the binding is restored; `cpring` no longer calls it
    ("src/cprings/cpring.py", "matvec"): "rebound by perfbench/test_perfbench.py",
}


def _sources():
    for pattern in ("src/**/*.py", "tests/*.py", "scripts/*.py"):
        yield from sorted(ROOT.glob(pattern))


def _imported(tree):
    """The (name, line) bound by each import in the module, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _read_names(tree) -> set:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return names


def _from_conftest(trees) -> set:
    """The names some test imports from conftest."""
    return {alias.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "conftest" for alias in node.names}


def test_no_unused_imports():
    trees = {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), str(path)) for path in _sources()}
    reexported = _from_conftest(trees.values())
    unused = []
    for rel, tree in trees.items():
        read = _read_names(tree)
        if rel == "tests/conftest.py":
            read |= reexported
        unused += [f"{rel}:{line}: {name}" for name, line in _imported(tree)
                   if name not in read and (rel, name) not in ALLOWED]
    assert not unused, "unused imports:\n" + "\n".join(unused)
    # an allow-list entry whose import is gone is stale
    for rel, name in ALLOWED:
        assert name in {n for n, _ in _imported(trees[rel])}, (rel, name)
