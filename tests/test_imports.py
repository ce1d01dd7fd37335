"""No module of the library, the tests or the scripts imports a name it
never uses, and every public function or class of the library has a caller.

No linter is part of the toolchain, so these are the checks: AST scans of
every module under src/, tests/ and scripts/.  A module uses a bound name
when the name is read anywhere in it or listed in its `__all__`; a name that
conftest imports counts as used when a test imports it from conftest.  A
public module-level function or class of src/cprings is reached when src/,
scripts/ or perfbench/ reads its name somewhere outside its own body; one
that only the tests read belongs in tests/conftest.py as an oracle.
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


# public names of src/cprings that no verb, script or benchmark reaches yet
UNREACHED = {
    ("cpring", "is_cp_invariant"): "covariance of a representation; a verb is planned (ROADMAP item 5)",
    ("cpring", "extract_j"): "J of a representation; a verb is planned (ROADMAP item 5)",
    ("cpring", "extract_tpair"): "T-pair of a representation; a verb is planned (ROADMAP item 5)",
    ("cpring", "graded_uniqueness_check"): "maximality of J; a verb is planned (ROADMAP item 5)",
    ("ideals", "graded_ideal_correspondence"): "graded ideal of a T-pair; a verb is planned (ROADMAP item 4)",
    ("ideals", "extract_tpair_from_handle"): "T-pair of a graded ideal; a verb is planned (ROADMAP item 4)",
    ("ideals", "is_psi_invariant"): "the public psi-invariance test of an ideal; the library reads "
                                    "its private twin `_psi_invariant`",
}


# dense helpers that a sparse path replaced: no module of src/cprings defines
# or imports them again
GONE = {
    "_column_residual": "a column is reduced on its nonzeros by `Subspace.residual_nz`",
    "_leg_coords": "`embed_n` and `pair` write a level's nonzeros straight into `_from_nz` (`_grade_nz`)",
    "_solve_over": "`exactlin.solve` takes the theta rows as a map's columns, given as their nonzeros",
    "_delta_map_matrix": "`finrank._delta_columns` gives Delta's columns as their nonzeros, for `kernel` and `preimage`",
    "solve_matrix": "`build_automorphism_system` inverts phi by one `exactlin.solve` per column",
    "_combine": "the membership walk's coefficient rows are nonzeros, combined by `_sum_nz`",
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


def _read_lines(tree) -> dict:
    """name -> the lines where the name is read (loaded)."""
    out: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.setdefault(node.id, []).append(node.lineno)
    return out


def test_every_export_is_reached():
    reads = {path: _read_lines(ast.parse(path.read_text(), str(path)))
             for pattern in ("src/**/*.py", "scripts/*.py", "perfbench/*.py") for path in sorted(ROOT.glob(pattern))}
    unreached = set()
    for path in sorted((ROOT / "src" / "cprings").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(line not in own or other != path
                       for other, names in reads.items() for line in names.get(node.name, ())):
                unreached.add((path.stem, node.name))
    new = sorted(unreached - set(UNREACHED))
    assert not new, "public names that nothing in src/, scripts/ or perfbench/ reads:\n" + "\n".join(map(str, new))
    # an allow-list entry that is reached, or gone, is stale
    assert set(UNREACHED) <= unreached, set(UNREACHED) - unreached


def _is_memo_field(node) -> bool:
    """Is an annotated class field `field(default_factory=dict, init=False)`,
    a dict that the object fills itself?"""
    call = node.value
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "field"):
        return False
    kw = {k.arg: k.value for k in call.keywords}
    return (isinstance(kw.get("default_factory"), ast.Name) and kw["default_factory"].id == "dict"
            and isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False)


def test_the_memo_is_one_modules_decision():
    """Every per-system cache goes through `rsystem._memo` or `rsystem._chain`:
    no module of src/cprings but `rsystem` names the memo `_store`, and no
    class but `RSystem` declares a memo field of its own."""
    naming, fields = [], []
    for path in sorted((ROOT / "src" / "cprings").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name != "rsystem.py":
            naming += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr == "_store"
                       or isinstance(node, ast.Name) and node.id == "_store"]
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            fields += [f"{path.name}:{cls.name}.{node.target.id}" for node in cls.body
                       if isinstance(node, ast.AnnAssign) and node.value is not None and _is_memo_field(node)]
    assert naming == [], naming
    assert fields == ["rsystem.py:RSystem._store"], fields


def test_replaced_dense_helpers_stay_gone():
    back = []
    for path in sorted((ROOT / "src" / "cprings").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {name for name, _ in _imported(tree)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        back += [f"{path.name}: {name} ({GONE[name]})" for name in sorted(names & set(GONE))]
    assert not back, back
