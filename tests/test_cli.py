"""CLI: expression grammar, verbs, exit codes, output stability.

Everything drives `cli.run` in-process except the console wiring tests.
`test_console_entry_point` runs the `cpr` target declared in `pyproject.toml`
the way a console script does, and `python -m cprings`, each in a fresh
interpreter that imports the `cprings` under test; it needs no install.
`test_installed_cpr_script` runs an installed `cpr` script, where one is on
PATH.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import (
    ORACLE_EXPRS,
    a2_graph,
    argparse_oracle,
    corner_bimodules_json,
    cycle_graph,
    dual_numbers_ring,
    dual_numbers_unit_basis_ring,
    five_vertex_mixed,
    idempotent_plus_null_json,
    infinite_emitter_graph,
    killed_vector_json,
    matrix2_ring,
    parse_argv_oracle,
    psi_zero_system,
    random_graph_element,
    square_zero_json,
    three_vertex_two_cycle,
    perm3_system,
)

from cprings import cli, rsystem
from cprings.cli import (
    EvalContext,
    ExprSyntaxError,
    UnknownGenerator,
    format_element,
    parse_element,
)
from cprings.graphalg import graph_to_json, line_graph, rose_graph
from cprings.exactlin import Subspace, mat_identity
from cprings.rsystem import build_automorphism_system, build_graph_system, system_from_json, system_to_json
from cprings.toeplitz import ToeplitzElement, embed, toeplitz_mul


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = {}
    for name, payload in [
        ("a2", graph_to_json(a2_graph())),
        ("line3", graph_to_json(line_graph(3))),
        ("rose1", graph_to_json(rose_graph(1))),
        ("rose2", graph_to_json(rose_graph(2))),
        ("rose3", graph_to_json(rose_graph(3))),
        ("3v2c", graph_to_json(three_vertex_two_cycle())),
        ("inf", graph_to_json(infinite_emitter_graph())),
        ("perm3", system_to_json(perm3_system())),
        ("psizero", system_to_json(psi_zero_system())),
    ]:
        p = root / f"{name}.json"
        p.write_text(json.dumps(payload))
        out[name] = str(p)
    return out


def run_json(*argv):
    code, body = cli.run(list(argv))
    return code, json.loads(body)


# -- parsing ----------------------------------------------------------------


def test_parse_two_token_product(files):
    sy = build_graph_system(line_graph(3))
    ctx = EvalContext(sy, line_graph(3), "toeplitz")
    x = parse_element("R:v1 * Q:e1", ctx)
    assert x == toeplitz_mul(embed(sy, "R", [1, 0, 0]), embed(sy, "Q", [1, 0]))
    assert parse_element("Q:e1", ctx) == embed(sy, "Q", [1, 0])


def test_parse_ck_relation_shape(files):
    g = a2_graph()
    sy = build_graph_system(g)
    ctx = EvalContext(sy, g, "toeplitz")
    x = parse_element("p(u) - x(e)*y(e)", ctx)
    assert x.support() == [(0, 0), (1, 1)]
    assert x.component((0, 0)) == (F(1), F(0))


def test_parse_rationals_parens_paths():
    g = line_graph(3)
    sy = build_graph_system(g)
    ctx = EvalContext(sy, g, "toeplitz")
    x = parse_element("3/2 R:v1 - 2 R:v1", ctx)
    assert x.component((0, 0)) == (F(-1, 2), F(0), F(0))
    y = parse_element("(p(v1) + p(v2)) * x(e1)", ctx)
    assert y == parse_element("x(e1)", ctx)
    path = parse_element("x(e1 e2)", ctx)
    assert path.support() == [(2, 0)]
    ghost = parse_element("y(e1 e2)", ctx)
    assert ghost.support() == [(0, 2)]
    # y(path) is the mirror of x(path): their product contracts to a vertex
    assert toeplitz_mul(path, ghost).support() == [(2, 2)]
    assert parse_element("y(e1 e2) * x(e1 e2)", ctx) == parse_element("p(v3)", ctx)
    # '-' before a coefficient subtracts after a term and is its sign at the start
    assert parse_element("p(v1)-2 p(v2)", ctx) == parse_element("p(v1) - 2 p(v2)", ctx)
    assert parse_element("x(e1)-1/2 x(e1)", ctx) == parse_element("1/2 x(e1)", ctx)
    assert parse_element("-2 p(v1)", ctx) == parse_element("p(v1) - 3 p(v1)", ctx)
    assert parse_element("p(v1) - -2 p(v2)", ctx) == parse_element("p(v1) + 2 p(v2)", ctx)


def test_parse_errors():
    g = line_graph(3)
    sy = build_graph_system(g)
    ctx = EvalContext(sy, g, "toeplitz")
    with pytest.raises(ExprSyntaxError) as exc:
        parse_element("p(v1) +", ctx)
    assert exc.value.lineno == 1 and exc.value.offset == 8
    with pytest.raises(ExprSyntaxError):
        parse_element("* p(v1)", ctx)
    with pytest.raises(ExprSyntaxError):
        parse_element("p(v1) p(v2)", ctx)
    with pytest.raises(UnknownGenerator):
        parse_element("p(nope)", ctx)
    with pytest.raises(UnknownGenerator):
        parse_element("x(e9)", ctx)
    with pytest.raises(UnknownGenerator):
        parse_element("x(e2 e1)", ctx)  # not composable
    with pytest.raises(UnknownGenerator):
        parse_element("R:bogus", ctx)
    with pytest.raises(ValueError):
        EvalContext(None, None, "lpa")  # the LPA backend needs a graph
    with pytest.raises(ValueError):
        EvalContext(None, g, "fock")  # unknown backend name


def test_round_trip_toeplitz():
    g = three_vertex_two_cycle()
    sy = build_graph_system(g)
    ctx = EvalContext(sy, g, "toeplitz")
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        x = random_graph_element(rng, sy, 3)
        if x.is_zero():
            continue
        assert parse_element(format_element(x), ctx) == x
        checked += 1


@pytest.mark.parametrize("ring, d", [(dual_numbers_ring, 2), (matrix2_ring, 4), (dual_numbers_unit_basis_ring, 2)],
                         ids=["dual", "matrix2", "dual-1u"])
def test_round_trip_non_diagonal(ring, d, tmp_path):
    """A basis class prints as its word, which over these rings is not always
    the word that was typed; the text still re-parses to an equal element."""
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(build_automorphism_system(ring(), mat_identity(d)))))
    sy = system_from_json(json.loads(path.read_text()))
    ctx = EvalContext(sy, None, "toeplitz")
    labels = sy.q.labels
    rng = random.Random(3)
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(0, 3)
            n = rng.randint(max(0, 2 - m), 3 - m)
            word = [f"Q:{rng.choice(labels)}" for _ in range(m)] + [f"P:{rng.choice(labels)}" for _ in range(n)]
            terms.append(f"{rng.randint(1, 4)} " + "*".join(word))
        x = parse_element(" + ".join(terms), ctx)
        if not x.is_zero():
            assert parse_element(format_element(x), ctx) == x
    pinned = {  # terms sorted by word; Q:1*Q:x and Q:e11*Q:e12 print as the word of their class
        dual_numbers_ring: ("3 Q:1*Q:1 + 2 Q:1*Q:x", "3 Q:1*Q:1 + 2 Q:x*Q:1"),
        matrix2_ring: ("5 Q:e22*Q:e21 + 3 Q:e12*Q:e21 + 2 Q:e11*Q:e12",
                       "3 Q:e12*Q:e21 + 2 Q:e12*Q:e22 + 5 Q:e22*Q:e21"),
    }
    if ring in pinned:
        code, out = run_json("nf", str(path), pinned[ring][0])
        assert code == 0 and out["result"]["element"] == pinned[ring][1]


def test_round_trip_lpa():
    g = three_vertex_two_cycle()
    ctx = EvalContext(None, g, "lpa")
    rng = random.Random(7)
    atoms = ["p(a)", "x(e_ab)", "y(e_ba)", "x(e_ab e_ba)", "x(e_ac)", "y(e_ab)*y(e_ba)"]
    checked = 0
    while checked < 25:
        text = " + ".join(
            f"{rng.randint(-3, 3)} {rng.choice(atoms)}" for _ in range(rng.randint(1, 3))
        )
        x = parse_element(text, ctx)
        if x.is_zero():
            continue
        assert parse_element(format_element(x), ctx) == x
        checked += 1


# -- verbs ------------------------------------------------------------------


def test_validate(files):
    code, out = run_json("validate", files["a2"])
    assert code == 0 and out["ok"] and out["result"]["failures"] == []
    code, out = run_json("validate", files["perm3"])
    assert code == 0 and out["ok"]


def test_validate_bad_system(tmp_path):
    # swapping Q's twisted right action with its plain left action breaks the
    # balance of psi (the twist by phi stops matching)
    bad = system_to_json(perm3_system())
    bad["q"]["left"], bad["q"]["right"] = bad["q"]["right"], bad["q"]["left"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, out = run_json("validate", str(p))
    assert code == 1 and not out["ok"] and out["result"]["failures"]
    first = out["result"]["failures"][0]
    # every other verb refuses the file as an input error, naming the first failures
    for argv in (["mul", str(p), "Q:v1*Q:v2", "P:v1*P:v2"],
                 ["eq", str(p), "Q:v1*P:v1", "R:v1"],
                 ["lattice", str(p)]):
        code, out = run_json(*argv)
        assert code == 2 and out["result"] is None
        assert "fails the axioms" in out["diagnostics"][0] and first in out["diagnostics"][0]


def test_jmax_example(files):
    code, out = run_json("jmax", files["a2"])
    assert code == 0
    assert out["result"]["j_max"] == ["u"]
    assert out["result"]["ker_delta"] == ["v"]
    assert out["result"]["hypothesis_ok"] is True


def test_jmax_hypothesis_fails(tmp_path):
    """When j_max meets ker Delta, `jmax` still answers, with hypothesis_ok
    false and a diagnostic."""
    path = tmp_path / "e-plus-null.json"
    path.write_text(json.dumps(idempotent_plus_null_json()))
    code, out = run_json("jmax", str(path))
    assert code == 0 and out["ok"]
    assert out["result"]["j_max"] == ["e", "n"] and out["result"]["ker_delta"] == ["n"]
    assert out["result"]["hypothesis_ok"] is False
    assert out["diagnostics"] == ["j_max meets ker Delta: maximality not guaranteed"]


def test_lattice_counts(files):
    code, body = cli.run(["lattice", files["rose2"], "--format", "dot"])
    assert code == 0
    assert body.count("label") == 3  # Toeplitz-level T-pairs of L_2
    code, out = run_json("lattice", files["line3"])
    assert code == 0
    assert len(out["result"]["tpairs"]["nodes"]) == 8
    assert len(out["result"]["graph_pairs"]["nodes"]) == 2
    code, out = run_json("lattice", files["perm3"])
    assert code == 0 and "graph_pairs" not in out["result"]


def test_lattice_infinite_emitter_fallback(files):
    code, out = run_json("lattice", files["inf"])
    assert code == 0
    assert "tpairs" not in out["result"]
    assert len(out["result"]["graph_pairs"]["nodes"]) == 6
    assert any("skipped" in d for d in out["diagnostics"])
    code, body = cli.run(["lattice", files["inf"], "--format", "dot"])
    assert code == 0 and body.startswith("digraph") and body.count("label") == 6


@pytest.mark.parametrize("data, nodes", [
    (corner_bimodules_json(), None),
    (killed_vector_json("q", True), None),
    (killed_vector_json("p", True), None),
    (killed_vector_json("q", False), 4),
    (killed_vector_json("p", False), 4),
], ids=["corners", "killed-q-fixed", "killed-p-fixed", "killed-q", "killed-p"])
def test_lattice_reports_failed_descent(tmp_path, data, nodes):
    """Where R/(e1) does not act on a leg, `lattice` fails as `tpair` does
    on I = (e1): exit 1 with the same NotInvariant diagnostic, not a skipped
    enumeration.  Where every I descends it lists the four (I, I)."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    code, out = run_json("lattice", str(path))
    if nodes is None:
        assert code == 1 and out["result"] is None
        assert out["diagnostics"] == run_json("tpair", str(path), "--i", "e1", "--j", "e1")[1]["diagnostics"]
        assert out["diagnostics"][0].startswith("NotInvariant: ")
    else:
        assert code == 0 and out["diagnostics"] == []
        assert len(out["result"]["tpairs"]["nodes"]) == nodes


def test_eq_exit_codes(files):
    code, out = run_json("eq", files["a2"], "p(u)", "x(e)*y(e)")
    assert code == 0 and out["ok"] and out["result"]["equal"]
    code, out = run_json("eq", files["a2"], "p(u)", "x(e)*y(e)", "--ring", "toeplitz")
    assert code == 1 and not out["ok"] and not out["result"]["equal"]
    code, out = run_json("eq", files["perm3"], "Q:v1*P:v2", "R:v1", "--j", "full")
    assert code == 0 and out["ok"]
    # a product above the cap is undecided (3), not "not equal" (1)
    code, out = run_json("eq", files["rose2"], "x(l1)*y(l1)", "p(v)", "--cap", "0")
    assert code == 3 and not out["ok"] and out["result"] is None
    assert out["diagnostics"][0].startswith("CapExceeded: ")


def test_mul(files):
    code, out = run_json("mul", files["a2"], "x(e)", "y(e)")
    assert code == 0 and out["result"]["support"] == [[1, 1]]
    code, out = run_json("mul", files["a2"], "y(e)", "x(e)")
    assert code == 0 and out["result"]["element"] == "R:v"
    code, out = run_json("mul", files["a2"], "x(e)", "x(e)")
    assert code == 0 and out["result"]["zero"] is True


def test_nf_backends(files):
    code, out = run_json("nf", files["a2"], "p(u) - x(e)*y(e)")
    assert code == 0 and out["result"]["backend"] == "lpa"
    assert out["result"]["zero"] is True
    code, out = run_json("nf", files["a2"], "p(u) - x(e)*y(e)", "--backend", "toeplitz")
    assert out["result"]["element"] == "R:u - Q:e*P:e"
    # printed form re-parses to the same element
    sy = build_graph_system(a2_graph())
    ctx = EvalContext(sy, a2_graph(), "toeplitz")
    assert parse_element(out["result"]["element"], ctx) == parse_element(
        "p(u) - x(e)*y(e)", ctx
    )
    code, out = run_json("nf", files["perm3"], "Q:v1 * P:v1")
    assert code == 0 and out["result"]["backend"] == "toeplitz"
    code, out = run_json("nf", files["perm3"], "R:v1", "--backend", "lpa")
    assert code == 2  # lpa backend needs a graph


def test_fs(files):
    code, out = run_json("fs", files["a2"])
    assert code == 0 and out["result"]["fs"]
    code, out = run_json("fs", files["psizero"])
    assert code == 1 and not out["ok"] and not out["result"]["fs"]


def test_tpair(files):
    code, out = run_json("tpair", files["line3"], "--i", "v3", "--j", "v3")
    assert code == 0 and out["ok"] and out["result"]["flags"]["quotient_faithful"]
    code, out = run_json("tpair", files["line3"], "--i", "", "--j", "full")
    assert code == 1 and not out["ok"]
    assert out["result"]["flags"]["quotient_faithful"] is False
    code, out = run_json("tpair", files["line3"], "--i", "zz", "--j", "full")
    assert code == 2  # unknown label
    code, out = run_json("tpair", files["line3"], "--i", "v1,v1", "--j", "v3,v1,v3")
    assert out["result"]["i"] == ["v1"] and out["result"]["j"] == ["v1", "v3"]  # one label per basis element
    assert code == 1 and out["result"]["flags"]["i_psi_invariant"] is False  # v1 emits e1 to v2


def test_tpair_needs_two_sided_j(tmp_path):
    """A T-pair is a pair of two-sided ideals: over M_2(Q) the first column
    span{e11, e21} is a left ideal only, so (0, it) is no T-pair, while
    (0, R) is."""
    path = tmp_path / "matrix2.json"
    path.write_text(json.dumps(system_to_json(build_automorphism_system(matrix2_ring(), mat_identity(4)))))
    code, out = run_json("tpair", str(path), "--i", "", "--j", "e11,e21")
    assert code == 1 and not out["ok"] and out["result"]["flags"]["j_two_sided"] is False
    code, out = run_json("tpair", str(path), "--i", "", "--j", "full")
    assert code == 0 and out["ok"]


def test_eq_names_the_failed_condition(tmp_path, files):
    """`eq --j` with a J failing one of its three conditions exits 1 and
    names that condition, in the one refusal of `CpContext`: a one-sided J
    over M_2(Q), an incompatible one where psi = 0, and an unfaithful one
    holding a sink."""
    path = tmp_path / "matrix2.json"
    path.write_text(json.dumps(system_to_json(build_automorphism_system(matrix2_ring(), mat_identity(4)))))
    for file, expr, spec, condition in [(str(path), "R:e11", "e11,e21", "two-sided"),
                                        (files["psizero"], "R:v1", "full", "psi-compatible"),
                                        (files["line3"], "R:v1", "v3", "faithful")]:
        code, out = run_json("eq", file, expr, expr, "--j", spec)
        assert code == 1 and out["result"] is None
        assert out["diagnostics"] == [f"ValueError: J is not admissible: fails {condition}"]


def test_eq_refuses_unfaithful_fock(tmp_path, files):
    """On R = Q z with z z = 0 and P = Q = 0, (FS) holds but z R = 0: `eq`
    in O(0) = T must not answer "equal" for z and 0, which `--ring toeplitz`
    tells apart; it reports an FsViolation instead, and `fs` shows why."""
    path = tmp_path / "zero1.json"
    path.write_text(json.dumps(square_zero_json()))
    code, out = run_json("fs", str(path))
    assert code == 0 and out["result"]["fs"] is True
    assert out["result"]["fock_faithful"] is False
    for name in ("a2", "line3", "rose2", "3v2c", "perm3"):
        code, out = run_json("fs", files[name])
        assert code == 0 and out["result"]["fock_faithful"] is True, name
    code, out = run_json("eq", str(path), "R:z", "R:z-R:z", "--j", "zero")
    assert code == 1 and not out["ok"] and out["result"] is None
    assert out["diagnostics"][0].startswith("FsViolation:") and "rR = 0" in out["diagnostics"][0]
    code, out = run_json("eq", str(path), "R:z", "R:z-R:z", "--ring", "toeplitz")
    assert code == 1 and out["result"]["equal"] is False


def test_quotient(files):
    code, out = run_json("quotient", files["line3"], "--i", "v3")
    assert code == 0
    assert out["result"]["system"]["ring"]["basis"] == ["v1", "v2"]
    assert out["result"]["graph"]["vertices"] == ["v1", "v2"]
    assert [e["name"] for e in out["result"]["graph"]["edges"]] == ["e1"]
    assert any("not saturated" in d for d in out["diagnostics"])
    code, out = run_json("quotient", files["a2"], "--i", "u")
    assert code == 1 and "NotInvariant" in out["diagnostics"][0]


def test_compare(files):
    for name in ("a2", "3v2c"):
        code, out = run_json("compare", files[name], "--words", "12", "--seed", "5")
        assert code == 0 and out["ok"]
        assert out["result"]["disagreements"] == []
    code, out = run_json("compare", files["perm3"])
    assert code == 2  # needs a graph


def test_gauge_split(files):
    code, out = run_json("gauge-split", files["a2"], "2 x(e) + p(v) - 3 y(e)")
    assert code == 0 and out["ok"]
    assert out["result"]["degrees"] == [-1, 0, 1]
    assert out["result"]["components"]["1"] == "2 Q:e"
    assert out["result"]["components"]["-1"] == "-3 P:e"
    code, out = run_json("gauge-split", files["a2"], "p(u) - p(u)")
    assert code == 0 and out["result"]["degrees"] == []


def test_deep_words_answer(files):
    """Levels, word classes and Fock blocks are built in loops over the
    levels, so a 1500-letter word answers instead of exhausting the stack."""
    w = " ".join(["l1"] * 1500)
    # in L(rose1) = Q[t, 1/t], x(l1^n) = t^n and y(l1^n) = t^-n
    for lhs, rhs, equal in ((f"x({w})", f"x({w})*x(l1)", False),
                            (f"x({w})*y({w})", "p(v)", True)):
        code, out = run_json("eq", files["rose1"], lhs, rhs, "--cap", "4000")
        assert (code, out["result"]["equal"]) == (int(not equal), equal)
    # under the default cap the Toeplitz side stops before a deep level; the LPA side answers
    code, out = run_json("nf", files["rose1"], f"x({w})", "--backend", "toeplitz")
    assert code == 3 and out["diagnostics"][0].startswith("CapExceeded: ")
    code, out = run_json("nf", files["rose1"], f"x({w})*y({w})")
    assert code == 0 and out["result"]["element"] == "p(v)"


def test_rose3_degree4_inequality_fits_in_memory(files):
    """The degree-4 side builds the (4,4) component: 6561 Kronecker
    coordinates and no nonzero balancing relation.  Its quotient map is a
    lookup table, not a dense 6561 x 6561 matrix (330 MiB)."""
    tracemalloc.start()
    try:
        code, out = run_json("eq", files["rose3"], "x(l1 l2 l3)*y(l1 l2 l3)",
                             "x(l1 l2 l3 l1)*y(l1 l2 l3 l1)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out["result"]["equal"]) == (1, False)
    assert peak < 32 * 2**20, peak


def test_usage_errors(files, tmp_path):
    code, out = run_json("validate", "/nonexistent/file.json")
    assert code == 2
    code, out = run_json("eq", files["a2"], "p(u) +", "p(v)")
    assert code == 2 and "column" in out["diagnostics"][0]
    code, out = run_json("nf", files["a2"], "x(zz)")
    assert code == 2 and "unknown edge" in out["diagnostics"][0]
    code, body = cli.run(["frobnicate", files["a2"]])
    assert code == 2
    code, out = run_json("eq", files["a2"], "1/0*p(u)", "p(u)")
    assert code == 2 and "zero denominator" in out["diagnostics"][0]
    for numeral in ("1" * 5000, "1/" + "1" * 5000):  # past the interpreter's int-string limit
        code, out = run_json("nf", files["a2"], numeral + " p(u)")
        assert code == 2 and "too long" in out["diagnostics"][0]
        assert "line 1, column 1" in out["diagnostics"][0]
    code, out = run_json("nf", files["a2"], "(" * 3000 + "p(u)" + ")" * 3000)
    assert code == 2 and "nested deeper" in out["diagnostics"][0]
    assert "column" in out["diagnostics"][0]
    for argv in (["compare", files["a2"], "--words", "-3"],
                 ["mul", files["a2"], "x(e)", "y(e)", "--cap", "-5"],
                 ["eq", files["a2"], "p(u)", "p(u)", "--cap", "-1"]):
        code, out = run_json(*argv)
        assert code == 2 and ">= 0" in out["diagnostics"][0]
    malformed = [
        {"vertices": 3},
        [1, 2, 3],  # not an object
        {"vertices": ["u"], "edges": [{"name": "e", "src": "u", "tgt": "w"}]},
        {"ring": {"basis": ["a"], "mult": [[0, 0, 5, "1"]]}},  # index out of range
        # negative and boolean indices, which a list lookup would wrap or read as 1
        {"ring": {"basis": ["a", "b"], "mult": [[0, 0, 0, "1"], [-1, -1, -1, "1"]]},
         "p": {"basis": []}, "q": {"basis": []}},
        {"ring": {"basis": ["a", "b"], "mult": [[0, 0, 0, "1"], [True, 1, 1, "1"]]},
         "p": {"basis": []}, "q": {"basis": []}},
        {"ring": {"basis": ["a", "b"], "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]]},
         "p": {"basis": []}, "q": {"basis": ["m"], "right": [[-1, 0, 0, "1"]]}},
        {"ring": {"basis": ["a", "b"], "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]]},
         "p": {"basis": ["m"]}, "q": {"basis": ["m"]}, "psi": [[0, -1, 1, "1"]]},
    ]
    for k, payload in enumerate(malformed):
        p = tmp_path / f"bad{k}.json"
        p.write_text(json.dumps(payload))
        code, out = run_json("validate", str(p))
        assert code == 2 and str(p) in out["diagnostics"][0]
    # a string where a list of labels belongs, which iteration would read one character at a time
    system = {"ring": {"basis": ["a", "b"], "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]]},
              "p": {"basis": ["m"]}, "q": {"basis": ["m"]}}
    labels_as_string = [{"vertices": "uv", "edges": [{"name": "e", "src": "u", "tgt": "v"}]},
                        {**system, "ring": {**system["ring"], "basis": "ab"}},
                        {**system, "p": {"basis": "m"}}, {**system, "q": {"basis": "m"}}]
    for k, payload in enumerate(labels_as_string):
        p = tmp_path / f"labels{k}.json"
        p.write_text(json.dumps(payload))
        for verb in ("validate", "lattice"):
            code, out = run_json(verb, str(p))
            assert code == 2 and "must be a list of labels" in out["diagnostics"][0], (payload, verb)
    for k, mult in enumerate(["abc", None, 2.5, 0]):
        p = tmp_path / f"badmult{k}.json"
        p.write_text(json.dumps({"vertices": ["u", "v"],
                                 "edges": [{"name": "e9", "src": "u", "tgt": "v", "mult": mult}]}))
        for argv in (["validate"], ["fs"], ["eq", "p(u)", "p(u)"], ["lattice"]):
            code, out = run_json(argv[0], str(p), *argv[1:])
            assert code == 2 and "edge 'e9'" in out["diagnostics"][0], (mult, argv)


def test_duplicate_labels_are_input_errors(tmp_path):
    """Copy 2 of an edge e of multiplicity 2 is the basis label e#2, so a
    graph that also names an edge e#2 would give two generators one label
    (and `eq` read x(e#2) as the copy, the Leavitt side as the named edge);
    a system file may not repeat a ring or module label either."""
    graph = {"vertices": ["u", "v"], "edges": [{"name": "e", "src": "u", "tgt": "v", "mult": 2},
                                               {"name": "e#2", "src": "v", "tgt": "u"}]}
    dup_ring = system_to_json(perm3_system())
    dup_ring["ring"]["basis"][2] = dup_ring["ring"]["basis"][0]
    dup_q = system_to_json(perm3_system())
    dup_q["q"]["basis"][1] = dup_q["q"]["basis"][0]
    for name, payload, label in (("graph", graph, "e#2"), ("ring", dup_ring, "v1"), ("q", dup_q, "v1")):
        p = tmp_path / f"dup-{name}.json"
        p.write_text(json.dumps(payload))
        for argv in (["validate"], ["eq", "R:v1", "R:v1"], ["nf", "p(v)", "--backend", "lpa"]):
            code, out = run_json(argv[0], str(p), *argv[1:])
            assert code == 2 and out["result"] is None, (name, argv)
            assert str(p) in out["diagnostics"][0] and label in out["diagnostics"][0]
    # without the collision, x(e#2) is copy 2 of e on both sides
    graph["edges"][1]["name"] = "f"
    p = tmp_path / "multi.json"
    p.write_text(json.dumps(graph))
    code, out = run_json("eq", str(p), "p(u)", "x(e)*y(e) + x(e#2)*y(e#2)")
    assert code == 0 and out["result"]["equal"]
    code, out = run_json("nf", str(p), "p(u) - x(e)*y(e) - x(e#2)*y(e#2)", "--backend", "lpa")
    assert code == 0 and out["result"]["zero"]
    code, out = run_json("compare", str(p), "--words", "20")
    assert code == 0 and out["result"]["disagreements"] == []


def test_non_string_labels_are_input_errors(tmp_path):
    """Labels are strings: a vertex, edge name or endpoint, or a ring or
    module basis label of another JSON type exits 2 at load, where sorting
    mixed labels raised a TypeError traceback in `lattice` and `jmax`."""
    graph = {"vertices": ["u", "v"], "edges": [{"name": "e", "src": "u", "tgt": "v"}]}
    edge = graph["edges"][0]
    system = system_to_json(perm3_system())
    cases = [{**graph, "vertices": [1, "v"], "edges": [{**edge, "src": 1}]},
             {**graph, "vertices": [1, "v"], "edges": []},
             {**graph, "edges": [{**edge, "name": 7}]},
             {**graph, "edges": [{**edge, "tgt": None}]},
             {**system, "ring": {**system["ring"], "basis": [1, "v2", "v3"]}},
             {**system, "q": {**system["q"], "basis": ["v1", True, "v3"]}},
             {**system, "p": {**system["p"], "basis": ["v1", "v2", 3]}}]
    for k, payload in enumerate(cases):
        p = tmp_path / f"labels{k}.json"
        p.write_text(json.dumps(payload))
        for verb in ("lattice", "jmax", "validate"):
            code, out = run_json(verb, str(p))
            assert code == 2 and out["result"] is None, (payload, verb)
            assert "is not a string" in out["diagnostics"][0]


def test_non_string_system_name_is_an_input_error(tmp_path):
    """A system file's "name" is a string: `5` exits 2 at load, where
    `lattice` printed it as the system's name, "system": 5."""
    p = tmp_path / "named.json"
    p.write_text(json.dumps({**system_to_json(perm3_system()), "name": 5}))
    code, out = run_json("lattice", str(p))
    assert code == 2 and out["diagnostics"] == [f'{p}: malformed input: ValueError: "name" 5 is not a string']


def test_non_string_graph_name_is_an_input_error(tmp_path):
    """A graph file's "name" is a string: `["x"]` exits 2 at load, where
    `lattice` printed "graph": ["x"] and "system": "graph:['x']"."""
    p = tmp_path / "named.json"
    p.write_text(json.dumps({**graph_to_json(a2_graph()), "name": ["x"]}))
    code, out = run_json("lattice", str(p))
    assert code == 2 and out["diagnostics"] == [f'{p}: malformed input: ValueError: "name" [\'x\'] is not a string']


def test_boolean_coefficients_are_input_errors(tmp_path):
    """A coefficient of a system file is a string or an int: `true` as a
    product, action or psi coefficient exits 2 (it was read as 1, and
    perm3's file with one `true` for a 1 validated)."""
    for key, side in (("ring", "mult"), ("q", "left"), ("p", "right"), (None, "psi")):
        data = system_to_json(perm3_system())
        triples = data[key][side] if key else data[side]
        triples[0][3] = True
        p = tmp_path / f"bool-{side}.json"
        p.write_text(json.dumps(data))
        code, out = run_json("validate", str(p))
        assert code == 2 and "boolean" in out["diagnostics"][0], side
        triples[0][3] = 1
        p.write_text(json.dumps(data))
        assert run_json("validate", str(p))[0] == 0


def test_hot_verbs_build_no_dense_view(files, monkeypatch):
    """`lattice`, `tpair`, `jmax`, `fs`, `quotient` and `eq` read a system
    through its cells: on a graph preset and on perm3's system file none of
    them builds the dense `ring.mult` or `psi.table` view."""
    built = []
    real = rsystem._dense_table
    monkeypatch.setattr(rsystem, "_dense_table", lambda *a: built.append(a) or real(*a))
    for name, i, j, lhs, rhs in (("3v2c", "c", "c", "p(a)", "x(e_ab)*y(e_ab) + x(e_ac)*y(e_ac)"),
                                 ("perm3", "", "full", "Q:v1*P:v2", "R:v1")):
        for argv in (["lattice"], ["tpair", "--i", i, "--j", j], ["jmax"], ["fs"], ["quotient", "--i", i],
                     ["eq", lhs, rhs]):
            code, out = run_json(argv[0], files[name], *argv[1:])
            assert code == 0 and out["ok"], (name, argv, out)
    assert built == []
    sy = build_graph_system(a2_graph())
    assert sy.ring.mult and sy.psi.table and len(built) == 2  # the hook sees both views


def test_eq_reads_no_dense_view(files, tmp_path, monkeypatch):
    """`eq` on the eq-session presets (a2, line3, 3v2c, cyc3, 5v-mixed and
    perm3), both verdicts: operands, Fock blocks, spans and the walk stay
    as nonzeros, so no `Subspace.basis()` or `rows` and no
    `ToeplitzElement.component` is read."""
    reads = []
    for cls, name in ((Subspace, "basis"), (ToeplitzElement, "component")):
        monkeypatch.setattr(cls, name, lambda self, *a, _real=getattr(cls, name), _name=name:
                            reads.append(_name) or _real(self, *a))
    monkeypatch.setattr(Subspace, "rows", property(lambda self, _real=Subspace.rows.fget:
                                                   reads.append("rows") or _real(self)))
    for name, graph in (("cyc3", cycle_graph(3)), ("5v-mixed", five_vertex_mixed())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph_to_json(graph)))
        files = {**files, name: str(path)}
    for name, lhs, rhs, equal in (
            ("a2", "p(u)", "x(e)*y(e)", True), ("a2", "p(v)", "x(e)*y(e)", False),
            ("line3", "p(v1)", "x(e1 e2)*y(e1 e2)", True), ("line3", "p(v2)", "x(e1 e2)*y(e1 e2)", False),
            ("3v2c", "p(a)", "x(e_ab)*y(e_ab) + x(e_ac)*y(e_ac)", True), ("3v2c", "p(a)", "x(e_ab)*y(e_ab)", False),
            ("cyc3", "p(v1)", "x(e1 e2 e3)*y(e1 e2 e3)", True), ("cyc3", "x(e1 e2)", "x(e1)", False),
            ("5v-mixed", "p(a)", "x(f_ab)*y(f_ab) + x(f_aw)*y(f_aw)", True), ("5v-mixed", "p(a)", "x(f_ab)*y(f_ab)", False),
            ("perm3", "Q:v1*P:v2", "R:v1", True), ("perm3", "Q:v1*P:v1", "R:v1", False)):
        code, out = run_json("eq", files[name], lhs, rhs)
        assert (code, out["result"]["equal"]) == (1 - equal, equal), (name, lhs, rhs, out)
    assert reads == []
    x = embed(build_graph_system(a2_graph()), "Q", [1])
    assert Subspace.full(2).rows and x.component((1, 0)) and reads == ["rows", "basis", "component"]


def test_help_returns_usage(files):
    for argv, head in ((["--help"], "usage: cpr "), (["eq", files["a2"], "-h"], "usage: cpr eq "),
                       (["lattice", "-h"], "usage: cpr lattice ")):
        code, body = cli.run(argv)
        assert code == 0 and body.startswith(head), argv
    code, body = cli.run(["--help"])
    assert all(verb in body for verb in ORACLE_EXPRS)
    # every flag the argparse oracle gives a verb, with its default and choices
    subparsers = next(a for a in argparse_oracle()._actions if a.dest == "verb").choices
    for verb, parser in subparsers.items():
        code, body = cli.run([verb, "-h"])
        assert code == 0 and body.startswith(f"usage: cpr {verb} "), verb
        flags = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        assert {a.option_strings[0] for a in flags} == set(cli._VERBS[verb].flags)
        for action in flags:
            line = next(line for line in body.splitlines() if line.startswith(f"  {action.option_strings[0]} "))
            assert f"(default: {action.default!r})" in line, (verb, line)
            assert all(choice in line for choice in action.choices or ()), (verb, line)


def test_cli_questions_build_no_argparser(monkeypatch):
    """`cli.run` over the eq-cold and lattice questions at seed 1 (and their
    `--format dot` and `table` runs) reads every command line off the verb
    table: no `argparse.ArgumentParser` is constructed."""
    import argparse
    import importlib.util

    spec = importlib.util.spec_from_file_location("payload_digest", SCRIPTS / "payload_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(a) or real(self, *a, **k))
    lines = list(digest.digest_lines(1))
    pinned = (Path(__file__).parent / "payload_digest_seed1.txt").read_text().splitlines()
    assert built == [] and lines == pinned[:-1]


@pytest.mark.parametrize("argv, code", [(["lattice", "a2"], 0),
                                        (["eq", "a2", "p(u)", "x(e)*y(e)", "--ring", "toeplitz"], 1)])
@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_keeps_the_verdict(files, argv, code, unbuffered):
    """A reader that closes stdout before `cpr` prints gets the verdict's
    exit code and nothing on stderr, where a `BrokenPipeError` traceback (exit
    1, unbuffered) or an ignored-exception note (exit 120) came.  The pipe is
    closed before the child imports anything, so the write always fails."""
    env = process_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [files[a] if a in files else a for a in argv]
    proc = subprocess.Popen([sys.executable, "-m", "cprings", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (code, b"")


# small inputs for the property below: valid graph and system files (weighted
# up), and malformed ones of every kind the loader distinguishes
_FUZZ_GRAPHS = {
    "a2": {"vertices": ["u", "v"], "edges": [{"name": "e", "src": "u", "tgt": "v"}]},
    "loops": {"vertices": ["u"], "edges": [{"name": "e", "src": "u", "tgt": "u"},
                                          {"name": "f", "src": "u", "tgt": "u"}]},
    "multi": {"vertices": ["u", "v"], "edges": [{"name": "e", "src": "u", "tgt": "v", "mult": 2},
                                               {"name": "f", "src": "v", "tgt": "u"}]},
    "inf": {"vertices": ["u", "v"], "edges": [{"name": "e", "src": "u", "tgt": "v", "mult": "inf"}]},
}
_FUZZ_BAD = {
    "badmult": {"vertices": ["u"], "edges": [{"name": "e", "src": "u", "tgt": "u", "mult": 2.5}]},
    "collide": {"vertices": ["u"], "edges": [{"name": "e", "src": "u", "tgt": "u", "mult": 2},
                                            {"name": "e#2", "src": "u", "tgt": "u"}]},
    "edgebad": {"vertices": ["u"], "edges": [{"name": "e"}]},
    "noring": {"ring": {}},
    "zero": {"ring": {"basis": ["a"], "mult": [[0, 0, 0, "1/0"]]}, "p": {"basis": []}, "q": {"basis": []}},
    "list": [1, 2],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    twisted = system_to_json(perm3_system())
    twisted["q"]["left"], twisted["q"]["right"] = twisted["q"]["right"], twisted["q"]["left"]
    payloads = {**_FUZZ_GRAPHS, **_FUZZ_BAD, "perm3": system_to_json(perm3_system()),
                "psizero": system_to_json(psi_zero_system()), "twisted": twisted}
    out = {}
    for name, payload in payloads.items():
        out[name] = root / f"{name}.json"
        out[name].write_text(json.dumps(payload))
    out["notjson"] = root / "notjson.json"
    out["notjson"].write_text("{")
    out["missing"] = root / "missing.json"
    return {k: str(v) for k, v in out.items()}


_JUNK = ["p(zz)", "x()", "Q:", "0", "1/0 p(u)"]
# 1500-letter paths: composable on `loops` only, where the Toeplitz verbs stop
# at the cap before building a deep level and the LPA backend answers
_DEEP = ["x(" + " ".join(["e"] * 1500) + ")", "y(" + " ".join(["e", "f"] * 750) + ")"]
_ATOMS = {"graph": ["p(u)", "p(v)", "x(e)", "y(e)", "x(f)", "x(e f)", "y(f e)", "x(e#2)", "R:u", "Q:e", "P:e",
                    *_DEEP * 3],
          "system": ["R:v1", "R:v2", "Q:v2", "P:v3", "Q:v1*P:v1"]}


def _expr(atoms):
    term = st.builds(lambda c, fs: c + "*".join(fs), st.sampled_from(["", "2 ", "-1/2 "]),
                     st.lists(st.sampled_from(atoms * 4 + _JUNK), min_size=1, max_size=2))
    return st.one_of(st.builds(" + ".join, st.lists(term, min_size=1, max_size=2)),
                     st.builds(lambda a, b: f"({a}) - {b}", term, term),
                     st.text(alphabet="pxyRQP:()*+-/ 01uvef#", max_size=8))


_SPECS = ["jmax", "zero", "full", "u", "u,v", "v1", "v1,v2", "bogus"]
_FLAGS = {  # the flags each verb takes, with values; every verb takes "all"
    "all": [("--cap", c) for c in ("0", "1", "2")] + [("--format", f) for f in ("json", "dot", "table")],
    "eq": [("--ring", r) for r in ("cp", "toeplitz")] + [("--j", s) for s in _SPECS],
    "nf": [("--backend", b) for b in ("auto", "toeplitz", "lpa")],
    "tpair": [(f, s) for f in ("--i", "--j") for s in _SPECS],
    "quotient": [("--i", s) for s in _SPECS],
    "compare": [("--words", "3"), ("--seed", "5")],
}
_BAD_FLAGS = [("--cap", "-1"), ("--cap", "x"), ("--format", "xml"), ("--ring", "other"),
              ("--backend", "lpa"), ("--i", "u"), ("--words", "-1"), ("-h",)]
_N_EXPRS = {"mul": 2, "eq": 2, "nf": 1, "gauge-split": 1}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_never_raises(fuzz_files, data):
    """Any verb, file, expressions and flags: `run` returns an exit code of
    0, 1, 2 or 3 and never raises.  Paths have at most two edges or 1500;
    a deep path exceeds every cap the flags allow, so no deep level is
    built."""
    valid = list(_FUZZ_GRAPHS) + ["perm3", "psizero"]
    name = data.draw(st.sampled_from(valid * 3 + sorted(set(fuzz_files) - set(valid))))
    verb = data.draw(st.sampled_from([*cli._VERBS, "bogus"]))
    n = _N_EXPRS.get(verb, 0) + data.draw(st.sampled_from([0, 0, 0, 1]))
    expr = _expr(_ATOMS["graph" if name in _FUZZ_GRAPHS else "system"])
    flags = _FLAGS["all"] + _FLAGS.get(verb, [])
    flag = st.sampled_from(flags * 3 + _BAD_FLAGS)
    argv = [verb, fuzz_files[name], *(data.draw(expr) for _ in range(n)),
            *(x for f in data.draw(st.lists(flag, max_size=2)) for x in f)]
    code, body = cli.run(argv)
    assert code in (0, 1, 2, 3) and isinstance(body, str), argv


# argv tokens for the differential test against the argparse oracle: expressions
# that start with '-', and flags exact, abbreviated, joined by '=', missing
# their value, bad, unknown or belonging to another verb
_ARGV_EXPRS = ["p(u)", "x(e)*y(e)", "-2 p(u)", "-1", "-x", "-2*p(u)", "-", "", "--"]
_ARGV_FLAGS = [*(f for flags in _FLAGS.values() for f in flags), ("--form", "table"), ("--ca", "2"), ("--r", "toeplitz"),
               ("--w", "3"), ("--b", "lpa"), ("--cap=3",), ("--form=dot",), ("--j=u",), ("--ca=1",), ("--cap=",),
               ("--cap",), ("--j",), ("--format",), ("--cap", "--format", "json"), ("--j", "--cap=2"),
               ("--bogus",), ("--=x",), ("-h", "--=x"),
               ("--",), ("--",), ("-h",), ("--help",), ("--he",), ("-hh",), ("-hx",), ("--help=x",)]


def _reads_alike(got, want) -> bool:
    """Whether argparse's namespace `want` is `got`.  argparse dropped an
    operand `--` that follows the first `--` from the EXPRs, leaving `nf`
    or `eq` one short (a traceback); the verb table keeps it."""
    if len(want.get("exprs", ())) == ORACLE_EXPRS[want["verb"]]:
        return got == want
    exprs = list(got.get("exprs", ()))
    if "--" not in exprs:
        return False
    exprs.remove("--")
    return {**got, "exprs": exprs} == want


def _operands_split_by_a_flag(got, refusal) -> bool:
    """The one deliberate relaxation: argparse read operands only in runs
    between flags, so it refused the two EXPRs of `eq` or `mul` with a flag
    between them ("required: EXPR") and a `--` with no operand after it
    that follows a flag ("unrecognized arguments: --").  The verb table
    reads either as the question written with its flags first and its
    operands after `--`."""
    canonical = [got["verb"], *(f"--{k}={v}" for k, v in got.items() if k not in ("verb", "file", "exprs")),
                 "--", got["file"], *got.get("exprs", ())]
    split = ORACLE_EXPRS[got["verb"]] == 2 and refusal == "the following arguments are required: EXPR"
    kind, want = parse_argv_oracle(canonical)
    return (split or refusal == "unrecognized arguments: --") and kind == "ok" and _reads_alike(got, want)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(data=st.data())
def test_parse_argv_matches_argparse(files, data):
    """Wherever the argparse oracle accepts a command line, `_parse_argv`
    reads the same namespace; where it answers with help, so does `run`,
    with the same usage head; where it refuses, `run` exits 2, except for
    operands split by a flag."""
    verb = data.draw(st.sampled_from([*ORACLE_EXPRS, "bogus"]))
    n_ops = max(0, 1 + ORACLE_EXPRS.get(verb, 0) + data.draw(st.sampled_from([-1, 0, 0, 0, 0, 0, 1])))
    argv = [verb, files["a2"], *(data.draw(st.sampled_from(_ARGV_EXPRS)) for _ in range(n_ops - 1))][:n_ops + 1]
    own = _FLAGS["all"] + _FLAGS.get(verb, [])  # weighted up
    for chunk in data.draw(st.lists(st.sampled_from(own * 3 + _ARGV_FLAGS), max_size=3)):
        at = data.draw(st.sampled_from([0, *list(range(1, len(argv) + 1)) * 3]))  # rarely before the verb
        argv[at:at] = chunk
    kind, want = parse_argv_oracle(argv)
    try:
        got = ("ok", vars(cli._parse_argv(argv)))
    except cli._HelpRequested as exc:
        got = ("help", str(exc))
    except cli._UsageError as exc:
        got = ("usage", str(exc))
    event(f"oracle {kind}, verb table {got[0]}")
    if kind == "ok":
        assert got[0] == "ok" and _reads_alike(got[1], want), (argv, want, got)
    elif kind == "help":
        code, body = cli.run(argv)
        assert code == 0 and body.split()[:3] == want.split()[:3], (argv, body)
    elif got[0] == "ok":
        assert _operands_split_by_a_flag(got[1], want), (argv, want, got)
    else:
        assert cli.run(argv)[0] == 2, (argv, want)


def test_parse_argv_rules():
    """The rules the verb table reads a command line by, one case each."""
    def parsed(*argv):
        return vars(cli._parse_argv(list(argv)))

    base = {"verb": "eq", "file": "F", "cap": 6, "format": "json", "ring": "cp", "j": "jmax", "exprs": ["a", "b"]}
    assert parsed("eq", "F", "a", "b") == base
    assert parsed("eq", "--ri", "toeplitz", "F", "--form=table", "a", "b", "--cap=1", "--cap", "2") == {
        **base, "ring": "toeplitz", "format": "table", "cap": 2}
    assert parsed("eq", "F", "--j=", "--", "-2 p(u)", "--cap") == {**base, "j": "", "exprs": ["-2 p(u)", "--cap"]}
    assert parsed("eq", "F", "-1", "-2 p(u)")["exprs"] == ["-1", "-2 p(u)"]
    for argv, message in ((["eq", "F", "a", "-x", "b"], "unrecognized arguments: -x"),
                          (["eq", "F", "a", "b", "--j", "--cap=2"], "argument --j: expected one argument"),
                          (["eq", "F", "a", "b", "--j"], "argument --j: expected one argument"),
                          (["eq", "F", "a", "b", "--i", "v"], "unrecognized arguments: --i v"),
                          (["eq", "F", "a", "b", "--ring", "lpa"], "argument --ring: invalid choice: 'lpa'"),
                          (["eq", "F", "a", "b", "-h", "--=x"], "ambiguous option: --=x"),
                          (["eq", "F", "a"], "the following arguments are required: EXPR"),
                          (["eq"], "the following arguments are required: file, EXPR"),
                          (["bogus", "F"], "argument verb: invalid choice: 'bogus'")):
        with pytest.raises(cli._UsageError, match=re.escape(message)):
            cli._parse_argv(argv)
    for argv in (["eq", "F", "--he"], ["-h", "eq"], ["lattice", "-hh"]):
        with pytest.raises(cli._HelpRequested):
            cli._parse_argv(argv)


def test_operands_split_by_a_flag_parse(files):
    """`eq FILE A --cap 3 B` asks what `eq FILE A B --cap 3` asks, and a
    `--` after the last flag ends nothing; argparse refused both."""
    for split, joined, refusal in (
            (["eq", files["a2"], "p(u)", "--cap", "3", "x(e)*y(e)"], ["eq", files["a2"], "p(u)", "x(e)*y(e)", "--cap", "3"],
             "the following arguments are required: EXPR"),
            (["lattice", files["a2"], "--format", "json", "--"], ["lattice", files["a2"], "--format", "json"],
             "unrecognized arguments: --")):
        assert parse_argv_oracle(split) == ("usage", refusal)
        got = vars(cli._parse_argv(split))
        assert got == parse_argv_oracle(joined)[1] and _operands_split_by_a_flag(got, refusal)
        assert cli.run(split) == cli.run(joined) and cli.run(joined)[0] == 0


def test_operand_after_double_dash(files):
    """After `--` ends the flags, a second `--` is an operand: `nf FILE -- --`
    parses `--` as its expression (a syntax error, exit 2), where argparse
    dropped it and `nf` raised an IndexError."""
    assert parse_argv_oracle(["nf", files["a2"], "--", "--"])[1]["exprs"] == []
    code, out = run_json("nf", files["a2"], "--", "--")
    assert code == 2 and "column" in out["diagnostics"][0]
    code, out = run_json("eq", files["a2"], "--", "-2 p(u)", "--")
    assert code == 2 and "column" in out["diagnostics"][0]
    assert run_json("eq", files["a2"], "--cap=2", "--", "-1 p(u)", "--help")[0] == 2  # an EXPR, not help


def test_outputs_deterministic(files):
    a = cli.run(["lattice", files["3v2c"]])
    b = cli.run(["lattice", files["3v2c"]])
    assert a == b
    a = cli.run(["jmax", files["line3"]])
    b = cli.run(["jmax", files["line3"]])
    assert a == b


def test_table_format(files):
    code, body = cli.run(["jmax", files["a2"], "--format", "table"])
    assert code == 0
    assert "j_max" in body and '"u"' in body and not body.startswith("{")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_cpr_target():
    """The `module:function` that `[project.scripts]` names for `cpr`."""
    text = PYPROJECT.read_text()
    return re.search(r'^cpr\s*=\s*"([^"]+)"', text, re.M).group(1)


def process_env() -> dict:
    """The environment with the directory of the imported `cprings` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_process(argv):
    """Run argv in `process_env()`."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=process_env())
    sys.stderr.write(proc.stderr)  # pytest shows it when the test fails
    return proc


def assert_cpr_verdicts(cpr, files):
    """Check stdout and exit codes of the command list `cpr`; return its jmax run."""
    jmax = run_process([*cpr, "jmax", files["a2"]])
    assert jmax.returncode == 0
    out = json.loads(jmax.stdout)
    assert out["result"]["j_max"] == ["u"]
    proc = run_process(
        [*cpr, "eq", files["a2"], "p(u)", "x(e)*y(e)", "--ring", "toeplitz"]
    )
    assert proc.returncode == 1
    return jmax


def test_console_entry_point(files):
    module, func = declared_cpr_target().split(":")
    # The wrapper pip writes for a console script.
    script = f"import sys; from {module} import {func}; sys.exit({func}())"
    jmax = assert_cpr_verdicts([sys.executable, "-c", script], files)
    proc = run_process([sys.executable, "-m", "cprings", "jmax", files["a2"]])
    assert (proc.returncode, proc.stdout) == (jmax.returncode, jmax.stdout)


@pytest.mark.skipif(
    shutil.which("cpr") is None, reason="no installed cpr script on PATH"
)
def test_installed_cpr_script(files):
    assert_cpr_verdicts([shutil.which("cpr")], files)


SCRIPTS = PYPROJECT.parent / "scripts"


@pytest.mark.parametrize("argv", [["crossed_walkthrough.py"], ["lattice_atlas.py"],
                                  ["lattice_atlas.py", "--dot", "rose2"],
                                  ["payload_digest.py", "--seed", "1"],
                                  ["payload_digest.py", "--seed", "4099"]])
def test_scripts_run(argv):
    """The scripts run end to end against the library they import."""
    proc = run_process([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]])
    assert proc.returncode == 0 and proc.stdout.strip()
    if "--dot" in argv:
        assert proc.stdout.startswith("digraph tpairs {")
    if argv[0] == "payload_digest.py":
        *calls, total = proc.stdout.splitlines()
        assert re.fullmatch(r"total [0-9a-f]{64}", total)
        assert {line.split()[2] for line in calls} >= {"eq", "lattice", "lattice:dot", "lattice:table"}
        # payloads and exit codes are pinned at seeds 1 and 4099: a change that
        # alters them on purpose, or alters the benchmark's questions,
        # regenerates both files
        pinned = (Path(__file__).parent / f"payload_digest_seed{argv[2]}.txt").read_text().splitlines()
        for got, want in zip(proc.stdout.splitlines(), pinned):
            assert got == want, f"payload of `{' '.join(want.split()[:3])}` changed: {got!r}"
        assert len(calls) + 1 == len(pinned)


def test_rose4_degree4_equality_fits_in_memory(tmp_path):
    """`x(w)*y(w)` against the sum of `x(w li)*y(w li)`, w = l1 l2 l3 l4, on
    rose4: its (5,5) component has 1048576 Kronecker coordinates, and the
    elements, their Fock blocks and the walk keep only nonzeros (44.7 MiB
    traced when components were dense tuples)."""
    path = tmp_path / "rose4.json"
    path.write_text(json.dumps(graph_to_json(rose_graph(4))))
    w = "l1 l2 l3 l4"
    rhs = "+".join(f"x({w} l{i})*y({w} l{i})" for i in range(1, 5))
    tracemalloc.start()
    try:
        code, body = cli.run(["eq", str(path), f"x({w})*y({w})", rhs])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, json.loads(body)["result"]["equal"]) == (0, True)
    assert peak < 20 * 2**20, peak
