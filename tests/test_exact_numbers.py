"""The number representation: an entry is an int or a Fraction, never a float.

Integral values enter as ints (`frac`), the kernels keep ints where the
arithmetic stays integral, and only `rref` divides.  Each public kernel and
structure map must return entries of exactly the types int and Fraction, on
int-only and on mixed int/Fraction inputs, and a float must be refused where
numbers enter.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import gauge, homogeneous_components, map_columns, perm3_system, square_zero_json

from cprings import cli
from cprings.exactlin import (
    QuotientSpace,
    Subspace,
    _nonzeros,
    frac,
    kernel,
    preimage,
    rref,
    solve,
    vec,
)
from cprings.graphalg import line_graph, rose_graph
from cprings.rsystem import build_graph_system, system_from_json
from cprings.tensorpow import psi_apply, tensor_space
from cprings.toeplitz import ToeplitzElement, component_space, embed, embed_n, pair, toeplitz_mul

SYSTEMS = [build_graph_system(line_graph(3)), build_graph_system(rose_graph(2)), perm3_system()]
GRADES = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]


def exact(values) -> bool:
    return all(type(x) in (int, F) for x in values)


def stored_exact(x) -> bool:
    """Are the nonzero coordinates a Toeplitz element stores exact?"""
    return all(exact(y for _, y in v) for v in x.comps.values())


def test_frac_returns_int_for_integral_values():
    for x in (3, F(6, 3), "4", "-8/2", True):
        assert type(frac(x)) is int and frac(x) == int(F(x))
    assert type(frac(F(1, 2))) is F and frac("3/6") == F(1, 2)
    assert vec([1, F(4, 2), "2/4"]) == [1, 2, F(1, 2)]
    assert [type(x) for x in vec([1, F(4, 2), "2/4", False])] == [int, int, F, int]


@pytest.mark.parametrize("text", ["007", "\u0663", "\u00b2", "+1", " 1", "1_0", "1/2", "1" * 5000, "-3", ""],
                         ids=["007", "arabic-indic-3", "superscript-2", "plus-1", "space-1", "1_0", "1/2",
                              "5000-digits", "-3", "empty"])
def test_frac_reads_numerals_as_fraction_does(text):
    """`frac` reads a string of decimal digits with `int`: the value is
    Fraction's, and a string Fraction refuses (a superscript two, a numeral
    past the int-string limit) raises the same exception type."""
    def outcome(read):
        try:
            return read(text)
        except Exception as exc:
            return type(exc)

    got, want = outcome(frac), outcome(F)
    assert got == want and type(got) is (int if isinstance(want, F) and want.denominator == 1 else type(want))


def test_rref_hand_case_divides_back_to_ints():
    rows, pivots = rref([[2, 4], [1, 3]])
    assert rows == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert all(exact(r) for r in rows)
    # a pivot of -1 keeps every entry an int
    rows, _ = rref([[-1, 2, 3], [0, 1, 1]])
    assert rows == [[1, 0, -1], [0, 1, 1]]
    assert all(type(x) is int for r in rows for x in r)
    rows, _ = rref([[3, 1]])
    assert rows == [[1, F(1, 3)]] and type(rows[0][1]) is F


def test_gauge_takes_negative_powers_exactly():
    system = SYSTEMS[0]
    q = embed(system, "Q", [1, 2])  # grade (1, 0): scaled by t^-1
    p = embed(system, "P", [1, 2])  # grade (0, 1): scaled by t
    gq, gp = gauge(2, q), gauge(2, p)
    assert gq.component((1, 0)) == (F(1, 2), 1)
    assert type(gq.component((1, 0))[0]) is F
    assert gp.component((0, 1)) == (2, 4) and exact(gp.component((0, 1)))
    assert all(type(x) is int for x in gp.component((0, 1)))


def test_floats_are_refused_where_numbers_enter(tmp_path):
    for call in (lambda: frac(0.5), lambda: vec([1, 0.5]), lambda: rref([[1, 0.5]]),
                 lambda: rref([[0.5, 1]]), lambda: solve([((0, 1),), ()], ((0, 0.5),)),
                 lambda: solve([((0, 1.0),), ()], ((0, 1),)), lambda: kernel([((0, 1),), ((0, 0.5),)]),
                 lambda: preimage([((0, 0.5),), ((0, 1),)], Subspace(1)), lambda: Subspace(2, [[0, 0.5]])):
        with pytest.raises(TypeError):
            call()
    payload = square_zero_json()
    payload["ring"]["mult"] = [[0, 0, 0, 0.5]]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(TypeError):
        system_from_json(payload)
    code, body = cli.run(["validate", str(path)])
    assert code == 2 and "TypeError" in json.loads(body)["diagnostics"][0]


def test_element_constructors_coerce_coordinates():
    system = SYSTEMS[0]  # line3: R, Q and P of dimensions 3, 2, 2
    for call in (lambda: embed(system, "R", [0.5, 0, 0]), lambda: embed(system, "Q", [0, 0.5]),
                 lambda: embed_n(system, "P", 1, [0.5, 0]), lambda: pair(system, 1, 1, [1, 0], [0.5, 0]),
                 lambda: pair(system, 2, 0, [0.5], [])):
        with pytest.raises(TypeError):
            call()
    half = embed(system, "R", ["1/2", 0, "2/2"])
    assert half.component((0, 0)) == (F(1, 2), 0, 1) and [type(x) for x in half.component((0, 0))] == [F, int, int]
    q = embed(system, "Q", ["1/3", 0])
    assert exact(toeplitz_mul(half, q).component((1, 0)))
    assert pair(system, 1, 1, ["1/2", 0], [1, 0]).comps == pair(system, 1, 1, [F(1, 2), 0], [1, 0]).comps


def test_scaling_brings_integral_products_back_to_ints(a2_system):
    """An integral product of a scaling is stored as an int, as `embed`
    stores it, and a proper fraction stays a Fraction."""
    half = ToeplitzElement(a2_system, {(1, 0): ["1/2"]})
    assert half.scale(2).comps == embed(a2_system, "Q", [1]).comps
    assert [type(v) for _, v in half.scale(2).comps[(1, 0)]] == [int]
    assert [type(v) for _, v in half.scale(F(4, 3)).comps[(1, 0)]] == [F]
    assert [type(v) for _, v in half.scale(-2).neg().comps[(1, 0)]] == [int]


def test_subspace_membership_coerces_its_argument():
    sub = Subspace(2, [[1, 3]])
    for call in (lambda: sub.contains([0.1, 0.3]), lambda: sub.coordinates([0.1, 0.3])):
        with pytest.raises(TypeError):
            call()
    assert sub.contains(["1/10", "3/10"]) and not sub.contains(["1/10", "1/3"])
    assert sub.coordinates(["1/10", "3/10"]) == [F(1, 10)] and sub.coordinates([1, 0]) is None


entries_int = st.integers(-3, 3)
entries_mixed = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def vectors(draw, n, entries):
    return [draw(entries) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([entries_int, entries_mixed]))
def test_linear_algebra_returns_exact_entries(data, entries):
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 5))
    rows = [data.draw(vectors(n, entries)) for _ in range(m)]
    red, _ = rref(rows)
    assert all(exact(r) for r in red)
    cols = map_columns(rows, n)
    x = solve(cols, _nonzeros(data.draw(vectors(m, entries))))
    assert x is None or exact(x)
    assert all(exact(y for _, y in v) for v in kernel(cols))
    sub = Subspace(n, rows)
    assert all(exact(r) for r in sub.rows)
    v = data.draw(vectors(n, entries))
    assert exact(sub.reduce(v))
    q = QuotientSpace(sub)
    assert all(type(t) is int and type(y) in (int, F) for t, y in q.project_nz(_nonzeros(v)))


def _element(data, system, entries):
    comps = {}
    for g in data.draw(st.lists(st.sampled_from(GRADES), min_size=1, max_size=3, unique=True)):
        comps[g] = data.draw(vectors(component_space(system, *g).dim, entries))
    return ToeplitzElement(system, comps)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(SYSTEMS), st.sampled_from([entries_int, entries_mixed]))
def test_structure_maps_return_exact_entries(data, system, entries):
    d = system.ring.dim
    r = data.draw(vectors(d, entries))
    for mod in (system.ring, system.q, system.p):
        m = data.draw(vectors(mod.dim, entries))
        assert exact(mod.act_left(r, m)) and exact(mod.act_right(m, r))
    for level in (1, 2):
        p = data.draw(vectors(tensor_space(system, "P", level).dim, entries))
        q = data.draw(vectors(tensor_space(system, "Q", level).dim, entries))
        assert exact(psi_apply(system, level, p, q))
    a, b = _element(data, system, entries), _element(data, system, entries)
    assert stored_exact(toeplitz_mul(a, b))
    ts = data.draw(st.lists(st.one_of(st.integers(1, 4), st.integers(-4, -1), st.fractions(F(1, 3), 3)),
                            min_size=1, max_size=4, unique=True))
    evaluations = [(t, gauge(t, a)) for t in ts]
    assert all(stored_exact(e) for _, e in evaluations)
    # distinct positive points always separate distinct degrees (a generalized
    # Vandermonde matrix with distinct positive nodes is nonsingular), while t
    # and -t do not separate an even degree from 0
    positive = [(t, e) for t, e in evaluations if t > 0]
    degrees = a.z_degrees()
    if len(positive) >= len(degrees):
        parts = homogeneous_components(positive, degrees)
        assert all(stored_exact(x) for x in parts.values())
