from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import random

from conftest import (
    FAMILIES,
    dense_kernel,
    dense_preimage,
    dense_rref,
    dense_solve,
    family_system,
    kron,
    kron_vec,
    map_columns,
    project,
    mat_identity,
    mat_transpose,
)

from cprings import exactlin
from cprings.exactlin import (
    ONE,
    ZERO,
    DimensionMismatch,
    QuotientSpace,
    Subspace,
    frac,
    kernel,
    _dense,
    _nonzeros,
    matmul,
    matvec,
    preimage,
    rref,
    solve,
    unit_vec,
    vec,
    vec_add,
)
from cprings.tensorpow import tensor_space

F = Fraction


def test_frac_coercions():
    assert frac(3) == F(3)
    assert frac("2/5") == F(2, 5)
    assert frac(F(1, 7)) == F(1, 7)
    with pytest.raises(TypeError):
        frac(0.5)


def test_rref_hand_example():
    # classic rank-2 example, reduced by hand
    rows, pivots = rref([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert pivots == [0, 1]
    assert rows == [[1, 0, -1], [0, 1, 2]]


def test_rref_ragged_raises():
    with pytest.raises(DimensionMismatch):
        rref([[1, 2], [1]])


def test_solve_hand_example():
    x = solve(map_columns([[2, 1], [1, 3]], 2), ((0, 5), (1, 10)))
    assert x == [F(1), F(3)]
    # a column with no nonzero is a free unknown, read as 0
    assert solve([((0, 2),), (), ((1, 1),)], ((0, 4), (1, -1))) == [2, 0, -1]


def test_solve_inconsistent():
    assert solve(map_columns([[1, 1], [1, 1]], 2), ((1, 1),)) is None
    # a target at a coordinate that no column touches
    assert solve([((0, 1),), ((0, 2),)], ((0, 1), (3, 1))) is None
    assert solve([(), ()], ((0, 1),)) is None and solve([], ((0, 1),)) is None
    assert solve([], ()) == []


def test_solve_matrix_right_inverse():
    e = [[1, 0, 1], [0, 1, 1]]  # surjective
    cols = [solve(map_columns(e, 3), ((i, 1),)) for i in range(2)]  # one solve per column of I
    assert matmul(e, mat_transpose(cols)) == mat_identity(2)


def test_kernel_hand_example(monkeypatch):
    ker = kernel(map_columns([[1, 1, 1]], 3))
    assert len(ker) == 2
    for v in ker:
        assert matvec([[1, 1, 1]], _dense(3, v)) == [F(0)]
    # the zero map, with no equation at all: the kernel is all of Q^n
    assert kernel([(), (), ()]) == [((0, 1),), ((1, 1),), ((2, 1),)]
    assert kernel([]) == []
    # equations with one nonzero each are unit rows: no `rref` runs
    monkeypatch.setattr(exactlin, "rref", lambda *a: pytest.fail("rref called"))
    assert kernel([((0, 2),), ((1, F(-1, 2)),), (), ((5, 3),)]) == [((2, 1),)]
    assert solve([((0, 2),), ((1, 3),)], ((4, 1),)) is None
    assert solve([((0, 2),), ((1, 3),)], ()) == [0, 0]


def test_kron_vec_indexing():
    a = vec([1, 2])
    b = vec([3, 5, 7])
    kv = kron_vec(a, b)
    assert len(kv) == 6
    assert kv[0 * 3 + 1] == F(5)
    assert kv[1 * 3 + 2] == F(14)


def test_kron_matrix_vs_vector():
    a = [[F(1), F(2)], [F(0), F(1)]]
    b = [[F(2), F(0)], [F(1), F(1)]]
    x = vec([1, 3])
    y = vec([2, 5])
    lhs = matvec(kron(a, b), kron_vec(x, y))
    rhs = kron_vec(matvec(a, x), matvec(b, y))
    assert lhs == rhs


def test_subspace_membership_and_residual():
    w = Subspace(3, [[1, 1, 0], [0, 0, 1]])
    assert w.dim == 2
    assert w.contains([2, 2, 5])
    assert not w.contains([1, 0, 0])
    # canonical residual kills pivot coordinates
    r = w.reduce([3, 1, 4])
    assert r == [F(0), F(-2), F(0)]


def test_subspace_intersect_hand():
    a = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    c = a.intersect(b)
    assert c.dim == 1
    assert c.contains([0, 1, 0])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coordinate_span_is_the_rref_of_its_unit_vectors(data):
    """Indices in any order, with repeats: the same RREF rows, pivots and
    supports as `Subspace` of the unit vectors, so equal and hashing alike;
    its bitmask holds the indices, and the sum of two coordinate spans is the
    coordinate span of both index lists."""
    indices, more = (data.draw(st.lists(st.integers(0, 6), max_size=10)) for _ in range(2))
    d = data.draw(st.integers(max(indices + more, default=-1) + 1, 7))
    built, reduced = Subspace.coordinate_span(d, indices), Subspace(d, [unit_vec(d, t) for t in indices])
    assert (built.rows, built.pivots, built._support) == (reduced.rows, reduced.pivots, reduced._support)
    assert built == reduced and hash(built) == hash(reduced)
    assert built.dim == len(set(indices)) and built.is_coordinate_span()
    assert built.coordinate_mask() == sum(1 << t for t in set(indices))
    total, summed = built.add(Subspace.coordinate_span(d, more)), Subspace(d, reduced.rows + tuple(
        unit_vec(d, t) for t in more))
    assert (total.rows, total.pivots, total._support) == (summed.rows, summed.pivots, summed._support)
    if d > 1:
        assert Subspace(d, [[1, 1] + [0] * (d - 2)]).coordinate_mask() is None
    assert Subspace.coordinate_span(d, range(d)) == Subspace.full(d) == Subspace(d, mat_identity(d))


@pytest.mark.parametrize("indices", [[3], [-1], [0, 3], [1.0], ["0"], [True]])
def test_coordinate_span_rejects_bad_indices(indices):
    with pytest.raises(ValueError, match="coordinate indices"):
        Subspace.coordinate_span(3, indices)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_intersect_with_all_of_q_n_is_the_other_operand(data):
    k = data.draw(st.integers(1, 5))
    w = Subspace(k, data.draw(sparse_matrix(data.draw(st.integers(0, 4)), k)))
    full = Subspace.full(k)
    assert full.intersect(w) == w == w.intersect(full)
    assert full.intersect(full) == full


def test_quotient_project_section():
    w = Subspace(3, [[1, 1, 0]])
    q = QuotientSpace(w)
    assert q.dim == 2
    assert project(q, _nonzeros([2, 3, 4])) == [F(1), F(4)]
    # the basis is the kept coordinates: basis vector t is the class of e_free[t]
    assert q.free == (1, 2)
    assert [project(q, ((f, 1),)) for f in q.free] == mat_identity(2)


def test_preimage_hand():
    # A: Q^2 -> Q^2 projection to first coordinate, W = span{e1}
    a = map_columns([[1, 0], [0, 0]], 2)
    w = Subspace(2, [[1, 0]])
    pre = preimage(a, w)
    assert pre.dim == 2  # everything maps into W
    w2 = Subspace(2, [[0, 1]])
    pre2 = preimage(a, w2)
    assert pre2.dim == 1
    assert pre2.contains([0, 1])
    assert not pre2.contains([1, 0])
    # the zero map sends everything into W = 0
    assert preimage([(), ()], Subspace(3)) == Subspace.full(2)


# ---------------------------------------------------------------------------
# randomized cross-checks against sympy

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def small_matrix(draw, max_dim=4):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    return rows


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rref_matches_sympy(rows):
    ours, pivots = rref(rows)
    sym = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
    s_red, s_piv = sym.rref()
    assert list(pivots) == list(s_piv)
    for i, row in enumerate(ours):
        assert [sympy.Rational(x) for x in row] == list(s_red.row(i))


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_kernel_matches_sympy(rows):
    n = len(rows[0])
    ker = kernel(map_columns(rows, n))
    sym = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
    null = sym.nullspace()
    assert len(ker) == len(null)
    ours = Subspace.of_nonzeros(n, ker)
    theirs = Subspace(n, [[F(str(x)) for x in v] for v in null])
    assert ours == theirs


@settings(max_examples=60, deadline=None)
@given(small_matrix(), small_matrix())
def test_dimension_formula(rows_a, rows_b):
    n = max(len(rows_a[0]), len(rows_b[0]))
    a = Subspace(n, [r + [0] * (n - len(r)) for r in rows_a])
    b = Subspace(n, [r + [0] * (n - len(r)) for r in rows_b])
    s = a.add(b)
    i = a.intersect(b)
    assert s.dim + i.dim == a.dim + b.dim
    assert i.le(a) and i.le(b)
    assert a.le(s) and b.le(s)


@settings(max_examples=40, deadline=None)
@given(small_matrix())
def test_solve_consistency(rows):
    # A x for a known x must be solvable, and the residual must vanish
    n = len(rows[0])
    x = [F(i + 1, 2) for i in range(n)]
    b = matvec(rows, x)
    got = solve(map_columns(rows, n), _nonzeros(b))
    assert got is not None
    assert matvec(rows, got) == b


@settings(max_examples=40, deadline=None)
@given(small_matrix())
def test_preimage_property(rows):
    m, n = len(rows), len(rows[0])
    cols = map_columns(rows, n)
    w = Subspace(m, mat_transpose(rows))
    pre = preimage(cols, w)
    assert pre.dim == n  # image is always inside the column space
    zero = Subspace(m)
    ker_space = preimage(cols, zero)
    for v in ker_space.basis():
        assert matvec(rows, v) == [F(0)] * m
    # a W that holds part of the image, against the dense reference
    part = Subspace(m, mat_transpose(rows)[:1])
    assert preimage(cols, part) == dense_preimage(rows, part, n)


@settings(max_examples=40, deadline=None)
@given(small_matrix())
def test_quotient_roundtrip_random(rows):
    n = len(rows[0])
    w = Subspace(n, rows[: max(0, len(rows) - 1)])
    q = QuotientSpace(w)
    for i in range(q.dim):
        assert project(q, ((q.free[i], 1),)) == unit_vec(q.dim, i)
    # projection kills exactly W
    for r in w.basis_nz():
        assert all(x == 0 for x in project(q, r))


# ---------------------------------------------------------------------------
# the zero-skipping kernels against plain dense references
#
# Each reference is the textbook dense formula: it multiplies and adds every
# entry, zeros included.  The kernels must return equal results on sparse
# inputs of every shape, including empty ones.


def dense_vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def dense_matvec(a, x):
    return [sum((r * y for r, y in zip(row, x)), ZERO) for row in a]


def dense_matmul(a, b):
    if not b:
        return [[] for _ in a]
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for row in a
    ]


def dense_reduce(sub, v):
    """(residual, coefficients) of v against the RREF rows of `sub`."""
    out = [F(x) for x in v]
    coords = []
    for row, p in zip(sub.rows, sub.pivots):
        c = out[p]
        coords.append(c)
        out = [x - c * y for x, y in zip(out, row)]
    return out, coords


def dense_projection_matrix(q, sub):
    cols = []
    for i in range(q.ambient):
        residual, _ = dense_reduce(sub, unit_vec(q.ambient, i))
        cols.append([residual[f] for f in q.free])
    return mat_transpose(cols)


@st.composite
def sparse_matrix(draw, m, n):
    """An m x n matrix with 0-40 % nonzero entries, ints mixed with Fractions.

    Zeros come as both 0 and Fraction(0).  Some draws repeat a combination of
    two rows, so that row reduction meets dependent rows.
    """
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.0, 0.1, 0.25, 0.4]))

    def entry():
        if rnd.random() >= density:
            return rnd.choice([0, F(0)])
        x = F(rnd.choice([-1, 1]) * rnd.randint(1, 7), rnd.choice([1, 1, 2, 3]))
        return int(x) if x.denominator == 1 and rnd.random() < 0.5 else x

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m >= 2 and rnd.random() < 0.5:
        i, j = rnd.sample(range(m), 2)
        c = F(rnd.randint(-3, 3), rnd.randint(1, 2))
        rows[rnd.randrange(m)] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_dense_references(data):
    m, k, n = (data.draw(st.integers(0, 6)) for _ in range(3))
    a = data.draw(sparse_matrix(m, k))
    b = data.draw(sparse_matrix(k, n))
    x, x2 = data.draw(sparse_matrix(2, k))
    (y,) = data.draw(sparse_matrix(1, n))

    assert vec_add(x, x2) == dense_vec_add(x, x2)
    assert matvec(a, x) == dense_matvec(a, x)
    assert matmul(a, b) == dense_matmul(a, b)
    # RREF is canonical, so the rows and pivots themselves must agree
    assert rref(a) == dense_rref(a)

    sub = Subspace(k, a)
    row_sum = dense_matvec(mat_transpose(a), [ONE] * m) if m else [ZERO] * k
    for v in (x, row_sum, dense_vec_add(x, row_sum)):
        residual, coords = dense_reduce(sub, v)
        assert sub.reduce(v) == residual
        assert sub.coordinates(v) == (coords if not any(residual) else None)
    q = QuotientSpace(sub)
    # the class of every coordinate, and of x
    assert mat_transpose([project(q, ((i, 1),)) for i in range(k)]) == dense_projection_matrix(q, sub)
    assert project(q, _nonzeros(x)) == dense_matvec(dense_projection_matrix(q, sub), x)
    # the map with the rows of `a`, given as its columns' nonzeros: the
    # kernel basis and the solution (free unknowns 0) of the dense RREF,
    # the zero map's kernel (no equation, m = 0) all of Q^k included
    cols = map_columns(a, k)
    assert [_dense(k, v) for v in kernel(cols)] == dense_kernel(a, k)
    (target,) = data.draw(sparse_matrix(1, m)) if m else ([],)
    for b in (target, matvec(a, x)):
        assert solve(cols, _nonzeros(b)) == dense_solve(a, b, k)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_readers_match_dense_subspaces(data):
    """`residual_nz` is `reduce` read on nonzeros (the pairs in any order),
    `basis_nz` the nonzeros of the basis rows, and `of_nonzeros` the span of
    the dense rows, also when every row is a multiple of one unit vector."""
    m, k = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
    a = data.draw(sparse_matrix(m, k))
    (x,) = data.draw(sparse_matrix(1, k))
    sub = Subspace(k, a)
    pairs = _nonzeros(x)
    assert sub.residual_nz(pairs) == tuple(_nonzeros(sub.reduce(x)))
    assert sub.residual_nz(pairs[::-1]) == sub.residual_nz(pairs)
    assert sub.basis_nz() == [tuple(_nonzeros(r)) for r in sub.rows]
    assert Subspace.of_nonzeros(k, [_nonzeros(r) for r in a]) == sub
    units = [[c if j == t else 0 for j in range(k)]
             for t, c in data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from([1, -2, F(1, 3)])),
                                            max_size=5))]
    spans = Subspace.of_nonzeros(k, [_nonzeros(u) for u in units])
    assert spans == Subspace(k, units) and spans.is_coordinate_span()


def _span_vectors(system, rng, side: str, k: int) -> list:
    """Dense spanning vectors of level k of a leg: some of the e_a . x
    (x . e_a on P) over the level basis and a random subspace I of R (a
    coordinate span or a few random vectors), and a few random combinations
    of them, so that a span of unit vectors gets rows with several entries."""
    level, d_r = tensor_space(system, side, k), system.ring.dim
    cols = level.right if side == "Q" else level.left
    if rng.random() < 0.5:
        xs = [unit_vec(d_r, t) for t in range(d_r) if rng.random() < 0.5]
    else:
        xs = [[rng.choice((0, 0, 1, -1, F(1, 2))) for _ in range(d_r)] for _ in range(rng.randint(1, 2))]
    out = []
    for a in range(level.dim):
        for x in xs:
            v = [ZERO] * level.dim
            for i, c in _nonzeros(x):
                for t, y in cols[i][a]:
                    v[t] += c * y
            out.append(v)
    out = [v for v in out if any(v)]
    out = rng.sample(out, min(len(out), 6))
    combos = [[x + c * y for x, y in zip(rng.choice(out), rng.choice(out))]
              for c in rng.sample((1, -1, 2, F(1, 3)), rng.randint(1, 3))] if out else []
    return rng.sample(out, len(out) // 3) + combos


def _rank(vectors) -> int:
    return len(dense_rref(vectors)[1])


def _check_rref(sub, vectors, d):
    """`sub` holds exactly the dense RREF of `vectors`: pivots, supports
    right of them, the dense views and the nonzeros of the rows."""
    rows, pivots = dense_rref(vectors)
    assert sub.ambient == d and sub.pivots == tuple(pivots) and sub.dim == len(pivots)
    assert sub._support == tuple(tuple((j, r[j]) for j in range(p + 1, d) if r[j]) for r, p in zip(rows, pivots))
    assert sub.basis() == rows and sub.rows == tuple(map(tuple, rows))
    assert sub.basis_nz() == [tuple(_nonzeros(r)) for r in rows]
    return rows, pivots


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 10_000))
def test_sparse_subspaces_match_the_dense_rref_on_system_spans(family, seed):
    """Spans of level vectors of the graph, permutation, rebased and
    non-diagonal families: the stored pivots and supports, `basis()`, `==`
    and hash, `add`, `intersect`, `le`, `reduce` and `residual_nz` of the
    sparse `Subspace` agree with a dense RREF that shares no code with it."""
    rng = random.Random(seed)
    system = family_system(family, rng)
    side, k = rng.choice("QP"), rng.choice((1, 2))
    d = tensor_space(system, side, k).dim
    if d == 0:
        return
    vecs = [_span_vectors(system, rng, side, k) for _ in range(2)]
    a, b = (Subspace.of_nonzeros(d, [_nonzeros(v) for v in vs]) for vs in vecs)
    rows_a, piv_a = _check_rref(a, vecs[0], d)
    rows_b, piv_b = _check_rref(b, vecs[1], d)
    assert Subspace(d, vecs[0]) == a and hash(Subspace(d, vecs[0])) == hash(a)
    assert (a == b) == ((rows_a, piv_a) == (rows_b, piv_b))
    if a == b:
        assert hash(a) == hash(b)
    _check_rref(a.add(b), vecs[0] + vecs[1], d)
    r_sum = _rank(vecs[0] + vecs[1])
    assert a.le(b) == (r_sum == len(piv_b)) and b.le(a) == (r_sum == len(piv_a))
    meet = a.intersect(b)
    assert meet.dim == len(piv_a) + len(piv_b) - r_sum
    assert all(_rank(rows + [m]) == len(rows) for m in meet.basis() for rows in (rows_a, rows_b))
    _check_rref(meet, meet.basis(), d)
    for v in vecs[1] + [[rng.choice((0, 0, 1, -3, F(2, 3))) for _ in range(d)]]:
        out = [F(x) for x in v]
        for row, p in zip(rows_a, piv_a):
            c = out[p]
            out = [x - c * y for x, y in zip(out, row)]
        assert a.reduce(vec(v)) == out
        assert a.residual_nz(_nonzeros(v)) == tuple(_nonzeros(out))
