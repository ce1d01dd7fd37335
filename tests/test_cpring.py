"""Relative Cuntz-Pimsner quotients, checked against Leavitt path algebras.

For a graph system with J = j_max the quotient is the Leavitt path algebra,
so `evaluate` into LPA normal forms is an independent equality oracle for
`cp_equal` / `in_relation_ideal`.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    ZeroScalar,
    a2_graph,
    dual_numbers_ring,
    gauge,
    homogeneous_components,
    matrix2_ring,
    perm3_system,
    psi_zero_system,
    rebase_legs,
    relation_generators,
    right_annihilator,
    span_reading_j,
    square_zero_json,
    three_vertex_two_cycle,
    mat_identity,
)

from cprings.crossedprod import crossed_representation
from cprings.exactlin import Subspace, frac, unit_vec
from cprings.finrank import FsViolation, canonical_ideals, check_fs, left_annihilator
from cprings.graphalg import LpaElement, line_graph, lpa_vertex, lpa_x, lpa_y, rose_graph
from cprings.ideals import TPair, graded_ideal_correspondence, validate_tpair
from cprings.rsystem import build_automorphism_system, build_graph_system, system_from_json
from cprings.tensorpow import CapExceeded, ideal_image, tensor_space
from cprings.toeplitz import (
    InvalidRepresentation,
    Mat,
    Representation,
    embed,
    embed_n,
    evaluate,
    fock_apply,
    toeplitz_mul,
    z_project,
)
from cprings.cpring import (
    CompatibleIdeal,
    ContextMismatch,
    CpContext,
    cp_equal,
    extract_j,
    extract_tpair,
    graded_uniqueness_check,
    in_relation_ideal,
    is_cp_invariant,
    validate_ideal,
)

from conftest import random_graph_element

from cprings import cpring, exactlin


def _span(system, vecs):
    return Subspace(system.ring.dim, [list(map(frac, v)) for v in vecs])


def _jmax_context(system, **kw):
    j = validate_ideal(system, canonical_ideals(system)["j_max"])
    assert j.ok
    return CpContext(system, j, **kw)


def test_a_block_with_its_only_nonzero_at_index_0_is_read():
    """On the one-loop graph u -> u, x = 2 P(e) - 2 Q(e) P(e) P(e) is 0 in
    O(j_max), where Q(e) P(e) = 1, and not 0 in the Toeplitz ring (J = 0).
    Its level-1 -> level-0 Fock block is one column whose only nonzero sits
    at coordinate 0; a reader that tested that column with `any` over its
    indices would skip the block and accept x at J = 0."""
    system = build_graph_system(rose_graph(1))
    q, p = embed(system, "Q", [1]), embed(system, "P", [1])
    x = 2 * p - 2 * toeplitz_mul(q, toeplitz_mul(p, p))
    assert fock_apply(x, 1) == {0: (((0, 2),),)}
    zero, jmax = CpContext(system, validate_ideal(system, Subspace(1))), _jmax_context(system)
    assert not in_relation_ideal(zero, x)
    assert in_relation_ideal(jmax, x)
    # on a span: at J = 0 the level-1 blocks of x1 = P(e) and x2 = P(e) + Q(e) P(e) P(e)
    # leave the combination x1 - x2, whose level-2 block is again one entry at
    # coordinate 0, so the span's walk meets the same trap on a sum of two blocks
    x1 = p
    x2 = p + toeplitz_mul(q, toeplitz_mul(p, p))
    for ctx, want in ((zero, []), (jmax, [[2, -1]])):
        rows = cpring._graded_preimage(system, ctx._zero, ctx.j.ideal, [x1, x2], ctx.cap)
        assert Subspace.of_nonzeros(2, rows) == Subspace(2, want)


def test_one_element_verdict_runs_no_elimination(monkeypatch):
    """One element's walk is a zero test on each residual: no `kernel` runs,
    and once the context's spans exist no `rref` either (Subspace builds
    included), on members and non-members alike."""
    rng = random.Random(32)
    cases = []
    for system in (build_graph_system(line_graph(3)), build_graph_system(rose_graph(2)),
                   build_graph_system(three_vertex_two_cycle()), perm3_system()):
        ctx = _jmax_context(system)
        gens = [cpring._core_generator(ctx, v) for v in ctx.j.ideal.basis()]
        for _ in range(12):
            a = random_graph_element(rng, system)
            cases.append((ctx, a))
            cases.append((ctx, toeplitz_mul(toeplitz_mul(a, rng.choice(gens)), random_graph_element(rng, system))))
    first = [in_relation_ideal(ctx, x) for ctx, x in cases]
    assert any(first) and not all(first)
    calls = []
    monkeypatch.setattr(cpring, "kernel", lambda *a: calls.append("kernel"))
    monkeypatch.setattr(exactlin, "rref", lambda *a: calls.append("rref"))
    assert [in_relation_ideal(ctx, x) for ctx, x in cases] == first
    assert calls == []


# ---------------------------------------------------------------------------
# ideal validation


def test_validate_jmax_a2(a2_system):
    j = validate_ideal(a2_system, _span(a2_system, [[1, 0]]))
    assert j.ok


def test_validate_zero_and_full(line3_system):
    zero = validate_ideal(line3_system, _span(line3_system, []))
    assert zero.ok and zero.ideal.is_zero()
    full = validate_ideal(line3_system, Subspace.full(3))
    assert full.is_two_sided and full.is_psi_compatible
    assert not full.is_faithful  # 1_{v3} is a sink, hence in ker Delta


def test_validate_not_two_sided(mixed5):
    system = build_graph_system(mixed5)
    j = validate_ideal(system, _span(system, [[1, 1, 0, 0, 0]]))
    assert not j.is_two_sided


def test_validate_matches_canonical(mixed5):
    system = build_graph_system(mixed5)
    j = validate_ideal(system, canonical_ideals(system)["j_max"])
    assert j.ok and j.ideal.dim == 3


@pytest.mark.parametrize("make, rows, message", [
    (lambda: build_automorphism_system(matrix2_ring(), mat_identity(4)), [[1, 0, 0, 0]], "two-sided"),
    (psi_zero_system, [[0, 1]], "psi-compatible"),
    (lambda: build_graph_system(line_graph(3)), [[0, 0, 1]], "faithful"),
    (psi_zero_system, [[1, 1]], "two-sided, psi-compatible"),
    (lambda: build_graph_system(line_graph(3)), [[1, 1, 0], [0, 0, 1]], "two-sided, faithful"),
], ids=["one-sided", "incompatible", "unfaithful", "two-conditions", "two-sided-and-faithful"])
def test_context_names_the_failed_conditions(make, rows, message):
    """A J failing some of its conditions: the context refuses it, naming
    each failed condition in the order two-sided, compatible, faithful."""
    system = make()
    j = validate_ideal(system, _span(system, rows))
    assert not j.ok
    with pytest.raises(ValueError) as exc:
        CpContext(system, j)
    assert str(exc.value) == "J is not admissible: fails " + message


# ---------------------------------------------------------------------------
# relation generators and membership


def test_a2_generator_shape(a2_system):
    ctx = _jmax_context(a2_system)
    gens = relation_generators(ctx, 0, 0)
    assert len(gens) == 1
    expected = embed(a2_system, "R", [1, 0]).sub(
        toeplitz_mul(embed(a2_system, "Q", [1]), embed(a2_system, "P", [1])))
    assert gens[0] == expected  # p_u - x_e y_e
    assert set(gens[0].support()) <= {(0, 0), (1, 1)}


def test_zero_ideal_no_generators(a2_system):
    ctx = CpContext(a2_system, validate_ideal(a2_system, _span(a2_system, [])))
    assert relation_generators(ctx, 0, 0) == []
    x = embed(a2_system, "Q", [1])
    assert not in_relation_ideal(ctx, x)
    assert in_relation_ideal(ctx, x.sub(x))


def test_generators_are_members(a2_system):
    ctx = _jmax_context(a2_system)
    for k in range(2):
        for l in range(2):
            for g in relation_generators(ctx, k, l):
                assert in_relation_ideal(ctx, g)


def test_faithful_ideal_keeps_ring_injective(a2_system):
    ctx = _jmax_context(a2_system)
    assert not in_relation_ideal(ctx, embed(a2_system, "R", [1, 0]))
    assert not in_relation_ideal(ctx, embed(a2_system, "R", [0, 1]))


def test_rose_ck_relation():
    rose = rose_graph(1)
    system = build_graph_system(rose)
    ctx = _jmax_context(system)
    xy = toeplitz_mul(embed(system, "Q", [1]), embed(system, "P", [1]))
    pv = embed(system, "R", [1])
    assert in_relation_ideal(ctx, xy.sub(pv))
    assert cp_equal(ctx.element(xy), ctx.element(pv))
    # y x = p_v holds already in the Toeplitz ring (full contraction)
    yx = toeplitz_mul(embed(system, "P", [1]), embed(system, "Q", [1]))
    assert yx == pv


def test_line3_vertex_relations(line3_system):
    ctx = _jmax_context(line3_system)
    for i in range(2):  # v1, v2 are the non-sinks
        pv = embed(line3_system, "R", unit_vec(3, i))
        xy = toeplitz_mul(embed(line3_system, "Q", unit_vec(2, i)),
                          embed(line3_system, "P", unit_vec(2, i)))
        assert cp_equal(ctx.element(pv), ctx.element(xy))
    assert not cp_equal(ctx.element(embed(line3_system, "R", unit_vec(3, 0))),
                        ctx.element(embed(line3_system, "R", unit_vec(3, 1))))


def test_cp_element_arithmetic(a2_system):
    ctx = _jmax_context(a2_system)
    a = ctx.element(embed(a2_system, "Q", [1]))
    b = ctx.element(embed(a2_system, "R", [1, 1]))
    assert (a + b - b) == a
    assert (frac(3) * a - a - a - a).is_zero()
    other = CpContext(a2_system, ctx.j)
    with pytest.raises(ContextMismatch):
        cp_equal(a, other.element(embed(a2_system, "Q", [1])))


def test_membership_cap():
    system = build_graph_system(rose_graph(1))
    ctx = _jmax_context(system, cap=3)
    # x(l1 l1) is t^2 in L(rose1) = Q[t, 1/t]: decided exactly within the cap
    q2 = embed_n(system, "Q", 2, [1])
    assert in_relation_ideal(ctx, q2) is False
    # its Fock block from level 0 lands on level 4 > cap
    q4 = embed_n(system, "Q", 4, [1])
    with pytest.raises(CapExceeded):
        in_relation_ideal(ctx, q4)


# ---------------------------------------------------------------------------
# LPA oracle: CP ring at j_max is the Leavitt path algebra


class _LpaRep:
    """Duck-typed representation with Leavitt-path-algebra values."""

    def __init__(self, graph, system):
        self.graph = graph
        verts = list(graph.vertices)
        edges = [e.name for e in graph.edges]
        self._r = [lpa_vertex(graph, v) for v in verts]
        self._q = [lpa_x(graph, e) for e in edges]
        self._p = [lpa_y(graph, e) for e in edges]

    def _comb(self, images, coords):
        acc = LpaElement(self.graph, {})
        for c, img in zip(coords, images):
            if c:
                acc = acc + frac(c) * img
        return acc

    def sigma(self, r):
        return self._comb(self._r, r)

    def t(self, q):
        return self._comb(self._q, q)

    def s(self, p):
        return self._comb(self._p, p)


@pytest.mark.parametrize("make_graph", [three_vertex_two_cycle, lambda: rose_graph(1)])
def test_cp_equal_matches_lpa(make_graph):
    graph = make_graph()
    system = build_graph_system(graph)
    ctx = _jmax_context(system)
    rep = _LpaRep(graph, system)
    rng = random.Random(11)
    agree = 0
    for _ in range(30):
        a = random_graph_element(rng, system)
        b = random_graph_element(rng, system)
        structural = in_relation_ideal(ctx, a.sub(b))
        oracle = evaluate(a, rep) == evaluate(b, rep)
        assert structural == oracle
        agree += structural == oracle
    assert agree == 30


def test_relation_ideal_killed_by_lpa(a2_system, a2):
    ctx = _jmax_context(a2_system)
    rep = _LpaRep(a2, a2_system)
    rng = random.Random(5)
    zero = LpaElement(a2, {})
    for k in range(2):
        for l in range(2):
            for g in relation_generators(ctx, k, l):
                assert evaluate(g, rep) == zero
    for _ in range(10):
        a = random_graph_element(rng, a2_system, ctx_free_degree=1)
        g = relation_generators(ctx, 0, 0)[0]
        prod = toeplitz_mul(toeplitz_mul(a, g), a)
        assert in_relation_ideal(ctx, prod)
        assert evaluate(prod, rep) == zero


# ---------------------------------------------------------------------------
# representations: invariance and ideal extraction


def _a2_matrix_rep():
    e11 = Mat([[1, 0], [0, 0]])
    e12 = Mat([[0, 1], [0, 0]])
    e21 = Mat([[0, 0], [1, 0]])
    e22 = Mat([[0, 0], [0, 1]])
    return Representation(Mat.zero(2), r_images=[e11, e22], q_images=[e12], p_images=[e21])


def test_is_cp_invariant(a2_system):
    rep = _a2_matrix_rep()
    assert is_cp_invariant(a2_system, rep, _span(a2_system, [[1, 0]]))
    assert not is_cp_invariant(a2_system, rep, _span(a2_system, [[0, 1]]))
    assert is_cp_invariant(a2_system, rep, _span(a2_system, []))


def test_extract_j_and_tpair(a2_system):
    rep = _a2_matrix_rep()
    j = extract_j(a2_system, rep)
    assert j.dim == 1 and j.contains([frac(1), frac(0)])
    i, j2 = extract_tpair(a2_system, rep)
    assert i.is_zero()
    assert j2 == j


def test_extract_refuses_invalid(a2_system):
    rep = _a2_matrix_rep()
    bad = Representation(rep.zero, r_images=rep.r_images,
                         q_images=rep.p_images, p_images=rep.q_images)
    with pytest.raises(InvalidRepresentation):
        extract_j(a2_system, bad)


def test_extract_zero_dim_rep(a2_system):
    rep = Representation(Mat.zero(0), r_images=[Mat.zero(0)] * 2,
                         q_images=[Mat.zero(0)], p_images=[Mat.zero(0)])
    i, j = extract_tpair(a2_system, rep)
    assert i.dim == 2  # ker sigma = R
    assert j.dim == 2


def _unit(n, i, j):
    """The n x n matrix unit E_ij (0-based)."""
    return Mat([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


def _zero_rep(system):
    z = Mat.zero(0)
    return Representation(z, [z] * system.ring.dim, [z] * system.q.dim, [z] * system.p.dim)


def _point_rep(system, vertex):
    """The 1-dimensional representation of a graph system that is 1 at one
    vertex idempotent and 0 elsewhere, with T = S = 0 (the vertex's edges all
    leave it, so T(e) = sigma(s(e)) T(e) sigma(r(e)) = 0)."""
    ring = system.ring
    return Representation(Mat.zero(1), [Mat([[int(label == vertex)]]) for label in ring.labels],
                          [Mat([[0]])] * system.q.dim, [Mat([[0]])] * system.p.dim)


def _line3_matrix_units(system):
    """sigma(v_k) = E_kk, T(e_k) = E_k,k+1, S(e_k~) = E_k+1,k."""
    return Representation(Mat.zero(3), [_unit(3, k, k) for k in range(3)],
                          [_unit(3, k, k + 1) for k in range(2)], [_unit(3, k + 1, k) for k in range(2)])


def _direct_sum(a, b):
    da, db = len(a.zero.rows), len(b.zero.rows)

    def block(x, y):
        return Mat([list(r) + [0] * db for r in x.rows] + [[0] * da + list(r) for r in y.rows])

    return Representation(Mat.zero(da + db), *[[block(x, y) for x, y in zip(xs, ys)] for xs, ys in (
        (a.r_images, b.r_images), (a.q_images, b.q_images), (a.p_images, b.p_images))])


# line3 with its legs re-presented: q'_1 = e1 + e2 and p'_0 = e1~ + e2~, so
# the (FS) certificate pairs different indices of Q and P
_CHANGE_Q, _CHANGE_P = [[1, 1], [0, 1]], [[1, 0], [1, 1]]
_A2, _LINE3 = (lambda: build_graph_system(a2_graph())), (lambda: build_graph_system(line_graph(3)))
_LINE3_REBASED = lambda: rebase_legs(_LINE3(), _CHANGE_Q, _CHANGE_P)


def _rebased_rep(rep):
    """`rep` read in the bases of `_LINE3_REBASED`: T(q'_a) = sum_b A[b][a] T(m_b)."""
    def images(old, change):
        return [sum((change[b][a] * img for b, img in enumerate(old)), rep.zero)
                for a in range(len(old))]

    return Representation(rep.zero, rep.r_images, images(rep.q_images, _CHANGE_Q), images(rep.p_images, _CHANGE_P))


@pytest.mark.parametrize("make_system, make_rep", [
    (_A2, lambda s: _a2_matrix_rep()),
    (_A2, lambda s: _point_rep(s, "u")),
    (_A2, _zero_rep),
    (_LINE3, _zero_rep),
    (perm3_system, _zero_rep),
    (_LINE3, _line3_matrix_units),
    (_LINE3, lambda s: _point_rep(s, "v1")),
    (_A2, lambda s: _direct_sum(_a2_matrix_rep(), _point_rep(s, "u"))),
    (_A2, lambda s: _direct_sum(_a2_matrix_rep(), _a2_matrix_rep())),
    (_LINE3, lambda s: _direct_sum(_line3_matrix_units(s), _point_rep(s, "v1"))),
    (_LINE3, lambda s: _direct_sum(_point_rep(s, "v1"), _zero_rep(s))),
    (_LINE3_REBASED, lambda s: _rebased_rep(_line3_matrix_units(s))),
    (_LINE3_REBASED, lambda s: _rebased_rep(_direct_sum(_line3_matrix_units(s), _point_rep(s, "v1")))),
], ids=["a2-matrix", "a2-at-u", "a2-zero", "line3-zero", "perm3-zero", "line3-units",
        "line3-at-v1", "a2-matrix+at-u", "a2-matrix+matrix", "line3-units+at-v1", "line3-at-v1+zero",
        "line3-rebased-units", "line3-rebased-units+at-v1"])
def test_covariance_is_read_one_way(make_system, make_rep):
    """J_(S,T,sigma) read through the (FS) frame (`extract_j`) equals the
    span reading sigma^-1(span{T(q) S(p)}) of `conftest.span_reading_j`, on
    injective, non-injective and zero representations; `is_cp_invariant(J)`
    is J <= J_(S,T,sigma) on random J; and (ker sigma, J_(S,T,sigma)) is a
    T-pair."""
    system = make_system()
    rep = make_rep(system)
    j = extract_j(system, rep)
    assert j == span_reading_j(system, rep)
    rng = random.Random(system.ring.dim * 100 + len(rep.zero.rows))
    d = system.ring.dim
    for _ in range(20):
        rows = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(d)] for _ in range(rng.randint(0, d))]
        sub = _span(system, rows)
        assert is_cp_invariant(system, rep, sub) == sub.le(j)
    assert is_cp_invariant(system, rep, j)
    i, j2 = extract_tpair(system, rep)
    assert j2 == j
    assert validate_tpair(system, i, j).ok


def test_covariance_on_ring_targets(a2_system, a2, perm3):
    """`is_cp_invariant` reads any target with ring operations: on the
    Leavitt target of a2, J_(S,T,sigma) is j_max = span{u}; on perm3's
    crossed-product target it is all of R."""
    lpa = _LpaRep(a2, a2_system)
    assert is_cp_invariant(a2_system, lpa, _span(a2_system, [[1, 0]]))
    assert not is_cp_invariant(a2_system, lpa, _span(a2_system, [[0, 1]]))
    assert not is_cp_invariant(a2_system, lpa, _span(a2_system, [[1, 1]]))
    assert is_cp_invariant(perm3, crossed_representation(perm3), Subspace.full(3))


def test_covariance_needs_fs():
    """psi-zero fails (FS): its zero representation is refused, where the
    span reading alone would give J = R."""
    system = psi_zero_system()
    rep = _zero_rep(system)
    assert span_reading_j(system, rep) == Subspace.full(2)
    for decide in (extract_j, extract_tpair, lambda s, r: is_cp_invariant(s, r, Subspace.full(2))):
        with pytest.raises(FsViolation):
            decide(system, rep)


# ---------------------------------------------------------------------------
# gauge action


def test_gauge_on_generators(a2_system):
    q = embed(a2_system, "Q", [1])
    p = embed(a2_system, "P", [1])
    r = embed(a2_system, "R", [2, 3])
    t = frac(5)
    assert gauge(t, q) == q.scale(Fraction(1, 5))
    assert gauge(t, p) == p.scale(t)
    assert gauge(t, r) == r
    assert gauge(1, q.add(p)) == q.add(p)
    with pytest.raises(ZeroScalar):
        gauge(0, q)


def test_gauge_is_multiplicative_and_composes():
    system = build_graph_system(three_vertex_two_cycle())
    rng = random.Random(3)
    s, t = frac(2), frac(-3)
    for _ in range(10):
        a = random_graph_element(rng, system)
        b = random_graph_element(rng, system)
        assert gauge(s, gauge(t, a)) == gauge(s * t, a)
        assert gauge(t, toeplitz_mul(a, b)) == toeplitz_mul(gauge(t, a), gauge(t, b))


def test_homogeneous_components_vandermonde(a2_system):
    q = embed(a2_system, "Q", [1])          # z-degree +1
    r = embed(a2_system, "R", [1, 2])       # z-degree 0
    p = embed(a2_system, "P", [3])          # z-degree -1
    x = q.add(r).add(p)
    degrees = sorted(x.z_degrees())
    evals = [(t, gauge(t, x)) for t in (1, 2, 3, 4)]
    parts = homogeneous_components(evals, degrees)
    for k in degrees:
        assert parts[k] == z_project(x, k)
    with pytest.raises(ValueError):
        homogeneous_components(evals[:2], degrees)
    with pytest.raises(ZeroScalar):
        homogeneous_components([(0, x)], [0])


# ---------------------------------------------------------------------------
# graded uniqueness


def test_jmax_is_maximal(a2_system):
    rep = graded_uniqueness_check(a2_system, _jmax_context(a2_system).j)
    assert rep.maximal and rep.witness is None


def test_zero_ideal_not_maximal(a2_system):
    j0 = validate_ideal(a2_system, _span(a2_system, []))
    rep = graded_uniqueness_check(a2_system, j0)
    assert not rep.maximal
    enlarged = validate_ideal(a2_system, j0.ideal.add(_span(a2_system, [rep.witness])))
    assert enlarged.is_psi_compatible and enlarged.is_faithful


def test_automorphism_full_ring_maximal(perm3):
    j = validate_ideal(perm3, Subspace.full(3))
    assert j.ok
    rep = graded_uniqueness_check(perm3, j)
    assert rep.maximal


def test_membership_needs_fs():
    system = psi_zero_system()
    ctx = CpContext(system, CompatibleIdeal(system, Subspace(2), True, True, True))
    with pytest.raises(FsViolation):
        in_relation_ideal(ctx, embed(system, "R", [1, 0]))


def test_membership_needs_faithful_fock():
    """R = Q z with z z = 0 and P = Q = 0 satisfies (FS), yet iota_R(z) acts
    as 0 on the Fock module R.  T(0) = 0, so iota_R(z) and 0 differ in O(0);
    the Fock blocks cannot tell, and membership is refused instead of
    answered "equal"; the graded-ideal handle over I = 0 refuses too."""
    system = system_from_json(square_zero_json())
    assert check_fs(system).ok
    assert left_annihilator(system) == right_annihilator(system.ring) == Subspace.full(1)
    ctx = CpContext(system, validate_ideal(system, Subspace(1)))
    z = embed(system, "R", [1])
    with pytest.raises(FsViolation, match="rR = 0"):
        cp_equal(ctx.element(z), ctx.element(z.sub(z)))
    handle = graded_ideal_correspondence(ctx, TPair(Subspace(1), Subspace(1)))
    with pytest.raises(FsViolation, match="rR = 0"):
        handle.contains(z)


@pytest.mark.parametrize("make", [
    lambda: build_graph_system(three_vertex_two_cycle()),
    perm3_system,
    lambda: build_automorphism_system(dual_numbers_ring(), mat_identity(2)),
    lambda: build_automorphism_system(matrix2_ring(), mat_identity(4)),
], ids=["3v2c", "perm3", "dual", "matrix2"])
def test_left_annihilator_matches_oracle(make):
    system = make()
    assert left_annihilator(system) == right_annihilator(system.ring)
    assert left_annihilator(system).is_zero()


def test_graded_uniqueness_needs_fs():
    system = psi_zero_system()
    with pytest.raises(FsViolation):
        graded_uniqueness_check(
            system, CompatibleIdeal(system, Subspace(2), True, True, True))


def test_rose4_level5_spans_fit_in_memory():
    """Q^(x)5 . J and the level-0 span Theta_{0,5} of rose4 at j_max are
    coordinate spans of 1024 unit vectors each, kept as their pivots with no
    dense row (16.3 MiB traced when every basis row was a dense tuple)."""
    system = build_graph_system(rose_graph(4))
    j = canonical_ideals(system)["j_max"]
    tensor_space(system, "Q", 5)  # the level itself is not measured
    tracemalloc.start()
    try:
        image, span = ideal_image(system, "Q", 5, j), cpring._vacuum_span(system, j, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert image.dim == span.dim == 1024 and image.is_coordinate_span() and span.is_coordinate_span()
    assert peak < 2 * 2**20, peak
