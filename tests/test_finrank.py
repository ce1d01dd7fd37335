"""Rank-one calculus, (FS), and the canonical ideal candidates.

Graph-side oracles (worked out from the action tables):

* theta_{e,(rev f)} is the matrix unit E_{e,f} when r(e) = r(f), else 0, so
  dim F_P(Q) = #{ordered edge pairs with equal ranges}.
* Delta(1_v) projects onto the edges emitted by v; ker Delta is spanned by
  the sinks, Delta^(-1)(F) is everything (finite graphs emit finitely), and
  j_max is spanned by the non-sinks.
"""

import random

import pytest

from conftest import (
    FAMILIES,
    ORACLE_SYSTEMS,
    a2_graph,
    delta_ideals_oracle,
    dense,
    dense_rows,
    dense_solve,
    diagonal_ring,
    family_system,
    finite_rank_space,
    five_vertex_mixed,
    idempotent_plus_null_json,
    killed_vector_json,
    mat_eq,
    matrix2_ring,
    non_diagonal_system,
    perm3_system,
    psi_zero_system,
    random_graph,
    random_permutation_system,
    rebased_legs,
    three_vertex_two_cycle,
    theta_matrix,
    theta_matrix_p,
)

from cprings import exactlin, finrank
from cprings.cpring import CpContext, _flatten, _fock_block, cp_equal, graded_uniqueness_check, validate_ideal
from cprings.exactlin import (
    ONE,
    Subspace,
    _dense,
    mat_identity,
    mat_transpose,
    mat_zero,
    matmul,
    solve,
    unit_vec,
    zero_vec,
)
from cprings.finrank import (
    FsViolation,
    annihilator,
    canonical_ideals,
    check_fs,
    delta_ideals,
    theta_decomposition,
    theta_table,
)
from cprings.graphalg import cycle_graph, line_graph, rose_graph
from cprings.ideals import validate_tpair
from cprings.rsystem import (
    Pairing,
    RSystem,
    StructuredBimodule,
    StructuredRing,
    build_automorphism_system,
    build_graph_system,
    system_from_json,
    validate_axioms,
)
from cprings.tensorpow import DEFAULT_CAP, psi_apply, tensor_space
from cprings.toeplitz import embed, pair, toeplitz_mul


def test_theta_is_matrix_unit_on_matching_ranges(line3_system):
    # r(e1) = v2 != v3 = r(e2): crossed pairs vanish, diagonal pairs are units
    assert mat_eq(theta_matrix(line3_system, 1, 0, 0), [[1, 0], [0, 0]])
    assert mat_eq(theta_matrix(line3_system, 1, 1, 1), [[0, 0], [0, 1]])
    assert mat_eq(theta_matrix(line3_system, 1, 0, 1), mat_zero(2, 2))
    assert mat_eq(theta_matrix(line3_system, 1, 1, 0), mat_zero(2, 2))


def test_finite_rank_dims():
    for graph, expected in [(five_vertex_mixed(), 7)]:
        system = build_graph_system(graph)
        assert finite_rank_space(system).dim == expected


def test_finite_rank_dim_small(a2_system, line3_system, rose1):
    assert finite_rank_space(a2_system).dim == 1
    assert finite_rank_space(line3_system).dim == 2
    assert finite_rank_space(build_graph_system(rose1)).dim == 1


def test_theta_table_matches_definition(mixed5, perm3):
    # theta_{e_b,e_a}(e_c) = e_b . psi_n(e_a (x) e_c) on Q, and
    # theta'_{e_a,e_b}(e_c) = psi_n(e_c (x) e_b) . e_a on P
    for system, level in [(build_graph_system(mixed5), 1), (perm3, 1), (perm3, 2)]:
        qn = tensor_space(system, "Q", level)
        pn = tensor_space(system, "P", level)
        for b in range(qn.dim):
            for a in range(pn.dim):
                eq, ep = unit_vec(qn.dim, b), unit_vec(pn.dim, a)
                cols = [qn.act_right(eq, psi_apply(system, level, ep, unit_vec(qn.dim, c)))
                        for c in range(qn.dim)]
                assert mat_eq(theta_matrix(system, level, b, a), mat_transpose(cols))
                cols = [pn.act_left(psi_apply(system, level, unit_vec(pn.dim, c), eq), ep)
                        for c in range(pn.dim)]
                assert mat_eq(theta_matrix_p(system, level, a, b), mat_transpose(cols))
                # right-linear, with the P-side generator as adjoint:
                # psi_n(y (x) theta x) = psi_n(theta' y (x) x)
                t, s = theta_matrix(system, level, b, a), theta_matrix_p(system, level, a, b)
                for i in range(system.ring.dim):
                    ri = dense(qn.right[i], qn.dim)
                    assert mat_eq(matmul(t, ri), matmul(ri, t))
                for y in range(pn.dim):
                    for x in range(qn.dim):
                        assert psi_apply(system, level, unit_vec(pn.dim, y), [r[x] for r in t]) == \
                            psi_apply(system, level, [r[y] for r in s], unit_vec(qn.dim, x))


def test_theta_rows_are_fock_blocks(line3_system, perm3):
    """One operator layout across modules: q (x) p acts on level 1 of the
    Fock module as theta_{q,p}, so the level-1 block of pair(e_b, e_a), as
    the membership walk flattens its columns, is row b * dim P + a of the
    theta table."""
    for system in (line3_system, build_graph_system(rose_graph(2)), perm3):
        q, p, table = system.q.dim, system.p.dim, finrank.theta_table(system, "Q", 1)
        for b in range(q):
            for a in range(p):
                block = _fock_block(pair(system, 1, 1, unit_vec(q, b), unit_vec(p, a)), 1, 1, DEFAULT_CAP)
                flat = _flatten(block, q)
                assert flat == table[b * p + a], (system.name, b, a)
                assert _dense(q * q, flat) == dense_rows([table[b * p + a]], q * q)[0], (system.name, b, a)


def test_delta_projects_onto_emitted_edges(line3_system):
    q, p = line3_system.q, line3_system.p
    assert mat_eq(dense(q.left[0], 2), [[1, 0], [0, 0]])  # Delta(1_{v1}): v1 emits e1 only
    assert mat_eq(dense(q.left_map(zero_vec(3)), 2), mat_zero(2, 2))
    # the unit acts as the identity
    assert mat_eq(dense(q.left_map([1, 1, 1]), 2), mat_identity(2))
    # Gamma(1_{v1}): s(e1) = v1 on the reversed leg
    assert mat_eq(dense(p.right[0], 2), [[1, 0], [0, 0]])


def _combination(mats, coeffs):
    d = len(mats[0])
    acc = mat_zero(d, d)
    for m, c in zip(mats, coeffs):
        for i in range(d):
            for j in range(d):
                acc[i][j] += c * m[i][j]
    return acc


def test_theta_ideal_law(mixed5):
    system = build_graph_system(mixed5)
    dq = system.q.dim
    dp = system.p.dim
    for i in range(system.ring.dim):
        dmat = dense(system.q.left[i], dq)  # Delta(e_i)
        gmat = dense(system.p.right[i], dp)  # Gamma(e_i)
        for b in range(dq):
            for a in range(dp):
                t = theta_matrix(system, 1, b, a)
                # Delta(r) . theta_{q,p} = theta_{Delta(r) q, p}, expanded bilinearly in q
                rhs = _combination([theta_matrix(system, 1, c, a) for c in range(dq)],
                                   [dmat[c][b] for c in range(dq)])
                assert mat_eq(matmul(dmat, t), rhs)
                # theta_{q,p} . Delta(r) = theta_{q, Gamma(r) p}, expanded bilinearly in p
                rhs2 = _combination([theta_matrix(system, 1, b, c) for c in range(dp)],
                                    [gmat[c][a] for c in range(dp)])
                assert mat_eq(matmul(t, dmat), rhs2)


@pytest.mark.parametrize("make", [
    lambda: build_graph_system(line_graph(3)),
    perm3_system,
    lambda: build_automorphism_system(matrix2_ring(), mat_identity(4)),
], ids=["line3", "perm3", "matrix2"])
def test_delta_composes_into_theta_rows(make):
    """The lemma behind `delta_ideals`' shortcut: Delta(e_i) theta_{e_a,e_b}
    is theta_{e_i.e_a,e_b}, as flattened rows of the level-1 table (row
    a * dim P + b is theta_{e_a,e_b}, flattened column by column).  So
    F_P(Q) is a left ideal for Delta(R)."""
    system = make()
    q, dp, d = system.q, system.p.dim, system.ring.dim
    rows = dense_rows(theta_table(system, "Q", 1), q.dim * q.dim)
    for i in range(d):
        e_i = unit_vec(d, i)
        for a in range(q.dim):
            coeffs = q.act_left(e_i, unit_vec(q.dim, a))  # e_i . e_a
            for b in range(dp):
                theta = list(rows[a * dp + b])
                composed = [x for c in range(0, q.dim ** 2, q.dim) for x in q.act_left(e_i, theta[c:c + q.dim])]
                want = [sum(coeffs[g] * rows[g * dp + b][k] for g in range(q.dim)) for k in range(q.dim ** 2)]
                assert composed == want, (i, a, b)


def test_fs_decides_delta_inverse_without_elimination(monkeypatch):
    """With (FS), D_I = R by the lemma: `canonical_ideals` takes no preimage
    and no intersection elimination (j_max is (ker Delta)^perp itself), and
    `validate_tpair` at a nonzero floor floors no theta table.  psi-zero,
    without (FS), still reads D_I by the preimage, as the oracle does."""
    calls = []
    real_preimage, real_kernel = finrank.preimage, exactlin.kernel
    monkeypatch.setattr(finrank, "preimage", lambda *a: calls.append("preimage") or real_preimage(*a))
    # exactlin's own kernel calls are the eliminations of `intersect` and `preimage`
    monkeypatch.setattr(exactlin, "kernel", lambda a: calls.append("elimination") or real_kernel(a))
    for system in (build_graph_system(five_vertex_mixed()), perm3_system()):
        out = canonical_ideals(system)
        assert out["delta_inv_F"] == Subspace.full(system.ring.dim) and out["j_max"] is out["ker_perp"]
    system, sinks = build_graph_system(five_vertex_mixed()), Subspace.coordinate_span(5, [3, 4])  # t, w
    assert validate_tpair(system, sinks, Subspace.full(5)).ok
    assert calls == []
    assert [k for k in system._store if k[0] == "theta_floored" and k[-1] is not None] == []
    psi_zero = psi_zero_system()
    delta_ideals(psi_zero)
    assert calls.count("preimage") == 1
    assert delta_ideals(psi_zero) == delta_ideals_oracle(psi_zero, None)


def _reconstruct(system, level, cert, side):
    qn = tensor_space(system, "Q", level)
    pn = tensor_space(system, "P", level)
    d = qn.dim if side == "Q" else pn.dim
    acc = mat_zero(d, d)
    for x, y, c in cert:
        m = theta_matrix(system, level, x, y) if side == "Q" else theta_matrix_p(system, level, x, y)
        for i in range(d):
            for j in range(d):
                acc[i][j] += c * m[i][j]
    return acc


def test_check_fs_graph_and_automorphism(line3_system, perm3):
    for system in (line3_system, perm3):
        rep = check_fs(system)
        assert rep.ok and rep.q_ok and rep.p_ok
        assert mat_eq(_reconstruct(system, 1, rep.q_certificate, "Q"),
                      mat_identity(tensor_space(system, "Q", 1).dim))
        assert mat_eq(_reconstruct(system, 1, rep.p_certificate, "P"),
                      mat_identity(tensor_space(system, "P", 1).dim))


def test_fs_fails_for_zero_pairing():
    rep = check_fs(psi_zero_system())
    assert not rep.ok and not rep.q_ok and not rep.p_ok
    assert rep.q_certificate is None


def test_fs_fails_when_only_p_vanishes():
    # R = Q = F, P = 0: no rank-one operators, so id_Q is out of reach while
    # id_P is the empty combination
    ring = diagonal_ring(1)
    unit = [[((0, ONE),)]]
    system = RSystem(ring=ring, p=StructuredBimodule([], [[]], [[]]),
                     q=StructuredBimodule(["q"], unit, unit), psi=Pairing([]), name="p-zero")
    rep = check_fs(system)
    assert not rep.ok and not rep.q_ok and rep.p_ok and rep.p_certificate == []
    assert finite_rank_space(system).dim == 0


def test_fs_propagates_to_higher_levels(line3_system, perm3, a2_system):
    for system, levels in [(line3_system, (2,)), (perm3, (2, 3)), (a2_system, (2,))]:
        for n in levels:
            rep = check_fs(system, level=n)
            assert rep.ok, (system.name, n)


def test_canonical_ideals_mixed_graph(mixed5):
    system = build_graph_system(mixed5)
    out = canonical_ideals(system)
    # vertex order: s, a, b, t, w — sinks are t (3) and w (4)
    assert out["ker_delta"].dim == 2
    assert out["ker_delta"].contains(unit_vec(5, 3))
    assert out["ker_delta"].contains(unit_vec(5, 4))
    assert out["delta_inv_F"].dim == 5
    assert out["ker_perp"].dim == 3
    assert out["j_max"].dim == 3
    for i in (0, 1, 2):
        assert out["j_max"].contains(unit_vec(5, i))
    assert out["hypothesis_ok"]


def test_canonical_ideals_automorphism(perm3):
    out = canonical_ideals(perm3)
    assert out["ker_delta"].is_zero()
    assert out["delta_inv_F"].dim == 3
    assert out["j_max"].dim == 3
    assert out["hypothesis_ok"]


def test_canonical_ideals_requires_fs():
    system = psi_zero_system()
    with pytest.raises(FsViolation):
        canonical_ideals(system)


def test_canonical_ideals_hypothesis_fails():
    """On R = Q e + Q n (`idempotent_plus_null_json`) (FS) holds, ker Delta
    = (n) and j_max = R: j_max is not faithful, so hypothesis_ok is false,
    and maximality of the admissible J = (e) is not decided by j_max."""
    system = system_from_json(idempotent_plus_null_json())
    assert validate_axioms(system).ok and check_fs(system).ok
    out = canonical_ideals(system)
    assert out["ker_delta"] == Subspace(2, [unit_vec(2, 1)])
    assert out["j_max"] == Subspace.full(2)
    assert out["hypothesis_ok"] is False
    j = validate_ideal(system, Subspace(2, [unit_vec(2, 0)]))
    assert j.ok
    with pytest.raises(ValueError, match="j_max meets ker Delta"):
        graded_uniqueness_check(system, j)


def test_rank_one_calculus_built_once_per_system(line3, monkeypatch):
    builds, fs_solves, delta_maps = [], [], []
    for name, log in (("_build_theta_table", builds), ("_identity_in_span", fs_solves),
                      ("_delta_columns", delta_maps)):
        def counted(*args, _f=getattr(finrank, name), _log=log):
            _log.append(args[1:])
            return _f(*args)
        monkeypatch.setattr(finrank, name, counted)
    system = build_graph_system(line3)
    j = validate_ideal(system, canonical_ideals(system)["j_max"])
    ctx = CpContext(system, j)
    v1 = embed(system, "R", unit_vec(3, 0))
    e1 = embed(system, "Q", unit_vec(2, 0))
    e1_bar = embed(system, "P", unit_vec(2, 0))
    assert cp_equal(ctx.element(v1), ctx.element(toeplitz_mul(e1, e1_bar)))
    assert sorted(builds) == [("P", 1), ("Q", 1)]
    # solved once, with no floor: the walk's guard passes I = 0, which shares
    # the memo of canonical_ideals' unfloored check
    assert sorted(fs_solves) == [(1, "P", None), (1, "Q", None)]
    assert delta_maps == []  # ker Delta is read off line3's corner graph


def test_annihilator_on_diagonal(line3_system):
    ideal = Subspace(3, [unit_vec(3, 0)])
    ann = annihilator(line3_system, ideal)
    assert ann.dim == 2
    assert ann.contains(unit_vec(3, 1)) and ann.contains(unit_vec(3, 2))
    assert annihilator(line3_system, Subspace(3, [])).dim == 3


def test_annihilator_is_two_sided_off_the_corner_graph():
    """Upper-triangular 2 x 2 matrices, basis e11, e12, e22, which have no
    corner graph: for x = a e11 + b e12 + c e22, e12 x = c e12 and
    x e12 = a e12, so the two-sided annihilator of (e12) is (e12) itself,
    where the left one, {x : e12 x = 0}, would also hold e11."""
    mult = [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]
    system = build_automorphism_system(StructuredRing(["e11", "e12", "e22"], mult), mat_identity(3))
    assert annihilator(system, Subspace(3, [unit_vec(3, 1)])) == Subspace(3, [unit_vec(3, 1)])
    assert annihilator(system, Subspace(3, [])) == Subspace.full(3)


def _dense_solve_over(rows, target, n):
    """The solve over the rows given as their nonzeros, as the dense system
    has it: one equation per coordinate of Q^n, one unknown per row, read
    off `dense_rref` with every free unknown 0."""
    cols = dense_rows(rows, n)
    return dense_solve([[col[r] for col in cols] for r in range(n)], _dense(n, target), len(rows))


def test_reduced_solve_matches_dense_solve():
    """`solve` with the theta rows as columns, which eliminates over the
    coordinates some row or the target touches, returns exactly what the
    dense RREF of the transposed table reads --
    the same certificate, or None -- for id_Q and id_P at every coordinate
    floor, and for each Delta(e_r) and level 2 with no floor, on the presets,
    psi-zero, the killed-vector systems, random graph and permutation
    systems, the automorphism families of the membership crosscheck, and
    each of these with its legs re-presented (`rebased_legs`, whose pivots
    are not all +-1)."""
    rng = random.Random(2812)
    graphs = [a2_graph(), line_graph(3), three_vertex_two_cycle(), cycle_graph(3), rose_graph(2), rose_graph(3),
              five_vertex_mixed()]
    graphs += [random_graph(rng, max_v=4, max_e=6) for _ in range(12)]
    systems = [build_graph_system(g) for g in graphs] + [perm3_system(), psi_zero_system()]
    systems += [system_from_json(killed_vector_json(leg, fixed)) for leg in ("q", "p") for fixed in (False, True)]
    systems += [random_permutation_system(rng, max_n=4) for _ in range(6)]
    systems += [non_diagonal_system(kind, random.Random(seed))[0]
                for seed in (1, 2) for kind in ("diagonal", "dual", "upper", "matrix2")]
    systems += [rebased_legs(system, rng) for system in list(systems)]
    verdicts = set()
    for system in systems:
        d = system.ring.dim
        cases = [(side, 1, Subspace.coordinate_span(d, [t for t in range(d) if mask >> t & 1]))
                 for mask in range(1 << d) for side in ("Q", "P")]
        cases += [(side, 2, None) for side in ("Q", "P") if d <= 3]
        for side, level, floor in cases:
            m = tensor_space(system, side, level).dim
            identity = tuple((c * m + c, ONE) for c in range(m))
            targets = finrank._floored(system, side, level, floor, [identity])
            if side == "Q" and level == 1 and floor.is_zero():
                targets += [finrank._flatten_columns(cols) for cols in system.q.left]
            rows = finrank._floored_thetas(system, side, level, floor)
            for target in targets:
                found = solve(rows, target)
                assert found == _dense_solve_over(rows, target, m * m), (system.name, side, level, floor)
                verdicts.add(found is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("source", list(ORACLE_SYSTEMS) + list(FAMILIES))
def test_fs_certificates_are_the_dense_solutions(source):
    """The (FS) certificates of `check_fs` and `theta_decomposition` of each
    ring basis vector are the solutions that the dense RREF of the whole
    theta system reads, every free unknown 0: the theta rows as dense
    columns, one equation per coordinate, the target id_Q, id_P or
    Delta(e_r) flattened column by column from `act_left`.  On the oracle
    systems and four random systems of each family."""
    if source in ORACLE_SYSTEMS:
        systems = [ORACLE_SYSTEMS[source]()]
    else:
        rng = random.Random(3401)
        systems = [family_system(source, rng) for _ in range(4)]
    for system in systems:
        fs = check_fs(system)
        for side, cert in (("Q", fs.q_certificate), ("P", fs.p_certificate)):
            m = tensor_space(system, side, 1).dim
            inner = tensor_space(system, "P" if side == "Q" else "Q", 1).dim
            want = _dense_solve_over(theta_table(system, side, 1), [(c * m + c, 1) for c in range(m)], m * m)
            if want is not None:
                want = [(*divmod(k, inner), c) for k, c in enumerate(want) if c]
            assert cert == want, (system.name, side)
        assert fs.ok == (fs.q_certificate is not None and fs.p_certificate is not None)
        d, q = system.ring.dim, system.q
        for r in range(d):
            delta = [(k, x) for k, x in enumerate(y for c in range(q.dim)
                                                   for y in q.act_left(unit_vec(d, r), unit_vec(q.dim, c))) if x]
            want = _dense_solve_over(theta_table(system, "Q", 1), delta, q.dim * q.dim)
            assert theta_decomposition(system, unit_vec(d, r)) == want, (system.name, r)
