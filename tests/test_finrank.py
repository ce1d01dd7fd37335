"""Rank-one calculus, (FS), and the canonical ideal candidates.

Graph-side oracles (worked out from the action tables):

* theta_{e,(rev f)} is the matrix unit E_{e,f} when r(e) = r(f), else 0, so
  dim F_P(Q) = #{ordered edge pairs with equal ranges}.
* Delta(1_v) projects onto the edges emitted by v; ker Delta is spanned by
  the sinks, Delta^(-1)(F) is everything (finite graphs emit finitely), and
  j_max is spanned by the non-sinks.
"""

import pytest

from conftest import five_vertex_mixed, psi_zero_system

from cprings.exactlin import (
    Subspace,
    mat_eq,
    mat_identity,
    mat_zero,
    matmul,
    matvec,
    unit_vec,
    zero_vec,
)
from cprings.finrank import (
    FsViolation,
    LevelMismatch,
    LinOp,
    annihilator,
    canonical_ideals,
    check_fs,
    delta,
    delta_matrix,
    finite_rank_space,
    gamma_matrix,
    theta,
    theta_matrix,
    theta_matrix_p,
)
from cprings.rsystem import build_graph_system
from cprings.tensorpow import ModuleElement, basis_element, tensor_space


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


def test_theta_linop_and_levels(line3_system):
    q = basis_element(line3_system, "Q", 1, 0)
    p = basis_element(line3_system, "P", 1, 0)
    op = theta(q, p)
    assert op.check()
    assert op.apply([1, 5]) == [1, 0]
    with pytest.raises(LevelMismatch):
        theta(q, ModuleElement(line3_system, "P", 2, (1,)))
    with pytest.raises(ValueError):
        theta(p, q)


def test_delta_projects_onto_emitted_edges(line3_system):
    d1 = delta_matrix(line3_system, unit_vec(3, 0))  # 1_{v1} emits e1 only
    assert mat_eq(d1, [[1, 0], [0, 0]])
    assert mat_eq(delta_matrix(line3_system, zero_vec(3)), mat_zero(2, 2))
    # the unit acts as the identity
    assert mat_eq(delta_matrix(line3_system, [1, 1, 1]), mat_identity(2))
    op = delta(line3_system, unit_vec(3, 0))
    assert op.check()
    assert mat_eq(op.adjoint, [[1, 0], [0, 0]])  # s(e1) = v1 on the reversed leg


def test_theta_ideal_law(mixed5):
    system = build_graph_system(mixed5)
    dq = system.q.dim
    dp = system.p.dim
    for i in range(system.ring.dim):
        r = unit_vec(system.ring.dim, i)
        dmat = delta_matrix(system, r)
        gmat = gamma_matrix(system, r)
        for b in range(dq):
            for a in range(dp):
                t = theta_matrix(system, 1, b, a)
                # Delta(r) . theta_{q,p} = theta_{Delta(r) q, p}
                lhs = matmul(dmat, t)
                acted_q = ModuleElement(system, "Q", 1, tuple(matvec(dmat, unit_vec(dq, b))))
                rhs = theta(acted_q, basis_element(system, "P", 1, a)).matrix
                assert mat_eq(lhs, rhs)
                # theta_{q,p} . Delta(r) = theta_{q, Gamma(r) p}
                lhs2 = matmul(t, dmat)
                acted_p = ModuleElement(system, "P", 1, tuple(matvec(gmat, unit_vec(dp, a))))
                rhs2 = theta(basis_element(system, "Q", 1, b), acted_p).matrix
                assert mat_eq(lhs2, rhs2)


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
    out = canonical_ideals(system, require_fs=False)
    # Delta is injective (unital), F = 0, so everything collapses to zero
    assert out["ker_delta"].is_zero()
    assert out["j_max"].is_zero()
    assert out["hypothesis_ok"]


def test_annihilator_on_diagonal(line3_system):
    ideal = Subspace(3, [unit_vec(3, 0)])
    ann = annihilator(line3_system, ideal)
    assert ann.dim == 2
    assert ann.contains(unit_vec(3, 1)) and ann.contains(unit_vec(3, 2))
    assert annihilator(line3_system, Subspace(3, [])).dim == 3
