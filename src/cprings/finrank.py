"""Adjointable / finite-rank operator calculus on the tensor legs.

Operators act on Q^(x)n as matrices in canonical level coordinates.  The
rank-one generators and the two structural operators are

    theta_{q,p}(x) = q . psi_n(p (x) x)      (adjoint: y |-> psi_n(y (x) q) . p)
    Delta(r)(x)    = r . x                   (adjoint: Gamma(r): y |-> y . r)

F_P(Q) is the span of all theta_{q,p}; condition (FS) asks the identity of Q
to lie in F_P(Q) and the identity of P in F_Q(P).  For finite-dimensional
modules the paper-style quantification over finite subsets reduces to the
basis, so (FS) is decided by two exact linear solves, and the solver output
doubles as the certificate.

`canonical_ideals` produces the ideals the relative Cuntz-Pimsner layer cares
about: ker Delta, Delta^(-1)(F_P(Q)), the two-sided annihilator of ker Delta,
and their intersection j_max (the uniquely-maximal candidate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import (
    Subspace,
    kernel,
    mat_eq,
    mat_identity,
    mat_transpose,
    matmul,
    matvec,
    preimage,
    solve,
    unit_vec,
)
from .rsystem import RSystem
from .tensorpow import psi_apply, tensor_space


class LevelMismatch(ValueError):
    """Operands live at different tensor levels."""


class FsViolation(RuntimeError):
    """An operation that needs condition (FS) was run on a system without it."""


@dataclass(eq=False)
class LinOp:
    """A right-R-linear operator on one leg at one level, with optional adjoint.

    `matrix` acts on the side/level coordinates; `adjoint` (if present) acts on
    the opposite leg at the same level and satisfies
    psi_n(p (x) T q) = psi_n(S p (x) q).
    """

    system: RSystem
    side: str
    level: int
    matrix: list
    adjoint: Optional[list] = None

    def check(self) -> bool:
        """Verify right-linearity (and the adjoint identity when present)."""
        sp = tensor_space(self.system, self.side, self.level)
        for i in range(self.system.ring.dim):
            if not mat_eq(matmul(self.matrix, sp.right[i]), matmul(sp.right[i], self.matrix)):
                return False
        if self.adjoint is not None:
            other = "P" if self.side == "Q" else "Q"
            osp = tensor_space(self.system, other, self.level)
            for a in range(osp.dim):
                ea = unit_vec(osp.dim, a)
                sa = matvec(self.adjoint, ea)
                for b in range(sp.dim):
                    eb = unit_vec(sp.dim, b)
                    tb = matvec(self.matrix, eb)
                    if self.side == "Q":
                        lhs = psi_apply(self.system, self.level, ea, tb)
                        rhs = psi_apply(self.system, self.level, sa, eb)
                    else:
                        lhs = psi_apply(self.system, self.level, tb, ea)
                        rhs = psi_apply(self.system, self.level, eb, sa)
                    if lhs != rhs:
                        return False
        return True

    def apply(self, coords: Sequence[Fraction]) -> list[Fraction]:
        return matvec(self.matrix, coords)

    def __repr__(self) -> str:
        return f"LinOp({self.side}^{self.level}, {len(self.matrix)}x{len(self.matrix)})"


def _flatten(m: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    return [x for row in m for x in row]


def theta_matrix(system: RSystem, level: int, q_index: int, p_index: int) -> list:
    """Matrix of theta_{e_q, e_p} on Q^(x)level."""
    qn = tensor_space(system, "Q", level)
    pn = tensor_space(system, "P", level)
    eq = unit_vec(qn.dim, q_index)
    ep = unit_vec(pn.dim, p_index)
    cols = []
    for c in range(qn.dim):
        r = psi_apply(system, level, ep, unit_vec(qn.dim, c))
        cols.append(qn.act_right(eq, r))
    return mat_transpose(cols)


def theta_matrix_p(system: RSystem, level: int, p_index: int, q_index: int) -> list:
    """Matrix of the opposite-leg rank-one y |-> psi_n(y (x) e_q) . e_p on P^(x)level."""
    qn = tensor_space(system, "Q", level)
    pn = tensor_space(system, "P", level)
    ep = unit_vec(pn.dim, p_index)
    eq = unit_vec(qn.dim, q_index)
    cols = []
    for c in range(pn.dim):
        r = psi_apply(system, level, unit_vec(pn.dim, c), eq)
        cols.append(pn.act_left(r, ep))
    return mat_transpose(cols)


def theta(q, p) -> LinOp:
    """theta_{q,p} as a LinOp on Q^(x)n with its adjoint theta_{p,q} attached."""
    if q.level != p.level:
        raise LevelMismatch(f"q at level {q.level}, p at level {p.level}")
    if q.side != "Q" or p.side != "P":
        raise ValueError("theta expects q on the Q leg and p on the P leg")
    system, n = q.system, q.level
    qn = tensor_space(system, "Q", n)
    pn = tensor_space(system, "P", n)
    mat = [[Fraction(0)] * qn.dim for _ in range(qn.dim)]
    adj = [[Fraction(0)] * pn.dim for _ in range(pn.dim)]
    for b, cq in enumerate(q.coords):
        if cq == 0:
            continue
        for a, cp in enumerate(p.coords):
            if cp == 0:
                continue
            t = theta_matrix(system, n, b, a)
            s = theta_matrix_p(system, n, a, b)
            for i in range(qn.dim):
                for j in range(qn.dim):
                    mat[i][j] += cq * cp * t[i][j]
            for i in range(pn.dim):
                for j in range(pn.dim):
                    adj[i][j] += cq * cp * s[i][j]
    return LinOp(system, "Q", n, mat, adjoint=adj)


def delta_matrix(system: RSystem, r: Sequence[Fraction], level: int = 1) -> list:
    """Matrix of Delta^level(r): left multiplication on Q^(x)level."""
    qn = tensor_space(system, "Q", level)
    out = [[Fraction(0)] * qn.dim for _ in range(qn.dim)]
    for i, ri in enumerate(r):
        if ri == 0:
            continue
        for a in range(qn.dim):
            col = matvec(qn.left[i], unit_vec(qn.dim, a))
            for row in range(qn.dim):
                out[row][a] += ri * col[row]
    return out


def gamma_matrix(system: RSystem, r: Sequence[Fraction], level: int = 1) -> list:
    """Matrix of Gamma^level(r): right multiplication on P^(x)level."""
    pn = tensor_space(system, "P", level)
    out = [[Fraction(0)] * pn.dim for _ in range(pn.dim)]
    for i, ri in enumerate(r):
        if ri == 0:
            continue
        for a in range(pn.dim):
            col = matvec(pn.right[i], unit_vec(pn.dim, a))
            for row in range(pn.dim):
                out[row][a] += ri * col[row]
    return out


def delta(system: RSystem, r: Sequence[Fraction], level: int = 1) -> LinOp:
    return LinOp(system, "Q", level, delta_matrix(system, r, level),
                 adjoint=gamma_matrix(system, r, level))


@dataclass(eq=False)
class FiniteRankSpace:
    """F_P(Q) (or F_Q(P)) at one level, as a subspace of flattened matrices."""

    system: RSystem
    side: str  # side the operators act on
    level: int
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains_matrix(self, m) -> bool:
        return self.space.contains(_flatten(m))


def finite_rank_space(system: RSystem, level: int = 1, side: str = "Q") -> FiniteRankSpace:
    qn = tensor_space(system, "Q", level)
    pn = tensor_space(system, "P", level)
    rows = []
    if side == "Q":
        d = qn.dim
        for b in range(qn.dim):
            for a in range(pn.dim):
                rows.append(_flatten(theta_matrix(system, level, b, a)))
    elif side == "P":
        d = pn.dim
        for a in range(pn.dim):
            for b in range(qn.dim):
                rows.append(_flatten(theta_matrix_p(system, level, a, b)))
    else:
        raise ValueError("side must be 'Q' or 'P'")
    return FiniteRankSpace(system, side, level, Subspace(d * d, rows))


@dataclass
class FsReport:
    ok: bool
    q_ok: bool
    p_ok: bool
    q_certificate: Optional[list] = None  # [(q_index, p_index, coeff)] with sum theta = id_Q
    p_certificate: Optional[list] = None  # [(p_index, q_index, coeff)] with sum theta' = id_P
    level: int = 1


def _identity_in_span(system: RSystem, level: int, side: str):
    """Solve identity = sum c_{b,a} theta; returns certificate triples or None."""
    qn = tensor_space(system, "Q", level)
    pn = tensor_space(system, "P", level)
    if side == "Q":
        d, outer, inner = qn.dim, qn.dim, pn.dim
        gen = lambda b, a: theta_matrix(system, level, b, a)
    else:
        d, outer, inner = pn.dim, pn.dim, qn.dim
        gen = lambda a, b: theta_matrix_p(system, level, a, b)
    if d == 0:
        return []  # identity of the zero module is the empty combination
    cols = []
    pairs = []
    for x in range(outer):
        for y in range(inner):
            cols.append(_flatten(gen(x, y)))
            pairs.append((x, y))
    a_mat = mat_transpose(cols)
    sol = solve(a_mat, _flatten(mat_identity(d)))
    if sol is None:
        return None
    return [(pairs[k][0], pairs[k][1], c) for k, c in enumerate(sol) if c != 0]


def check_fs(system: RSystem, level: int = 1) -> FsReport:
    q_cert = _identity_in_span(system, level, "Q")
    p_cert = _identity_in_span(system, level, "P")
    return FsReport(
        ok=q_cert is not None and p_cert is not None,
        q_ok=q_cert is not None,
        p_ok=p_cert is not None,
        q_certificate=q_cert,
        p_certificate=p_cert,
        level=level,
    )


def _delta_map_matrix(system: RSystem) -> list:
    """The linear map r |-> flatten(Delta(r)) as a (dQ^2 x dR) matrix."""
    cols = [_flatten(system.q.left[i]) for i in range(system.ring.dim)]
    return mat_transpose(cols)


def annihilator(system: RSystem, ideal: Subspace) -> Subspace:
    """Two-sided annihilator {x : x y = y x = 0 for all y in the subspace}."""
    d = system.ring.dim
    if ideal.is_zero():
        return Subspace(d, mat_identity(d))
    stacked = []
    for k in ideal.basis():
        stacked.extend(system.ring.left_matrix(k))
        stacked.extend(system.ring.right_matrix(k))
    return Subspace(d, kernel(stacked))


def delta_ideals(system: RSystem) -> tuple[Subspace, Subspace]:
    """(ker Delta, Delta^(-1)(F_P(Q))) as subspaces of R."""
    d = system.ring.dim
    dmap = _delta_map_matrix(system)
    if not dmap:  # Q = 0, so Delta is the zero map
        return Subspace.full(d), Subspace.full(d)
    return Subspace(d, kernel(dmap)), preimage(dmap, finite_rank_space(system).space)


def canonical_ideals(system: RSystem, require_fs: bool = True) -> dict:
    """ker Delta, Delta^(-1)(F_P(Q)), (ker Delta)^perp and their intersection.

    j_max = Delta^(-1)(F_P(Q)) ∩ (ker Delta)^perp is the uniquely-maximal
    faithful candidate; `hypothesis_ok` records whether j_max meets ker Delta
    trivially (the hypothesis under which maximality is a theorem).
    """
    if require_fs:
        rep = check_fs(system)
        if not rep.ok:
            raise FsViolation("condition (FS) fails; rank-one calculus would be unreliable")
    ker_delta, delta_inv_f = delta_ideals(system)
    ker_perp = annihilator(system, ker_delta)
    j_max = delta_inv_f.intersect(ker_perp)
    return {
        "ker_delta": ker_delta,
        "delta_inv_F": delta_inv_f,
        "ker_perp": ker_perp,
        "j_max": j_max,
        "hypothesis_ok": j_max.intersect(ker_delta).is_zero(),
    }
