"""Rank-one operator calculus on the tensor legs, built once per system.

Operators act on Q^(x)n as matrices in canonical level coordinates,
flattened row by row.  The rank-one generators and the left action are

    theta_{q,p}(x) = q . psi_n(p (x) x)      (on P^(x)n: y |-> psi_n(y (x) q) . p)
    Delta(r)(x)    = r . x

`theta_table(system, side, level)` holds the flattened generators of one side
and level, read straight off the nonzeros of the psi_n cells and the columns
of the level's actions; it is built once per system and everything rank-one
reads it.  F_P(Q) is its span
(`finite_rank_space`); condition (FS) asks the identity of Q to lie in F_P(Q)
and the identity of P in F_Q(P), two exact solves over the table whose
solutions double as certificates (`check_fs`); `theta_decomposition` solves
Delta(x) = sum c_ab theta_{e_a,e_b} over it.  For finite-dimensional modules
the paper-style quantification over finite subsets reduces to the basis.

`check_fs`, `left_annihilator` ({r : rR = 0}) and `delta_ideals` (ker Delta
and Delta^(-1)(F_P(Q))) are computed once per system and stored with it.
`canonical_ideals` adds the two-sided annihilator of ker Delta (the kernel
of x -> k x and x -> x k over a basis of it, read off `ring.multiply`) and
the intersection j_max, the uniquely-maximal candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import (
    ONE,
    ZERO,
    Subspace,
    kernel,
    mat_identity,
    mat_transpose,
    preimage,
    solve,
)
from .rsystem import RSystem
from .tensorpow import _system_store, psi_n, tensor_space


class FsViolation(RuntimeError):
    """An operation that needs condition (FS) was run on a system without it."""


def _flatten_columns(cols) -> list[Fraction]:
    """The d x d map with columns' nonzeros `cols`, flattened row by row."""
    d = len(cols)
    out = [ZERO] * (d * d)
    for c, col in enumerate(cols):
        for r, v in col:
            out[r * d + c] = v
    return out


def _build_theta_table(system: RSystem, side: str, level: int) -> tuple:
    """Flattened rank-one generators on side^(x)level (see `theta_table`)."""
    psi = psi_n(system, level)
    own = tensor_space(system, side, level)
    other = tensor_space(system, "P" if side == "Q" else "Q", level)
    d = own.dim
    # theta_{e_g,e_h} sends e_c to e_g . psi_n(e_h (x) e_c) on Q, and
    # theta'_{e_g,e_h} sends e_c to psi_n(e_c (x) e_h) . e_g on P
    if side == "Q":
        acts, pairing = own.right, lambda h, c: psi[h][c]
    else:
        acts, pairing = own.left, lambda h, c: psi[c][h]
    rows = []
    for g in range(d):
        for h in range(other.dim):
            m = [ZERO] * (d * d)
            for c in range(d):
                for i, s in pairing(h, c):
                    for r, v in acts[i][g]:
                        m[r * d + c] += s * v
            rows.append(tuple(m))
    return tuple(rows)


def theta_table(system: RSystem, side: str, level: int) -> tuple:
    """The flattened rank-one generators of one side and level, built once per system.

    Side 'Q': row b * dim P^n + a is theta_{e_b,e_a} on Q^(x)n; side 'P':
    row a * dim Q^n + b is y |-> psi_n(y (x) e_b) . e_a on P^(x)n.  Each row is
    a dim x dim matrix flattened row by row.
    """
    if side not in ("Q", "P"):
        raise ValueError("side must be 'Q' or 'P'")
    store = _system_store(system)
    key = ("theta", side, level)
    rows = store.get(key)
    if rows is None:
        rows = store[key] = _build_theta_table(system, side, level)
    return rows


def _solve_over_table(system: RSystem, side: str, level: int, target: list):
    """Coefficients c with sum_k c_k theta_table[k] = target, or None."""
    rows = theta_table(system, side, level)
    if not rows:
        return None if any(target) else []
    return solve(mat_transpose(rows), target)


def finite_rank_space(system: RSystem, level: int = 1, side: str = "Q") -> Subspace:
    """F_P(Q) (or F_Q(P) for side 'P') at one level, as a subspace of flattened matrices."""
    d = tensor_space(system, side, level).dim
    return Subspace(d * d, theta_table(system, side, level))


def theta_decomposition(system: RSystem, x: Sequence[Fraction]):
    """Coefficients c_ab with Delta(x) = sum c_ab theta_{e_a,e_b}, or None.

    c_ab sits at a * dim P + b, the row of theta_{e_a,e_b} in the level-1 table.
    """
    return _solve_over_table(system, "Q", 1, _flatten_columns(system.q.left_map(list(x))))


@dataclass
class FsReport:
    ok: bool
    q_ok: bool
    p_ok: bool
    q_certificate: Optional[list] = None  # [(q_index, p_index, coeff)] with sum theta = id_Q
    p_certificate: Optional[list] = None  # [(p_index, q_index, coeff)] with sum theta' = id_P
    level: int = 1


def _identity_in_span(system: RSystem, level: int, side: str):
    """Solve identity = sum c_{x,y} theta; returns certificate triples or None."""
    d = tensor_space(system, side, level).dim
    identity = _flatten_columns(tuple(((c, ONE),) for c in range(d)))
    sol = _solve_over_table(system, side, level, identity)
    if sol is None:
        return None
    inner = tensor_space(system, "P" if side == "Q" else "Q", level).dim
    return [(*divmod(k, inner), c) for k, c in enumerate(sol) if c != 0]


def check_fs(system: RSystem, level: int = 1) -> FsReport:
    """Condition (FS) at one level, decided once per system and stored with it."""
    store = _system_store(system)
    key = ("fs", level)
    rep = store.get(key)
    if rep is None:
        q_cert = _identity_in_span(system, level, "Q")
        p_cert = _identity_in_span(system, level, "P")
        rep = store[key] = FsReport(
            ok=q_cert is not None and p_cert is not None,
            q_ok=q_cert is not None,
            p_ok=p_cert is not None,
            q_certificate=q_cert,
            p_certificate=p_cert,
            level=level,
        )
    return rep


def left_annihilator(system: RSystem) -> Subspace:
    """{r : r R = 0}, the left annihilator of R, computed once per system.

    Its equations are the coordinates of r e_c = 0 for each basis element
    e_c, read off the nonzeros of right multiplication (`ring.right[c][a]`
    is e_a e_c); with none, every r qualifies.
    """
    store = _system_store(system)
    out = store.get(("left_annihilator",))
    if out is None:
        d = system.ring.dim
        rows: dict = {}  # (c, t): coordinate t of r e_c, as a row over r
        for c, cols in enumerate(system.ring.right):
            for a, col in enumerate(cols):
                for t, v in col:
                    rows.setdefault((c, t), [ZERO] * d)[a] = v
        out = Subspace(d, kernel(list(rows.values()))) if rows else Subspace.full(d)
        store[("left_annihilator",)] = out
    return out


def _delta_map_matrix(system: RSystem) -> list:
    """The linear map r |-> flatten(Delta(r)) as a (dQ^2 x dR) matrix."""
    cols = [_flatten_columns(system.q.left[i]) for i in range(system.ring.dim)]
    return mat_transpose(cols)


def annihilator(system: RSystem, ideal: Subspace) -> Subspace:
    """Two-sided annihilator {x : x y = y x = 0 for all y in the subspace}."""
    d = system.ring.dim
    if ideal.is_zero():
        return Subspace(d, mat_identity(d))
    mul, units = system.ring.multiply, mat_identity(d)
    stacked = []  # the rows of x -> k x and of x -> x k, for each basis vector k
    for k in ideal.basis():
        stacked.extend(mat_transpose([mul(k, e) for e in units]))
        stacked.extend(mat_transpose([mul(e, k) for e in units]))
    return Subspace(d, kernel(stacked))


def delta_ideals(system: RSystem) -> tuple[Subspace, Subspace]:
    """(ker Delta, Delta^(-1)(F_P(Q))) as subspaces of R, computed once per system."""
    store = _system_store(system)
    out = store.get(("delta_ideals",))
    if out is None:
        d = system.ring.dim
        dmap = _delta_map_matrix(system)
        if not dmap:  # Q = 0, so Delta is the zero map
            out = (Subspace.full(d), Subspace.full(d))
        else:
            out = (Subspace(d, kernel(dmap)), preimage(dmap, finite_rank_space(system)))
        store[("delta_ideals",)] = out
    return out


def canonical_ideals(system: RSystem) -> dict:
    """ker Delta, Delta^(-1)(F_P(Q)), (ker Delta)^perp and their intersection.

    j_max = Delta^(-1)(F_P(Q)) ∩ (ker Delta)^perp is the uniquely-maximal
    faithful candidate; `hypothesis_ok` records whether j_max meets ker Delta
    trivially (the hypothesis under which maximality is a theorem).  Needs
    (FS); raises FsViolation without it.
    """
    if not check_fs(system).ok:
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
