"""Balanced tensor powers of the module legs and the iterated pairing.

Level n of a leg M (side 'P' or 'Q') is built by appending:

    M^0 = R,   M^n = (M^(n-1) (x)_F M) / <(x.r) (x) y - x (x) (r.y)>

so a level carries the projection from the ambient Kronecker coordinates of
level (n-1) times level 1, its basis, and induced left/right R-action
matrices.  Basis element t is the class of one pure tensor e_a (x) e_b
(`basis[t] == (a, b)`): the quotient's basis is its kept (non-pivot)
coordinates.  Level 0 is R with its own multiplication as both actions.

`tensor_embed(system, side, k, l)` is the concatenation map
M^k (x) M^l -> M^(k+l) on Kronecker coordinates; for k=0 / l=0 it degenerates
to the module action, and for k=l=0 to ring multiplication.  `tensor_split`
is an exact right inverse (concatenations span every level, so the embed is
onto).  Downstream consumers only ever compose a split with maps that factor
through the balanced tensor product, so the choice of right inverse is invisible.

`psi_n` iterates the pairing:

    psi_0(r1 (x) r2) = r1 r2,   psi_1 = psi,
    psi_n((p1 (x) p2) (x) (q1 (x) q2)) = psi(p1 . psi_(n-1)(p2 (x) q1) (x) q2)

with p1 in P, p2 in P^(n-1), q1 in Q^(n-1), q2 in Q; computationally the left
factor is split at (1, n-1) and the right factor at (n-1, 1).

Everything is memoized in memory on the system (`RSystem._store`), so the memo
is freed with its system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    ZERO,
    Subspace,
    QuotientSpace,
    kron_columns,
    kron_vec,
    mat_identity,
    mat_transpose,
    matmul,
    matvec,
    solve_matrix,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .rsystem import RSystem, _column_nonzeros

DEFAULT_CAP = 6


class CapExceeded(RuntimeError):
    """An operation would create a tensor level above its cap.

    Only operations that create levels their caller did not name carry a cap
    (`toeplitz.toeplitz_mul`, `toeplitz.fock_apply`); the builders here make
    whatever level they are asked for.
    """


@dataclass(eq=False)
class TensorSpace:
    system: RSystem
    side: str  # 'P' or 'Q'
    level: int
    dim: int
    proj: list | None  # (dim_{n-1} * d) -> dim, None for level <= 1
    basis: tuple | None  # basis[t] = (a, b): the class of e_a (x) e_b, None for level <= 1
    left: tuple  # per ring basis element, dim x dim
    right: tuple

    def act_left(self, r: Sequence[Fraction], x: Sequence[Fraction]) -> list[Fraction]:
        out = zero_vec(self.dim)
        for i, ri in enumerate(r):
            if ri != 0:
                out = vec_add(out, vec_scale(ri, matvec(self.left[i], x)))
        return out

    def act_right(self, x: Sequence[Fraction], r: Sequence[Fraction]) -> list[Fraction]:
        out = zero_vec(self.dim)
        for i, ri in enumerate(r):
            if ri != 0:
                out = vec_add(out, vec_scale(ri, matvec(self.right[i], x)))
        return out

    def __repr__(self) -> str:
        return f"TensorSpace({self.side}^{self.level}, dim {self.dim})"


@dataclass(frozen=True)
class ModuleElement:
    """An element of P^(x)n or Q^(x)n in canonical level coordinates."""

    system: RSystem
    side: str
    level: int
    coords: tuple

    def add(self, other: "ModuleElement") -> "ModuleElement":
        if (self.system, self.side, self.level) != (other.system, other.side, other.level):
            raise ValueError("elements live in different tensor spaces")
        return ModuleElement(self.system, self.side, self.level, tuple(vec_add(self.coords, other.coords)))

    def scale(self, c) -> "ModuleElement":
        return ModuleElement(self.system, self.side, self.level, tuple(vec_scale(c, self.coords)))

    def tensor(self, other: "ModuleElement") -> "ModuleElement":
        if self.system is not other.system or self.side != other.side:
            raise ValueError("can only concatenate along one leg of one system")
        e = tensor_embed(self.system, self.side, self.level, other.level)
        coords = matvec(e, kron_vec(self.coords, other.coords))
        return ModuleElement(self.system, self.side, self.level + other.level, tuple(coords))


def _system_store(system: RSystem) -> dict:
    return system._store


def _module_of(system: RSystem, side: str):
    if side == "Q":
        return system.q
    if side == "P":
        return system.p
    raise ValueError(f"side must be 'P' or 'Q', got {side!r}")


def balanced_quotient(a_right, a_dim: int, b_left, b_dim: int) -> QuotientSpace:
    """A (x)_F B modulo the balancing relations (a.r) (x) b - a (x) (r.b).

    a_right[i] is the matrix of the right action of the ring basis element
    e_i on A, b_left[i] that of its left action on B.  The relation for
    (e_a, e_i, e_b) is read off column a of a_right[i] and column b of
    b_left[i], in Kronecker coordinates (index a * b_dim + b).
    """
    n = a_dim * b_dim
    actions = list(zip(_column_nonzeros(a_right), _column_nonzeros(b_left)))
    rows = []
    for a in range(a_dim):
        for cols_a, cols_b in actions:
            for b in range(b_dim):
                row = [ZERO] * n
                for x, v in cols_a[a]:
                    row[x * b_dim + b] += v
                for y, v in cols_b[b]:
                    row[a * b_dim + y] -= v
                if any(row):
                    rows.append(row)
    return QuotientSpace(Subspace(n, rows))


def tensor_space(system: RSystem, side: str, n: int) -> TensorSpace:
    if n < 0:
        raise ValueError("negative tensor level")
    store = _system_store(system)
    key = ("space", side, n)
    if key in store:
        return store[key]

    ring = system.ring
    d_r = ring.dim
    if n == 0:
        space = TensorSpace(system, side, 0, d_r, None, None, ring.left_basis, ring.right_basis)
        store[key] = space
        return space
    mod = _module_of(system, side)
    if n == 1:
        space = TensorSpace(system, side, 1, mod.dim, None, None, mod.left, mod.right)
        store[key] = space
        return space

    prev = tensor_space(system, side, n - 1)
    d_prev, d_m = prev.dim, mod.dim

    quot = balanced_quotient(prev.right, d_prev, mod.left, d_m)
    proj = quot.projection_matrix()
    basis = tuple(divmod(f, d_m) for f in quot.free)

    id_prev, id_m = mat_identity(d_prev), mat_identity(d_m)
    left = tuple(matmul(proj, kron_columns(prev.left[i], id_m, basis)) for i in range(d_r))
    right = tuple(matmul(proj, kron_columns(id_prev, mod.right[i], basis)) for i in range(d_r))

    space = TensorSpace(system, side, n, quot.dim, proj, basis, left, right)
    store[key] = space
    return space


def tensor_embed(system: RSystem, side: str, k: int, l: int):
    """Concatenation matrix M^k (x) M^l -> M^(k+l) on Kronecker coordinates."""
    store = _system_store(system)
    key = ("embed", side, k, l)
    if key in store:
        return store[key]

    ring = system.ring
    if tensor_space(system, side, k + l).dim == 0:
        out = []  # 0-row matrix: the target level vanished
    elif k == 0 and l == 0:
        cols = []
        for i in range(ring.dim):
            for j in range(ring.dim):
                cols.append(list(ring.mult[i][j]))
        out = mat_transpose(cols)
    elif l == 0:
        sp = tensor_space(system, side, k)
        cols = []
        for a in range(sp.dim):
            ea = unit_vec(sp.dim, a)
            for i in range(ring.dim):
                cols.append(sp.act_right(ea, unit_vec(ring.dim, i)))
        out = mat_transpose(cols)
    elif k == 0:
        sp = tensor_space(system, side, l)
        cols = []
        for i in range(ring.dim):
            ei = unit_vec(ring.dim, i)
            for b in range(sp.dim):
                cols.append(sp.act_left(ei, unit_vec(sp.dim, b)))
        out = mat_transpose(cols)
    elif l == 1:
        out = tensor_space(system, side, k + 1).proj
    else:
        # column (x, t), basis[t] = (y, z): concatenate x (x) y at level k+l-1, then append z
        top = tensor_space(system, side, l)
        d_mid = tensor_space(system, side, l - 1).dim
        d_k = tensor_space(system, side, k).dim
        inner = tensor_embed(system, side, k, l - 1)
        glue = tensor_embed(system, side, k + l - 1, 1)
        pairs = [(x * d_mid + y, z) for x in range(d_k) for y, z in top.basis]
        out = matmul(glue, kron_columns(inner, mat_identity(_module_of(system, side).dim), pairs))
    store[key] = out
    return out


def tensor_split(system: RSystem, side: str, k: int, l: int):
    """A right inverse of tensor_embed (exists because concatenations span)."""
    store = _system_store(system)
    key = ("split", side, k, l)
    if key in store:
        return store[key]
    target = tensor_space(system, side, k + l)
    if target.dim == 0:
        dk = tensor_space(system, side, k).dim
        dl = tensor_space(system, side, l).dim
        s = [[] for _ in range(dk * dl)]
        store[key] = s
        return s
    e = tensor_embed(system, side, k, l)
    s = solve_matrix(e, mat_identity(target.dim))
    if s is None:
        raise ArithmeticError(
            f"concatenation {side}^{k} (x) {side}^{l} -> {side}^{k+l} is not onto; "
            "the system violates the spanning property"
        )
    store[key] = s
    return s


def psi_n(system: RSystem, n: int):
    """Table of the iterated pairing: psi_n[a][b] in ring coordinates.

    Index a runs over the level-n P basis, b over the level-n Q basis.
    n = 0 is ring multiplication.
    """
    if n < 0:
        raise ValueError("negative pairing level")
    store = _system_store(system)
    key = ("psi", n)
    if key in store:
        return store[key]

    ring = system.ring
    if n == 0:
        table = tuple(tuple(tuple(ring.mult[i][j]) for j in range(ring.dim)) for i in range(ring.dim))
        store[key] = table
        return table
    if n == 1:
        store[key] = system.psi.table
        return system.psi.table

    prev = psi_n(system, n - 1)
    p_mod, q_mod = system.p, system.q
    pn = tensor_space(system, "P", n)
    qn = tensor_space(system, "Q", n)
    if pn.dim == 0 or qn.dim == 0:
        table = tuple(tuple() for _ in range(pn.dim))
        store[key] = table
        return table
    split_p = tensor_split(system, "P", 1, n - 1)  # p ~ p1 (x) p2
    split_q = tensor_split(system, "Q", n - 1, 1)  # q ~ q1 (x) q2
    d_pm, d_qm = p_mod.dim, q_mod.dim
    d_pprev = tensor_space(system, "P", n - 1).dim
    d_qprev = tensor_space(system, "Q", n - 1).dim

    split_p_cols = mat_transpose(split_p)
    split_q_cols = mat_transpose(split_q)

    table = []
    for a in range(pn.dim):
        pc = split_p_cols[a]  # index (i, a2) = i*d_pprev + a2
        row_out = []
        for b in range(qn.dim):
            qc = split_q_cols[b]  # index (b1, j) = b1*d_qm + j
            acc = zero_vec(ring.dim)
            for i in range(d_pm):
                for a2 in range(d_pprev):
                    c1 = pc[i * d_pprev + a2]
                    if c1 == 0:
                        continue
                    for b1 in range(d_qprev):
                        r_mid = prev[a2][b1]
                        for j in range(d_qm):
                            c2 = qc[b1 * d_qm + j]
                            if c2 == 0:
                                continue
                            # psi(p1 . r_mid (x) q2)
                            p_acted = p_mod.act_right(unit_vec(d_pm, i), r_mid)
                            val = system.psi.apply(p_acted, unit_vec(d_qm, j))
                            acc = vec_add(acc, vec_scale(c1 * c2, val))
            row_out.append(tuple(acc))
        table.append(tuple(row_out))
    table = tuple(table)
    store[key] = table
    return table


def psi_apply(system: RSystem, n: int, p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    table = psi_n(system, n)
    out = zero_vec(system.ring.dim)
    for a, pa in enumerate(p):
        if pa == 0:
            continue
        row = table[a]
        for b, qb in enumerate(q):
            if qb == 0:
                continue
            out = vec_add(out, vec_scale(pa * qb, row[b]))
    return out


def basis_element(system: RSystem, side: str, level: int, index: int) -> ModuleElement:
    sp = tensor_space(system, side, level)
    return ModuleElement(system, side, level, tuple(unit_vec(sp.dim, index)))


def path_element(system: RSystem, side: str, labels: Sequence[str]) -> ModuleElement:
    """Concatenate level-1 basis elements named by labels (left to right)."""
    mod = _module_of(system, side)
    if not labels:
        raise ValueError("empty label path")
    out = basis_element(system, side, 1, mod.index(labels[0]))
    for lab in labels[1:]:
        out = out.tensor(basis_element(system, side, 1, mod.index(lab)))
    return out
