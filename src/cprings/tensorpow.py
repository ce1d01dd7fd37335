"""Balanced tensor powers of the module legs and the iterated pairing.

Level n of a leg M (side 'P' or 'Q') is built by appending:

    M^0 = R,   M^n = (M^(n-1) (x)_F M) / <(x.r) (x) y - x (x) (r.y)>

so a level carries that quotient of the Kronecker coordinates of level (n-1)
times level 1 (`quot`, whose `project` gives the class of any combination of
pure tensors), its basis, and induced left/right R-action matrices.  Basis
element t is the class of one pure tensor e_a (x) e_b (`basis[t] == (a, b)`):
the quotient's basis is its kept (non-pivot) coordinates.  Level 0 is R with its own multiplication as both actions.

Unwinding `basis` down to level 1 makes every basis class the class of a word
of level-1 letters: `words[t] == words[a] + (b,)`, so the words of a level
are prefix-closed.  `word_class(system, side, word)` gives the level
coordinates of any word's class (memoized); every cut of a basis class into a
head and a tail (`cut_class`) is the pair of classes of its word's two pieces.

`tensor_embed(system, side, k, l)` is the concatenation map
M^k (x) M^l -> M^(k+l) on Kronecker coordinates: column (x, y) is the class
of `words[x] + words[y]`.  For k=0 / l=0 it degenerates to the module action,
and for k=l=0 to ring multiplication.

`psi_n` iterates the pairing:

    psi_0(r1 (x) r2) = r1 r2,   psi_1 = psi,
    psi_n((p1 (x) p2) (x) (q1 (x) q2)) = psi(p1 . psi_(n-1)(p2 (x) q1) (x) q2)

with p1 in P, p2 in P^(n-1), q1 in Q^(n-1), q2 in Q: a P class is cut after
its word's first letter, and a Q class is its basis pair (prefix, last letter).

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
    _nonzeros,
    kron_vec,
    mat_transpose,
    matvec,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .rsystem import RSystem, _Actions, _column_nonzeros

DEFAULT_CAP = 6


class CapExceeded(RuntimeError):
    """An operation would create a tensor level above its cap.

    Only operations that create levels their caller did not name carry a cap
    (`toeplitz.toeplitz_mul`, `toeplitz.fock_apply`); the builders here make
    whatever level they are asked for.
    """


@dataclass(eq=False)
class TensorSpace(_Actions):
    system: RSystem
    side: str  # 'P' or 'Q'
    level: int
    dim: int
    quot: QuotientSpace | None  # classes of the (dim_{n-1} * d) Kronecker coordinates, None for level <= 1
    basis: tuple | None  # basis[t] = (a, b): the class of e_a (x) e_b, None for level <= 1
    words: tuple | None  # words[t]: level-1 letters whose pure tensor has class t, None for level 0
    left: tuple  # per ring basis element, dim x dim
    right: tuple

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
                rel: dict = {}
                for x, v in cols_a[a]:
                    rel[x * b_dim + b] = rel.get(x * b_dim + b, ZERO) + v
                for y, v in cols_b[b]:
                    rel[a * b_dim + y] = rel.get(a * b_dim + y, ZERO) - v
                if any(rel.values()):
                    row = [ZERO] * n
                    for k, v in rel.items():
                        row[k] = v
                    rows.append(row)
    return QuotientSpace(Subspace(n, rows))


def tensor_space(system: RSystem, side: str, n: int) -> TensorSpace:
    if n < 0:
        raise ValueError("negative tensor level")
    store = _system_store(system)
    key = ("space", side, n)
    if key not in store:
        _build_upward(store, lambda k: ("space", side, k), n, lambda k: _build_level(system, side, k))
    return store[key]


def _build_upward(memo: dict, key, n: int, build) -> None:
    """Set memo[key(k)] = build(k) for the levels k <= n above the highest one
    already in memo, bottom-up, so that no level takes a stack frame per
    level below it."""
    k = n
    while k and key(k - 1) not in memo:
        k -= 1
    for k in range(k, n + 1):
        memo[key(k)] = build(k)


def _build_level(system: RSystem, side: str, n: int) -> TensorSpace:
    """Level n, from level n - 1 already in the store."""
    if n == 0:
        ring = system.ring
        return TensorSpace(system, side, 0, ring.dim, None, None, None, ring.left_basis, ring.right_basis)
    mod = _module_of(system, side)
    d_m = mod.dim
    if n == 1:
        words = tuple((b,) for b in range(d_m))
        return TensorSpace(system, side, 1, d_m, None, None, words, mod.left, mod.right)
    prev = _system_store(system)[("space", side, n - 1)]
    quot = balanced_quotient(prev.right, prev.dim, mod.left, d_m)
    basis = tuple(divmod(f, d_m) for f in quot.free)
    words = tuple(prev.words[a] + (b,) for a, b in basis)

    def action(columns):
        return mat_transpose([quot.project(col) for col in columns])

    # column t of an action is the class of r.e_a (x) e_b, resp. e_a (x) e_b.r
    left = tuple(action([[(x * d_m + b, v) for x, v in cols[a]] for a, b in basis])
                 for cols in _column_nonzeros(prev.left))
    right = tuple(action([[(a * d_m + y, v) for y, v in cols[b]] for a, b in basis])
                  for cols in _column_nonzeros(mod.right))
    return TensorSpace(system, side, n, quot.dim, quot, basis, words, left, right)


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
    else:
        # column (x, y) is the class of the concatenated word
        words_k = tensor_space(system, side, k).words
        words_l = tensor_space(system, side, l).words
        out = mat_transpose([word_class(system, side, u + w) for u in words_k for w in words_l])
    store[key] = out
    return out


def word_class(system: RSystem, side: str, word: tuple) -> tuple:
    """Level coordinates of the class of e_w1 (x) ... (x) e_wn for word = (w1..wn).

    Extends the longest memoized prefix one letter at a time, the class of
    u (x) e_b being that of class(u) (x) e_b; every prefix is memoized.
    """
    store = _system_store(system)
    if ("word", side, word) in store:
        return store[("word", side, word)]
    if not word:
        raise ValueError("the empty word has no class")
    d_m = _module_of(system, side).dim
    k = len(word) - 1
    while k and ("word", side, word[:k]) not in store:
        k -= 1
    if k:
        out = store[("word", side, word[:k])]
    else:
        k = 1
        out = store[("word", side, word[:1])] = tuple(unit_vec(d_m, word[0]))
    for k in range(k + 1, len(word) + 1):
        out = tuple(_project_kron(tensor_space(system, side, k).quot, out, unit_vec(d_m, word[k - 1])))
        store[("word", side, word[:k])] = out
    return out


def _project_kron(quot: QuotientSpace, u: Sequence[Fraction], w: Sequence[Fraction]) -> list:
    """Class of u (x) w: `quot` projects the nonzeros of its Kronecker coordinates."""
    nz_w = _nonzeros(w)
    return quot.project([(a * len(w) + b, x * y) for a, x in _nonzeros(u) for b, y in nz_w])


def cut_class(system: RSystem, side: str, level: int, t: int, k: int):
    """Classes of the first k letters and of the rest of basis class t's word (0 < k < level)."""
    word = tensor_space(system, side, level).words[t]
    return word_class(system, side, word[:k]), word_class(system, side, word[k:])


def psi_n(system: RSystem, n: int):
    """Table of the iterated pairing: psi_n[a][b] in ring coordinates.

    Index a runs over the level-n P basis, b over the level-n Q basis.
    n = 0 is ring multiplication.
    """
    if n < 0:
        raise ValueError("negative pairing level")
    store = _system_store(system)
    if ("psi", n) not in store:
        _build_upward(store, lambda k: ("psi", k), n, lambda k: _psi_table(system, k))
    return store[("psi", n)]


def _psi_table(system: RSystem, n: int) -> tuple:
    """psi_n, from psi_(n-1) already in the store."""
    ring = system.ring
    if n == 0:
        return tuple(tuple(tuple(ring.mult[i][j]) for j in range(ring.dim)) for i in range(ring.dim))
    if n == 1:
        return system.psi.table
    pn = tensor_space(system, "P", n)
    qn = tensor_space(system, "Q", n)
    if pn.dim == 0 or qn.dim == 0:
        return tuple(tuple() for _ in range(pn.dim))
    d_qprev = tensor_space(system, "Q", n - 1).dim
    table = []
    for a in range(pn.dim):
        p1, p2 = cut_class(system, "P", n, a, 1)
        row_out = []
        for b1, j in qn.basis:  # q = (class b1 of Q^(n-1)) (x) e_j
            r_mid = psi_apply(system, n - 1, p2, unit_vec(d_qprev, b1))
            q2 = unit_vec(system.q.dim, j)
            row_out.append(tuple(system.psi.apply(system.p.act_right(p1, r_mid), q2)))
        table.append(tuple(row_out))
    return tuple(table)


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
