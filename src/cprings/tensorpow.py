"""Balanced tensor powers of the module legs and the iterated pairing.

Level n of a leg M (side 'P' or 'Q') is built by appending:

    M^0 = R,   M^n = (M^(n-1) (x)_F M) / <(x.r) (x) y - x (x) (r.y)>

so a level carries that quotient of the Kronecker coordinates of level (n-1)
times level 1 (`quot`, whose `project` gives the class of any combination of
pure tensors), its basis, and the induced left/right R-actions, stored like a
module's (`rsystem._Actions`) as the nonzeros of their columns.  Basis
element t is the class of one pure tensor e_a (x) e_b (`basis[t] == (a, b)`):
the quotient's basis is its kept (non-pivot) coordinates, and column t of an
action is the class of r.e_a (x) e_b, resp. e_a (x) e_b.r, read sparse off
`quot`.  Level 0 is the ring itself, an R-bimodule whose actions are its
own columns (`ring.left`, `ring.right`), shared, not rebuilt.

Unwinding `basis` down to level 1 makes every basis class the class of a word
of level-1 letters: `words[t] == words[a] + (b,)`, so the words of a level
are prefix-closed.  `_word_nz(system, side, word)` gives the nonzero level
coordinates of any word's class (memoized), so every piece of a basis word
has a class, whether or not it is itself a basis word.

The iterated pairing is a contraction of words:

    psi_0(r1 (x) r2) = r1 r2,   psi_1 = psi,
    psi_n((p1 (x) p2) (x) (q1 (x) q2)) = psi(p1 . psi_(n-1)(p2 (x) q1) (x) q2)

with p1 in P, p2 in P^(n-1), q1 in Q^(n-1), q2 in Q.  On the pure tensors of
two words it pairs the letters off from the middle out, one pair at a time
(`_contract`, memoized per pair of words), and the Toeplitz product reads it
there.  The table `psi_n` holds each cell's nonzeros, like an action's
column: psi_0 is `ring.left`, psi_1 the pairing's `_table_nz`, and the cell
of two basis classes at n >= 2 the contraction of their words; `psi_apply`
is `rsystem._bilinear` over the table, the kernel of every R-action too.

Everything is memoized in memory on the system (`RSystem._store`), so the memo
is freed with its system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    ONE,
    ZERO,
    Subspace,
    QuotientSpace,
    _nonzeros,
    _sum_nz,
    unit_vec,
)
from .rsystem import RSystem, _Actions, _bilinear

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
    left: tuple  # left[i][a]: nonzero (index, value) pairs of e_i . (basis vector a)
    right: tuple  # right[i][a]: those of (basis vector a) . e_i

    def __repr__(self) -> str:
        return f"TensorSpace({self.side}^{self.level}, dim {self.dim})"


def _module_of(system: RSystem, side: str):
    if side == "Q":
        return system.q
    if side == "P":
        return system.p
    raise ValueError(f"side must be 'P' or 'Q', got {side!r}")


def balanced_quotient(a_right, a_dim: int, b_left, b_dim: int) -> QuotientSpace:
    """A (x)_F B modulo the balancing relations (a.r) (x) b - a (x) (r.b).

    a_right[i][a] holds the nonzeros of e_a . e_i in A, b_left[i][b] those of
    e_i . e_b in B (`rsystem._Actions`).  The relation for (e_a, e_i, e_b) is
    read off those two columns, in Kronecker coordinates (index a * b_dim + b).
    """
    n = a_dim * b_dim
    actions = list(zip(a_right, b_left))
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
    store = system._store
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
    if n == 0:  # R as an R-bimodule
        ring = system.ring
        return TensorSpace(system, side, 0, ring.dim, None, None, None, ring.left, ring.right)
    mod = _module_of(system, side)
    d_m = mod.dim
    if n == 1:
        words = tuple((b,) for b in range(d_m))
        return TensorSpace(system, side, 1, d_m, None, None, words, mod.left, mod.right)
    prev = system._store[("space", side, n - 1)]
    quot = balanced_quotient(prev.right, prev.dim, mod.left, d_m)
    basis = tuple(divmod(f, d_m) for f in quot.free)
    words = tuple(prev.words[a] + (b,) for a, b in basis)
    # column t of an action is the class of r.e_a (x) e_b, resp. e_a (x) e_b.r
    left = tuple(tuple(quot.project_nz([(x * d_m + b, v) for x, v in cols[a]]) for a, b in basis)
                 for cols in prev.left)
    right = tuple(tuple(quot.project_nz([(a * d_m + y, v) for y, v in cols[b]]) for a, b in basis)
                  for cols in mod.right)
    return TensorSpace(system, side, n, quot.dim, quot, basis, words, left, right)


def ideal_image(system: RSystem, side: str, k: int, ideal: Subspace) -> Subspace:
    """Q^(x)k . I (side 'Q') or I . P^(x)k (side 'P') as a subspace of level k,
    the ideal itself when k = 0; memoized per system."""
    if k == 0:
        return ideal
    store, key = system._store, ("image", side, k, ideal)
    span = store.get(key)
    if span is None:
        dst = tensor_space(system, side, k)
        units = [unit_vec(dst.dim, a) for a in range(dst.dim)]
        span = store[key] = Subspace(dst.dim, [dst.act_right(u, x) if side == "Q" else dst.act_left(x, u)
                                               for u in units for x in ideal.basis()])
    return span


def _word_nz(system: RSystem, side: str, word: tuple) -> tuple:
    """The nonzero (index, value) pairs of the level coordinates of the class
    of e_w1 (x) ... (x) e_wn, for word = (w1..wn).

    Extends the longest memoized prefix one letter at a time, the class of
    u (x) e_b being that of class(u) (x) e_b; every prefix is memoized.
    """
    store = system._store
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
        out = store[("word", side, word[:1])] = ((word[0], ONE),)
    for k in range(k + 1, len(word) + 1):
        b = word[k - 1]
        out = tensor_space(system, side, k).quot.project_nz([(a * d_m + b, x) for a, x in out])
        store[("word", side, word[:k])] = out
    return out


def _project_kron(quot: QuotientSpace, u: Sequence[Fraction], w: Sequence[Fraction]) -> list:
    """Class of u (x) w: `quot` projects the nonzeros of its Kronecker coordinates."""
    nz_w = _nonzeros(w)
    return quot.project([(a * len(w) + b, x * y) for a, x in _nonzeros(u) for b, y in nz_w])


def psi_n(system: RSystem, n: int):
    """Table of the iterated pairing: psi_n[a][b] holds the nonzero
    (index, value) pairs of psi_n(p_a (x) q_b) in ring coordinates.

    Index a runs over the level-n P basis, b over the level-n Q basis.
    n = 0 is ring multiplication (`ring.left`), n = 1 the pairing's table,
    and each cell above is the contraction of the two basis words.
    """
    if n < 0:
        raise ValueError("negative pairing level")
    if n == 0:
        return system.ring.left
    if n == 1:
        return system.psi._table_nz
    store = system._store
    if ("psi", n) not in store:
        qwords = tensor_space(system, "Q", n).words
        store[("psi", n)] = tuple(tuple(_contract(system, p, q) for q in qwords)
                                  for p in tensor_space(system, "P", n).words)
    return store[("psi", n)]


def _contract(system: RSystem, p: tuple, q: tuple) -> tuple:
    """The nonzero (index, value) pairs of psi_k(e_p (x) e_q) in R, for a word
    p over P and a word q over Q of one length k >= 1.

    The letters pair off from the middle out: with t letters of each paired,

        psi_t(p[k-t:] (x) q[:t]) = psi(e_p[k-t] . psi_(t-1)(p[k-t+1:] (x) q[:t-1]) (x) e_q[t-1]),

    so the longest memoized pair (p[k-t:], q[:t]) is extended one letter pair
    at a time, each pair memoized, in a loop rather than a stack frame per letter.
    """
    store = system._store
    if ("contract", p, q) in store:
        return store[("contract", p, q)]
    k = len(p)
    t = k - 1
    while t and ("contract", p[k - t:], q[:t]) not in store:
        t -= 1
    psi = system.psi._table_nz
    if t:
        out = store[("contract", p[k - t:], q[:t])]
    else:
        t = 1
        out = store[("contract", p[k - 1:], q[:1])] = psi[p[k - 1]][q[0]]
    right = system.p.right
    for t in range(t + 1, k + 1):
        a, b = p[k - t], q[t - 1]
        pr = _sum_nz((ri, right[i][a]) for i, ri in out)  # e_a . r in P
        out = _sum_nz((x, psi[y][b]) for y, x in pr)
        store[("contract", p[k - t:], q[:t])] = out
    return out


def psi_apply(system: RSystem, n: int, p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    return _bilinear(system.ring.dim, psi_n(system, n), p, q)
