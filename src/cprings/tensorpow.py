"""Balanced tensor powers of the module legs and the iterated pairing.

Level n of a leg M (side 'P' or 'Q') is built by appending:

    M^0 = R,   M^n = (M^(n-1) (x)_F M) / <(x.r) (x) y - x (x) (r.y)>

so a level carries that quotient of the Kronecker coordinates of level (n-1)
times level 1 (`quot`, whose `project` gives the class of any combination of
pure tensors), the words of its basis, and the induced left/right
R-actions, stored like a module's (`rsystem._Actions`) as the nonzeros of
their columns.  The quotient's basis is its kept (non-pivot) coordinates, so
basis element t is the class of one pure tensor e_a (x) e_b, with
(a, b) = divmod(quot.free[t], d) for d the dimension of level 1, and column
t of an action is the class of r.e_a (x) e_b, resp. e_a (x) e_b.r, read
sparse off `quot`.  `balanced_quotient` eliminates only relations with more
than one nonzero entry: over a graph or permutation system every relation
has at most one, so the level selects the composable pairs (the paths) and
no elimination runs, and with no relation at all (a rose) `quot` is the
identity and keeps no class table.  Level 0 is the ring itself, an
R-bimodule whose actions are its own columns (`ring.left`, `ring.right`),
shared, not rebuilt.

Unwinding those pairs down to level 1 makes every basis class the class of
a word of level-1 letters: `words[t] == words[a] + (b,)`, so the words of a
level are prefix-closed.  `_word_nz(system, side, word)` gives the nonzero level
coordinates of any word's class, so every piece of a basis word has a
class, whether or not it is itself a basis word.

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

Levels, ideal images, word classes, contractions and the tables psi_n are
memoized on the system, through the one memo of `rsystem` (`_memo`), and
freed with it.  Three of them are chains, each entry built from the one
before it: the levels of a leg, the prefixes of a word and the letter pairs
of a contraction.  `rsystem._chain` builds each bottom-up from the highest
entry already memoized, in a loop, so depth is bounded by the cap, not the
stack.
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
    _sum_nz,
)
from .rsystem import RSystem, _Actions, _bilinear, _chain, _memo

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
    read off those two columns as its nonzeros, in Kronecker coordinates
    (index a * b_dim + b), and `QuotientSpace.of_relations` takes the
    quotient; no dense relation row is formed.  Where e_a . e_i = c e_a and
    e_i . e_b = c e_b for one scalar c (0 for two empty columns) the
    relation is c e_ab - c e_ab = 0 and is not built, so the work grows with
    the nonzero relations, not with a_dim * b_dim.

    Its classes are those of the dense elimination of all the relations.
    Let K be the coordinates of the relations with one nonzero entry.  The
    unit rows e_k (k in K), together with the RREF of the other relations
    reduced modulo them (their K entries dropped), are the RREF of the
    relation span: they span it; the reduced rows vanish on K, so each unit
    row's pivot is zero in every other row; and the reduced rows' RREF, taken
    over the coordinates they touch, is theirs over all coordinates, since
    zero columns do not change an RREF.  RREF is unique, so the free
    coordinates and every class are the ones the dense elimination gives.

    Over a diagonal ring with a corner basis (graph and permutation systems)
    every relation is 0 or +-1 times one coordinate: the quotient keeps the
    composable pairs, the paths, with no elimination, and with no relation
    at all (a rose, one vertex) it is the identity.
    """
    relations = []
    for cols_a, cols_b in zip(a_right, b_left):
        scalars_b = _scalars(cols_b)
        live: dict = {}  # c -> the b with e_i . e_b != c e_b
        for a, c in enumerate(_scalars(cols_a)):
            if c is None:
                bs = range(b_dim)
            else:  # e_a . e_i = c e_a: the relation is 0 wherever e_i . e_b = c e_b
                bs = live.get(c)
                if bs is None:
                    bs = live[c] = [b for b, c_b in enumerate(scalars_b) if c_b != c]
            col_a = cols_a[a]
            for b in bs:
                rel: dict = {}
                for x, v in col_a:
                    rel[x * b_dim + b] = rel.get(x * b_dim + b, ZERO) + v
                for y, v in cols_b[b]:
                    rel[a * b_dim + y] = rel.get(a * b_dim + y, ZERO) - v
                nz = [(k, v) for k, v in rel.items() if v]
                if nz:
                    relations.append(nz)
    return QuotientSpace.of_relations(a_dim * b_dim, relations)


def _scalars(cols) -> list:
    """For each column k of an action, c when it is c e_k (0 when it is
    empty), else None."""
    return [ZERO if not col else col[0][1] if len(col) == 1 and col[0][0] == k else None
            for k, col in enumerate(cols)]


def tensor_space(system: RSystem, side: str, n: int) -> TensorSpace:
    if not isinstance(n, int) or n < 0:  # a float level would never reach 0 in `_chain`
        raise ValueError(f"a tensor level is a natural number, got {n!r}")
    return _chain(system, ("space", side, n), n, _level_key, _build_level, side)


def _level_key(k: int, side: str) -> tuple:
    return ("space", side, k)


def _build_level(system: RSystem, n: int, prev: TensorSpace | None, side: str) -> TensorSpace:
    """Level n, from level n - 1 (`prev`)."""
    if n == 0:  # R as an R-bimodule
        ring = system.ring
        return TensorSpace(system, side, 0, ring.dim, None, None, ring.left, ring.right)
    mod = _module_of(system, side)
    d_m = mod.dim
    if n == 1:
        words = tuple((b,) for b in range(d_m))
        return TensorSpace(system, side, 1, d_m, None, words, mod.left, mod.right)
    quot = balanced_quotient(prev.right, prev.dim, mod.left, d_m)
    pairs = [divmod(f, d_m) for f in quot.free]  # basis class t is that of e_a (x) e_b
    words = tuple(prev.words[a] + (b,) for a, b in pairs)
    # column t of an action is the class of r.e_a (x) e_b, resp. e_a (x) e_b.r
    left = tuple(tuple(quot.project_nz([(x * d_m + b, v) for x, v in cols[a]]) for a, b in pairs)
                 for cols in prev.left)
    right = tuple(tuple(quot.project_nz([(a * d_m + y, v) for y, v in cols[b]]) for a, b in pairs)
                  for cols in mod.right)
    return TensorSpace(system, side, n, quot.dim, quot, words, left, right)


def ideal_image(system: RSystem, side: str, k: int, ideal: Subspace) -> Subspace:
    """Q^(x)k . I (side 'Q') or I . P^(x)k (side 'P') as a subspace of level k,
    the ideal itself when k = 0; memoized per system."""
    if k == 0:
        return ideal
    return _memo(system, ("image", side, k, ideal), _build_ideal_image, system, side, k, ideal)


def _build_ideal_image(system: RSystem, side: str, k: int, ideal: Subspace) -> Subspace:
    """Spanned by e_a . x (or x . e_a) over the level basis and I's basis,
    each read off the action columns as its nonzeros; on graph and
    permutation systems each is a multiple of one unit vector, so nothing
    is eliminated (`Subspace.of_nonzeros`)."""
    dst = tensor_space(system, side, k)
    cols = dst.right if side == "Q" else dst.left  # cols[i][a]: e_a . e_i, resp. e_i . e_a
    xs = ideal.basis_nz()
    return Subspace.of_nonzeros(dst.dim, [_sum_nz((c, cols[i][a]) for i, c in x)
                                          for a in range(dst.dim) for x in xs])


def _word_nz(system: RSystem, side: str, word: tuple) -> tuple:
    """The nonzero (index, value) pairs of the level coordinates of the class
    of e_w1 (x) ... (x) e_wn, for word = (w1..wn).

    A chain over the prefixes (`_chain`): the class of u (x) e_b is that of
    class(u) (x) e_b, so every prefix is memoized on the way.
    """
    if not word:
        raise ValueError("the empty word has no class")
    return _chain(system, ("word", side, word), len(word) - 1, _prefix_key, _word_link, side, word)


def _prefix_key(k: int, side: str, word: tuple) -> tuple:
    return ("word", side, word[:k + 1])


def _word_link(system: RSystem, k: int, prev, side: str, word: tuple) -> tuple:
    """The class of word[:k + 1], from that of word[:k] (`prev`)."""
    if prev is None:
        return ((word[0], ONE),)
    d_m = _module_of(system, side).dim
    return tensor_space(system, side, k + 1).quot.project_nz([(a * d_m + word[k], x) for a, x in prev])


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
    return _memo(system, ("psi", n), _build_psi_n, system, n)


def _build_psi_n(system: RSystem, n: int) -> tuple:
    qwords = tensor_space(system, "Q", n).words
    return tuple(tuple(_contract(system, p, q) for q in qwords) for p in tensor_space(system, "P", n).words)


def _contract(system: RSystem, p: tuple, q: tuple) -> tuple:
    """The nonzero (index, value) pairs of psi_k(e_p (x) e_q) in R, for a word
    p over P and a word q over Q of one length k >= 1.

    The letters pair off from the middle out: with t letters of each paired,

        psi_t(p[k-t:] (x) q[:t]) = psi(e_p[k-t] . psi_(t-1)(p[k-t+1:] (x) q[:t-1]) (x) e_q[t-1]),

    a chain over t (`_chain`) whose every pair (p[k-t:], q[:t]) is memoized.
    """
    return _chain(system, ("contract", p, q), len(p) - 1, _pair_key, _contract_link, p, q)


def _pair_key(t: int, p: tuple, q: tuple) -> tuple:
    return ("contract", p[len(p) - t - 1:], q[:t + 1])


def _contract_link(system: RSystem, t: int, prev, p: tuple, q: tuple) -> tuple:
    """psi_(t+1) of the t + 1 innermost letter pairs, from psi_t of the t
    innermost (`prev`)."""
    psi, a, b = system.psi._table_nz, p[len(p) - t - 1], q[t]
    if prev is None:
        return psi[a][b]
    pr = _sum_nz((ri, system.p.right[i][a]) for i, ri in prev)  # e_a . r in P
    return _sum_nz((x, psi[y][b]) for y, x in pr)


def psi_apply(system: RSystem, n: int, p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    return _bilinear(system.ring.dim, psi_n(system, n), p, q)
