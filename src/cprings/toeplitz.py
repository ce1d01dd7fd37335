"""Exact arithmetic in the Toeplitz ring of an R-system.

Elements are finitely supported maps from semigroup grades (m, n) to
coordinate vectors in the component

    T_(m,n) = Q^(x)m (x)_R P^(x)n   (m, n >= 1),
    T_(m,0) = Q^(x)m,  T_(0,n) = P^(x)n,  T_(0,0) = R,

with the grade product (m1,n1)(m2,n2) = (m1+m2-k, n1+n2-k), k = min(n1, m2).
An element keeps each grade as its nonzero (index, value) pairs and never a
dense vector: a word of a few letters has a handful of nonzero coordinates
in a component of millions, and elements are built from those end to end:
`embed`, `embed_n`, `pair` and every result of the module write their
nonzeros straight into the element (`_from_nz`).  The constructor, which
takes dense coordinates, is the public entry and the tests' oracle, and
`ToeplitzElement.component` is the one dense reader.

Every component basis class is the class of one pure tensor of level-1
letters: a pair of words (u, v), u over Q and v over P (`_class_words`).
Two classes multiply by one rule.  With k = min(n1, m2), the last k letters
of v1 pair with the first k letters of u2 through psi_k, and the rest
concatenates:

    (u1, v1) (u2, v2) = class of  u1 + u2[k:]  (x)  v1[:n1-k] + v2,

with at most one ring element r acting where the operands' letters meet:
psi_k(v1[n1-k:], u2[:k]) when k >= 1 (`tensorpow._contract`, one letter
pair at a time), a ring operand e_i (e_i e_j when both operands are ring
elements), or none when k = 0.  The letters meet inside the P word when
v1[:n1-k] is not empty or no Q letter survives, and inside the Q word
otherwise; r multiplies the letter before the meeting point from the right
(or the letter after it from the left when nothing comes before).  Every
piece is the class of a word, read as its nonzeros, and a product is built
only from the operands' nonzero coordinates, summed per output grade in a
dict: each pair of basis classes is multiplied once per system and cached
as a sparse column of the output component.

The module also hosts representation evaluation (images T^m(q) S^n(p),
multiplicative in tensor order) and the Fock representation.
`Representation` is the one sigma/T/S target: a zero and the images of the
basis elements of R, Q and P, whether matrices (`Mat`) or the closed forms
that `graphalg.lpa_target` and `crossedprod.crossed_representation` build.
The Fock module F = (+)_j Q^(x)j is T modulo the left ideal L of the grades
(m, n) with n >= 1, so T acts on F by the same product rule (`fock_apply`).  A
Fock block is its columns' nonzeros: one tuple of (index, value) pairs per
basis vector of the source level, column c the product of a class with
basis class c of Q^(x)j, and only nonzero columns are accumulated.

Tensor levels are capped only where an operation creates a level its caller
did not name: `toeplitz_mul` refuses an output grade with a leg above its
cap, and `fock_apply` a block that lands above its cap.  Both check before
any cached work, so whether they raise does not depend on what ran before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactlin import (
    ONE,
    ZERO,
    QuotientSpace,
    _sum_nz,
    frac,
    mat_zero,
    matmul,
    unit_vec,
    vec,
    vec_add,
    zero_vec,
)
from .rsystem import RSystem, _memo
from .tensorpow import (
    CapExceeded,
    DEFAULT_CAP,
    _contract,
    _module_of,
    _word_nz,
    balanced_quotient,
    psi_apply,
    tensor_space,
)

__all__ = [
    "CapExceeded",
    "ComponentSpace",
    "GradePair",
    "InvalidRepresentation",
    "Mat",
    "Representation",
    "SystemMismatch",
    "ToeplitzElement",
    "check_representation",
    "component_space",
    "embed",
    "embed_n",
    "evaluate",
    "fock_apply",
    "pair",
    "semigroup_mul",
    "toeplitz_mul",
    "z_project",
]

GradePair = tuple  # (m, n) with m, n natural


class SystemMismatch(ValueError):
    """Operands belong to different systems."""


class InvalidRepresentation(ValueError):
    """The target does not expose sigma/s/t or violates the axioms."""


def semigroup_mul(a: GradePair, b: GradePair) -> GradePair:
    (m1, n1), (m2, n2) = a, b
    k = min(n1, m2)
    return (m1 + m2 - k, n1 + n2 - k)


@dataclass(eq=False)
class ComponentSpace:
    system: RSystem
    m: int
    n: int
    dim: int
    # mixed grades only: the balanced quotient of the Kronecker coordinates of
    # Q^(x)m (x) P^(x)n; basis class t is that of e_a (x) e_b, with
    # (a, b) = divmod(quot.free[t], dim P^(x)n)
    quot: Optional[QuotientSpace]

    def __repr__(self) -> str:
        return f"ComponentSpace(({self.m},{self.n}), dim {self.dim})"


def component_space(system: RSystem, m: int, n: int) -> ComponentSpace:
    return _memo(system, ("comp", m, n), _build_component, system, m, n)


def _build_component(system: RSystem, m: int, n: int) -> ComponentSpace:
    if m < 0 or n < 0:
        raise ValueError("negative grade")
    if m == 0 and n == 0:
        return ComponentSpace(system, 0, 0, system.ring.dim, None)
    if n == 0:
        return ComponentSpace(system, m, 0, tensor_space(system, "Q", m).dim, None)
    if m == 0:
        return ComponentSpace(system, 0, n, tensor_space(system, "P", n).dim, None)
    qm = tensor_space(system, "Q", m)
    pn = tensor_space(system, "P", n)
    if qm.dim == 0 or pn.dim == 0:
        return ComponentSpace(system, m, n, 0, None)
    quot = balanced_quotient(qm.right, qm.dim, pn.left, pn.dim)
    return ComponentSpace(system, m, n, quot.dim, quot)


def _class_nz(system: RSystem, m: int, n: int, q, p) -> tuple:
    """Nonzeros of the component coordinates of the class of q (x) p at grade
    (m, n), each leg given by its nonzeros; with no Q letter it is p (a ring
    element at (0,0)), with no P letter q."""
    if m == 0:
        return p
    if n == 0:
        return q
    comp = component_space(system, m, n)
    if comp.dim == 0:
        return ()
    d_p = tensor_space(system, "P", n).dim
    return comp.quot.project_nz([(a * d_p + b, x * y) for a, x in q for b, y in p])


class ToeplitzElement:
    """A finitely supported map from grades to component coordinates (immutable).

    `comps[g]` is the tuple of nonzero (index, value) pairs of grade g,
    sorted by index, and a grade with no nonzero is absent; the form is
    canonical, so equality and hashing are structural.  The constructor
    takes dense coordinates per grade, a pair of naturals, coerced by `vec`
    and as long as the component's dimension; `component` is the one dense
    reader."""

    __slots__ = ("system", "comps")

    def __init__(self, system: RSystem, components=None):
        self.system = system
        comps = {}
        for (m, n), v in (components or {}).items():
            if not (isinstance(m, int) and isinstance(n, int)):  # component_space refuses a negative one
                raise ValueError(f"a grade is a pair of natural numbers, got {(m, n)!r}")
            nz = _grade_nz(v, component_space(system, m, n).dim, (m, n))
            if nz:
                comps[(m, n)] = nz
        self.comps = comps

    # -- inspection ---------------------------------------------------------
    def support(self):
        return sorted(self.comps)

    def component(self, grade: GradePair) -> tuple:
        """The dense coordinates of grade `grade`."""
        g = (int(grade[0]), int(grade[1]))
        out = zero_vec(component_space(self.system, g[0], g[1]).dim)
        for j, x in self.comps.get(g, ()):
            out[j] = x
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.comps

    def max_n_degree(self) -> int:
        return max((n for (_, n) in self.comps), default=0)

    def z_degrees(self):
        return sorted({m - n for (m, n) in self.comps})

    # -- linear structure ---------------------------------------------------
    def add(self, other: "ToeplitzElement") -> "ToeplitzElement":
        return self._merge(other, 1)

    def sub(self, other: "ToeplitzElement") -> "ToeplitzElement":
        return self._merge(other, -1)

    def _merge(self, other: "ToeplitzElement", sign: int) -> "ToeplitzElement":
        """self + sign * other, in one merge of the nonzeros."""
        if other.system is not self.system:
            raise SystemMismatch("cannot add or subtract elements over different systems")
        comps = dict(self.comps)
        for g, v in other.comps.items():
            if sign == 1 and g not in comps:
                comps[g] = v
                continue
            acc = dict(comps.get(g, ()))
            for j, y in v:
                acc[j] = acc.get(j, ZERO) + sign * y
            comps[g] = tuple(sorted((j, y) for j, y in acc.items() if y))
        return _from_nz(self.system, comps)

    def scale(self, c) -> "ToeplitzElement":
        c = frac(c)
        if not c:
            return _from_nz(self.system, {})
        # `frac` brings an integral product of Fractions back to an int
        return _from_nz(self.system, {g: tuple((j, frac(c * x)) for j, x in v) for g, v in self.comps.items()})

    def neg(self) -> "ToeplitzElement":
        return self.scale(-1)

    def mul(self, other: "ToeplitzElement") -> "ToeplitzElement":
        return toeplitz_mul(self, other)

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ToeplitzElement):
            return NotImplemented
        return self.system is other.system and self.comps == other.comps

    def __hash__(self):
        return hash((id(self.system), tuple(sorted(self.comps.items()))))

    def __repr__(self) -> str:
        if not self.comps:
            return "ToeplitzElement(0)"
        parts = ", ".join(f"{g}:{dict(v)}" for g, v in sorted(self.comps.items()))
        return f"ToeplitzElement({parts})"


def _from_nz(system: RSystem, comps: dict) -> ToeplitzElement:
    """The element whose grades carry the given nonzero (index, value)
    pairs, sorted by index; a grade with none is dropped, and no pair is
    scanned again."""
    x = object.__new__(ToeplitzElement)
    x.system = system
    x.comps = {g: v for g, v in comps.items() if v}
    return x


def _grade_nz(coords, dim: int, grade: GradePair) -> tuple:
    """The nonzero (index, value) pairs of dense coordinates of length `dim`
    at `grade`, coerced by `vec`, in one pass."""
    coords = vec(coords)
    if len(coords) != dim:
        raise ValueError(f"coordinate length {len(coords)} != dim {dim} of grade {grade}")
    return tuple([(j, x) for j, x in enumerate(coords) if x])


def embed(system: RSystem, kind: str, coords) -> ToeplitzElement:
    """Level-1 (or ring) embedding of coordinates (see `embed_n`)."""
    return embed_n(system, kind, 0 if kind == "R" else 1, coords)


def embed_n(system: RSystem, kind: str, level: int, coords) -> ToeplitzElement:
    """The element with the given coordinates (coerced by `vec`, as long as
    the level's dimension) at level `level` of leg `kind` (R at level 0)."""
    if kind == "R":
        if level != 0:
            raise ValueError("ring elements sit at level 0")
        grade, dim = (0, 0), system.ring.dim
    elif kind == "Q" or kind == "P":
        grade = (level, 0) if kind == "Q" else (0, level)
        dim = tensor_space(system, kind, level).dim
    else:
        raise ValueError(f"kind must be R, Q or P, got {kind!r}")
    return _from_nz(system, {grade: _grade_nz(coords, dim, grade)})


def pair(system: RSystem, m: int, n: int, q_coords, p_coords) -> ToeplitzElement:
    """The class of q (x) p at grade (m, n)."""
    if m == 0 and n == 0:
        raise ValueError("grade (0,0) holds ring elements; use embed")
    if m == 0:
        return embed_n(system, "P", n, p_coords)
    if n == 0:
        return embed_n(system, "Q", m, q_coords)
    q = _grade_nz(q_coords, tensor_space(system, "Q", m).dim, (m, 0))
    p = _grade_nz(p_coords, tensor_space(system, "P", n).dim, (0, n))
    return _from_nz(system, {(m, n): _class_nz(system, m, n, q, p)})


# -- multiplication ----------------------------------------------------------


def _class_words(system: RSystem, m: int, n: int, idx: int):
    """Basis class idx of grade (m, n) as its (Q word, P word); both () at (0,0)."""
    if m and n:
        a, b = divmod(component_space(system, m, n).quot.free[idx], tensor_space(system, "P", n).dim)
    else:
        a = b = idx
    return (tensor_space(system, "Q", m).words[a] if m else (),
            tensor_space(system, "P", n).words[b] if n else ())


def _join(system: RSystem, side: str, head: tuple, r, tail: tuple) -> tuple:
    """Nonzeros of the level coordinates of class(head).r (x) class(tail) on
    `side`, for r in R given by its nonzeros (either word may be empty); with
    r None, the class of head + tail.  r acts on the letter at the join:
    (h (x) e_a).r = h (x) (e_a.r), and r.(e_b (x) t) = (r.e_b) (x) t."""
    if r is None:
        return _word_nz(system, side, head + tail)
    if not (head or tail):
        return r
    mod = _module_of(system, side)
    if head:
        letters = _sum_nz((ri, mod.right[i][head[-1]]) for i, ri in r)
        head = head[:-1]
    else:
        letters = _sum_nz((ri, mod.left[i][tail[0]]) for i, ri in r)
        tail = tail[1:]
    return _sum_nz((c, _word_nz(system, side, head + (y,) + tail)) for y, c in letters)


def _product_column(system: RSystem, g1, i: int, g2, j: int) -> tuple:
    """Nonzero (k, c) of basis class i of C(g1) times basis class j of C(g2),
    by the rule at the join (module docstring), once per system."""
    return _memo(system, ("prodcol", g1, i, g2, j), _build_product_column, system, g1, i, g2, j)


def _build_product_column(system: RSystem, g1, i: int, g2, j: int) -> tuple:
    (m1, n1), (m2, n2) = g1, g2
    u1, v1 = _class_words(system, m1, n1, i)
    u2, v2 = _class_words(system, m2, n2, j)
    k = min(n1, m2)
    if g1 == g2 == (0, 0):
        r = system.ring.left[i][j]
    elif g1 == (0, 0):
        r = ((i, ONE),)
    elif g2 == (0, 0):
        r = ((j, ONE),)
    elif k:
        r = _contract(system, v1[n1 - k:], u2[:k])
    else:
        r = None
    q_tail, p_head = u2[k:], v1[:n1 - k]  # one of them is empty
    if p_head or not (u1 or q_tail):  # the letters meet inside the P word
        q, p = _word_nz(system, "Q", u1) if u1 else None, _join(system, "P", p_head, r, v2)
    else:
        q, p = _join(system, "Q", u1, r, q_tail), _word_nz(system, "P", v2) if v2 else None
    return _class_nz(system, m1 + len(q_tail), len(p_head) + n2, q, p)


def toeplitz_mul(a: ToeplitzElement, b: ToeplitzElement, cap: int = DEFAULT_CAP) -> ToeplitzElement:
    """The product a b; raises CapExceeded, before any work, when an output
    grade has a leg level above cap (one pass over the grade pairs)."""
    if a.system is not b.system:
        raise SystemMismatch("cannot multiply elements over different systems")
    pairs = []
    for g1, nz1 in a.comps.items():
        for g2, nz2 in b.comps.items():
            g_out = semigroup_mul(g1, g2)
            if max(g_out) > cap:
                raise CapExceeded(f"product grade {g_out} has a tensor level above cap {cap}")
            pairs.append((g1, nz1, g2, nz2, g_out))
    system = a.system
    acc: dict = {}  # output grade -> {index: value}
    for g1, nz1, g2, nz2, g_out in pairs:
        if component_space(system, *g_out).dim == 0:
            continue
        w = acc.setdefault(g_out, {})
        for i, x in nz1:
            for j, y in nz2:
                xy = x * y
                for k, c in _product_column(system, g1, i, g2, j):
                    w[k] = w.get(k, ZERO) + xy * c
    return _from_nz(system, {g: tuple(sorted((k, c) for k, c in w.items() if c)) for g, w in acc.items()})


# -- grading ------------------------------------------------------------------


def z_project(x: ToeplitzElement, k: int) -> ToeplitzElement:
    return _from_nz(x.system, {g: v for g, v in x.comps.items() if g[0] - g[1] == k})


# -- representations ----------------------------------------------------------


class Mat:
    """Tiny exact-matrix wrapper so representation targets share one protocol."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(map(frac, row)) for row in rows)

    @classmethod
    def zero(cls, d: int) -> "Mat":
        return cls(mat_zero(d, d))

    def __add__(self, other: "Mat") -> "Mat":
        return Mat([vec_add(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat([[x - y for x, y in zip(a, b)] for a, b in zip(self.rows, other.rows)])

    def __mul__(self, other: "Mat") -> "Mat":
        return Mat(matmul(self.rows, other.rows))

    def __rmul__(self, c) -> "Mat":
        c = frac(c)
        return Mat([[c * x for x in row] for row in self.rows])

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def __repr__(self) -> str:
        return f"Mat({[list(r) for r in self.rows]})"


@dataclass(eq=False)
class Representation:
    """The one sigma/T/S target: the images of the R, Q and P basis elements
    in a ring whose zero is `zero`, and sigma, T and S the linear maps that
    send coordinates to the combinations of those images.  Matrix targets
    take `Mat` images; `graphalg.lpa_target` and
    `crossedprod.crossed_representation` build the closed-form targets."""

    zero: object
    r_images: list
    q_images: list
    p_images: list

    def sigma(self, r):
        return self._comb(self.r_images, r)

    def t(self, q):
        return self._comb(self.q_images, q)

    def s(self, p):
        return self._comb(self.p_images, p)

    def _comb(self, images, coords):
        acc = self.zero
        for c, img in zip(coords, images):
            if c != 0:
                acc = acc + frac(c) * img
        return acc


def check_representation(system: RSystem, rep) -> list[str]:
    """Covariance axioms on basis elements; empty list means a valid target."""
    failures = []
    d_r, d_q, d_p = system.ring.dim, system.q.dim, system.p.dim
    sig = [rep.sigma(unit_vec(d_r, i)) for i in range(d_r)]
    tt = [rep.t(unit_vec(d_q, b)) for b in range(d_q)]
    ss = [rep.s(unit_vec(d_p, a)) for a in range(d_p)]
    for i in range(d_r):
        for j in range(d_r):
            if sig[i] * sig[j] != rep.sigma(system.ring.multiply(unit_vec(d_r, i), unit_vec(d_r, j))):
                failures.append(f"sigma not multiplicative at ({i},{j})")
    for i in range(d_r):
        r = unit_vec(d_r, i)
        for b in range(d_q):
            if tt[b] * sig[i] != rep.t(system.q.act_right(unit_vec(d_q, b), r)):
                failures.append(f"T(q.r) mismatch at (q{b},r{i})")
            if sig[i] * tt[b] != rep.t(system.q.act_left(r, unit_vec(d_q, b))):
                failures.append(f"T(r.q) mismatch at (r{i},q{b})")
        for a in range(d_p):
            if ss[a] * sig[i] != rep.s(system.p.act_right(unit_vec(d_p, a), r)):
                failures.append(f"S(p.r) mismatch at (p{a},r{i})")
            if sig[i] * ss[a] != rep.s(system.p.act_left(r, unit_vec(d_p, a))):
                failures.append(f"S(r.p) mismatch at (r{i},p{a})")
    for a in range(d_p):
        for b in range(d_q):
            lhs = rep.sigma(psi_apply(system, 1, unit_vec(d_p, a), unit_vec(d_q, b)))
            if ss[a] * tt[b] != lhs:
                failures.append(f"covariance fails at (p{a},q{b})")
    return failures


def _rep_leg_images(system: RSystem, rep, side: str, level: int, memo: dict):
    """Images of the basis of level >= 1 under T^m / S^n, memo[side][k] those
    of level k: basis class t of level k is the class of e_a (x) e_b,
    (a, b) = divmod(quot.free[t], dim of level 1), and its image the product
    of theirs."""
    imgs = memo.get(side)
    if imgs is None:
        f, d = rep.t if side == "Q" else rep.s, tensor_space(system, side, 1).dim
        imgs = memo[side] = [None, [f(unit_vec(d, i)) for i in range(d)]]
    while len(imgs) <= level:
        pairs = (divmod(f, len(imgs[1])) for f in tensor_space(system, side, len(imgs)).quot.free)
        imgs.append([imgs[-1][a] * imgs[1][b] for a, b in pairs])
    return imgs[level]


def evaluate(x: ToeplitzElement, rep):
    """Image of x under the representation induced by (sigma, T, S)."""
    for attr in ("sigma", "t", "s"):
        if not callable(getattr(rep, attr, None)):
            raise InvalidRepresentation(f"representation target lacks {attr}()")
    system = x.system
    memo: dict = {}
    acc = rep.sigma(zero_vec(system.ring.dim))
    for (m, n) in x.support():
        if m == 0 and n == 0:
            acc = acc + rep.sigma(list(x.component((0, 0))))
            continue
        q_imgs = _rep_leg_images(system, rep, "Q", m, memo) if m else None
        p_imgs = _rep_leg_images(system, rep, "P", n, memo) if n else None
        free = component_space(system, m, n).quot.free if m and n else None
        for idx, c in x.comps[(m, n)]:
            if m and n:
                a, b = divmod(free[idx], len(p_imgs))
                img = q_imgs[a] * p_imgs[b]
            else:
                img = q_imgs[idx] if m else p_imgs[idx]
            acc = acc + frac(c) * img
    return acc


# -- Fock representation -------------------------------------------------------


def _check_fock_cap(x: ToeplitzElement, j: int, cap: int) -> None:
    """Raise CapExceeded if a block of x from a level <= j lands above cap."""
    for m, n in x.comps:
        if n <= j and j - n + m > cap:
            raise CapExceeded(f"Fock block of grade {(m, n)} from level {j} lands above cap {cap}")


def fock_apply(x: ToeplitzElement, j: int, cap: int = DEFAULT_CAP) -> dict:
    """Blocks of the Fock image of x on the level-j summand: {j_out: columns},
    column c holding the nonzeros of the image of basis vector c of Q^(x)j.

    The Fock module F = (+)_j Q^(x)j is T/L for the left ideal
    L = (+)_(n>=1) T_(m,n): a product lands in grade
    (m1,n1)(m2,n2) = (m1 + m2 - k, n1 + n2 - k), k = min(n1, m2), and
    n1 + n2 - min(n1, m2) >= n2, so T L lies in L.  The pure-Q grades
    T_(j,0) = Q^(x)j span T modulo L, so F = T/L as left T-modules, and x acts
    on F by the ring's own multiplication: basis class idx of grade (m, n)
    sends column c of Q^(x)j to the product column
    (m, n) idx . (j, 0) c, which lands on level j - n + m when n <= j and
    in L (so on 0 in F) when n > j.  The ring grade is the case m = n = 0:
    e_i acts on the first letter, and on level 0 it is e_i e_c.

    Raises CapExceeded, before any work, when a block would land on a level
    above cap.
    """
    _check_fock_cap(x, j, cap)
    system = x.system
    d_src = tensor_space(system, "Q", j).dim
    acc: dict = {}  # j_out -> {column: {index: value}}, the columns with a nonzero product only
    for (m, n), v in x.comps.items():
        if n > j:
            continue
        cols = acc.setdefault(j - n + m, {})
        for idx, c in v:
            for col_c in range(d_src):
                prod = _product_column(system, (m, n), idx, (j, 0), col_c)
                if prod:
                    col = cols.setdefault(col_c, {})
                    for r, y in prod:
                        col[r] = col.get(r, ZERO) + c * y
    blocks = {}
    for k, cols in acc.items():
        nz = {col_c: tuple(sorted((r, y) for r, y in col.items() if y)) for col_c, col in cols.items()}
        if any(nz.values()):
            blocks[k] = tuple([nz.get(col_c, ()) for col_c in range(d_src)])
    return blocks
