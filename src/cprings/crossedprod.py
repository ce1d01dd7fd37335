"""Skew Laurent (crossed product) backend R x_phi Z for automorphism systems.

For a system built from a ring automorphism phi (module legs P = Q = R with
the phi-twisted right actions, psi(p (x) q) = p phi(q)), the relative
Cuntz-Pimsner ring at J = R has a closed form: the crossed product with
basis symbols [r, k] and product

    [r1, k1] [r2, k2] = [r1 phi^{k1}(r2), k1 + k2].

The covariant triple lands as sigma(r) = [r, 0], T(q) = [q, -1],
S(p) = [p, +1]; a word T(q1)...T(qm) S(p1)...S(pn) collapses to

    [q1 phi^{-1}(q2 phi^{-1}(... qm)) . phi^{-m}(p1 phi(p2 ... )), n - m],

so every graded component contributes to exactly one Laurent degree n - m.
`cp_to_crossed` implements that collapse directly on component coordinates
(each basis class of a level is a word of letters, collapsed as above), while
`crossed_representation` exposes the same triple to the generic evaluator in
`toeplitz` as a `toeplitz.Representation`; the two paths are independent,
which the tests exploit.  The map kills the full-ideal relation generators,
so it is well defined on the Cuntz-Pimsner quotient; that too is a verified
property, not an assumption.

Everything here is read off nonzeros, as in `toeplitz`, starting from the
images of phi and phi^{-1} that `build_automorphism_system` keeps; no matrix
is formed.  A Laurent degree is an int, and a non-integral one is refused.
"""

from __future__ import annotations

from fractions import Fraction

from .cpring import ContextMismatch, CpContext, CpElement
from .exactlin import ONE, ZERO, _dense, _nonzeros, _sum_nz, frac, vec
from .rsystem import RSystem, _chain, _memo
from .tensorpow import tensor_space
from .toeplitz import Representation, SystemMismatch, ToeplitzElement, component_space

__all__ = [
    "CrossedElement",
    "cp_to_crossed",
    "cross_mul",
    "crossed_representation",
    "permutation_matrix",
    "phi_power",
    "toeplitz_to_crossed",
]


def permutation_matrix(perm) -> list[list[Fraction]]:
    """Automorphism matrix sending e_j to e_{perm[j]} on the diagonal ring."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return [
        [ONE if perm[j] == i else ZERO for j in range(n)]
        for i in range(n)
    ]


def _require_automorphism(system: RSystem):
    if getattr(system, "phi", None) is None:
        raise SystemMismatch(
            "crossed products need an automorphism system (build_automorphism_system)"
        )


def _degree(k) -> int:
    """A Laurent degree, refused with ValueError unless it is an int (int()
    would truncate 1.5 to 1)."""
    if not isinstance(k, int):
        raise ValueError(f"a Laurent degree is an integer, got {k!r}")
    return k


def phi_power(system: RSystem, k: int) -> tuple:
    """phi^k as its images' nonzeros, entry i those of phi^k(e_i), cached
    (negative k through the stored inverse): a chain (`rsystem._chain`) over
    phi^0, phi^(+-1), .., phi^k."""
    _require_automorphism(system)
    k = _degree(k)
    sign = -1 if k < 0 else 1
    return _chain(system, ("phi-pow", k), abs(k), _power_key, _power_link, sign)


def _power_key(j: int, sign: int) -> tuple:
    return ("phi-pow", sign * j)


def _power_link(system: RSystem, j: int, prev, sign: int) -> tuple:
    """phi^(sign j), from phi^(sign (j - 1)) (`prev`): phi^(+-1) applied to
    each image of prev."""
    if prev is None:
        return tuple(((i, ONE),) for i in range(system.ring.dim))
    step = system.phi if sign > 0 else system.phi_inv
    return tuple(_apply(step, img) for img in prev)


def _apply(images, v) -> tuple:
    """The nonzeros of f(v), for the linear map f whose basis images' nonzeros
    are `images` and v given by its nonzeros."""
    return _sum_nz((c, images[i]) for i, c in v)


class CrossedElement:
    """Finitely supported map k -> coefficient of [., k] in R.

    `terms[k]` is the tuple of nonzero (index, value) pairs of degree k's
    coefficient, sorted by index, and a degree with none is absent, as a
    `ToeplitzElement` keeps its grades.  The constructor takes dense
    coefficients (coerced by `vec`, each of length dim R, at integer
    degrees); `coefficient` is the one dense reader."""

    __slots__ = ("system", "terms")

    def __init__(self, system: RSystem, terms=None):
        _require_automorphism(system)
        d = system.ring.dim
        clean = {}
        for k, v in (terms or {}).items():
            k, v = _degree(k), vec(v)
            if len(v) != d:
                raise ValueError(f"coefficient of [., {k}] has length {len(v)}, ring has dim {d}")
            nz = tuple(_nonzeros(v))
            if nz:
                clean[k] = nz
        self.system = system
        self.terms = clean

    @classmethod
    def zero(cls, system: RSystem) -> "CrossedElement":
        return cls(system, {})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def coefficient(self, k: int):
        return _dense(self.system.ring.dim, self.terms.get(_degree(k), ()))

    def _check(self, other: "CrossedElement"):
        if other.system is not self.system:
            raise SystemMismatch("operands belong to different systems")

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = _sum_nz(((1, terms[k]), (1, v))) if k in terms else v
        return _from_terms(self.system, terms)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return self + (-other)

    def __rmul__(self, c) -> "CrossedElement":
        c = frac(c)
        if not c:
            return _from_terms(self.system, {})
        # `frac` brings an integral product of Fractions back to an int
        return _from_terms(self.system, {k: tuple((i, frac(c * x)) for i, x in v) for k, v in self.terms.items()})

    def __neg__(self) -> "CrossedElement":
        return self.__rmul__(-1)

    def __mul__(self, other: "CrossedElement") -> "CrossedElement":
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return cross_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return self.system is other.system and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((id(self.system), frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "CrossedElement(0)"
        bits = ", ".join(f"[{self.coefficient(k)}, {k}]" for k in self.support())
        return f"CrossedElement({bits})"


def _from_terms(system: RSystem, terms: dict) -> CrossedElement:
    """The element whose degrees carry the given nonzero (index, value)
    pairs, sorted by index; a degree with none is dropped."""
    x = object.__new__(CrossedElement)
    x.system = system
    x.terms = {k: v for k, v in terms.items() if v}
    return x


def cross_mul(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """Bilinear extension of [r1,k1][r2,k2] = [r1 phi^{k1}(r2), k1+k2]."""
    a._check(b)
    system = a.system
    acc: dict = {}  # degree -> [(1, nonzeros of one product)]
    for k1, r1 in a.terms.items():
        twist = phi_power(system, k1)
        for k2, r2 in b.terms.items():
            acc.setdefault(k1 + k2, []).append((1, system.ring.multiply_nz(r1, _apply(twist, r2))))
    return _from_terms(system, {k: _sum_nz(parts) for k, parts in acc.items()})


# ---------------------------------------------------------------------------
# Collapse of graded Toeplitz components into Laurent degrees
# ---------------------------------------------------------------------------


def _leg_collapse(system: RSystem, side: str, level: int) -> tuple:
    """The ring part of the crossed-product word of each basis vector of a
    level, as its nonzeros (degree -level for Q, +level for P)."""
    _require_automorphism(system)
    return _memo(system, ("crossed-leg", side, level), _build_leg_collapse, system, side, level)


def _build_leg_collapse(system: RSystem, side: str, level: int) -> tuple:
    # word (w1..wn) collapses to w1 phi^s(w2) ... phi^(s(n-1))(wn), s = -1 on Q, +1 on P
    sign = -1 if side == "Q" else 1
    twists = [phi_power(system, sign * i) for i in range(level)]
    out = []
    for word in tensor_space(system, side, level).words:
        acc = twists[0][word[0]]
        for i, letter in enumerate(word[1:], 1):
            acc = system.ring.multiply_nz(acc, twists[i][letter])
        out.append(acc)
    return tuple(out)


def toeplitz_to_crossed(x: ToeplitzElement) -> CrossedElement:
    """Word-collapse of a Toeplitz element; grade (m, n) lands at degree n-m."""
    system = x.system
    _require_automorphism(system)
    acc: dict = {}  # degree -> [(coefficient, nonzeros of a basis class's image)]
    for (m, n), v in x.comps.items():
        # the ring image of each basis class of the grade, read over x's nonzeros
        if m and n:
            free, d_p = component_space(system, m, n).quot.free, tensor_space(system, "P", n).dim
            q_imgs, p_imgs = _leg_collapse(system, "Q", m), _leg_collapse(system, "P", n)
            twist = phi_power(system, -m)
            # basis class idx is that of e_a (x) e_b in Q^m (x) P^n
            images = (system.ring.multiply_nz(q_imgs[a], _apply(twist, p_imgs[b]))
                      for a, b in (divmod(free[idx], d_p) for idx, _ in v))
        elif m or n:
            imgs = _leg_collapse(system, "Q" if m else "P", m or n)
            images = (imgs[idx] for idx, _ in v)
        else:
            images = (((idx, ONE),) for idx, _ in v)
        acc.setdefault(n - m, []).extend((c, img) for (_, c), img in zip(v, images))
    return _from_terms(system, {k: _sum_nz(parts) for k, parts in acc.items()})


def cp_to_crossed(ctx: CpContext, x) -> CrossedElement:
    """Image of a Cuntz-Pimsner class in the crossed product R x_phi Z.

    Requires a context over an automorphism system with J = R (the relation
    ideal of the full ideal is exactly what the collapse kills).  Accepts a
    CpElement of that context or a raw ToeplitzElement representative.
    """
    system = ctx.system
    if getattr(system, "phi", None) is None:
        raise ContextMismatch("context system was not built from a ring automorphism")
    if ctx.j.ideal.dim != system.ring.dim:
        raise ContextMismatch("the crossed-product realization needs J = R")
    if isinstance(x, CpElement):
        if x.context is not ctx:
            raise ContextMismatch("element belongs to a different context")
        rep = x.rep
    elif isinstance(x, ToeplitzElement):
        if x.system is not system:
            raise ContextMismatch("element belongs to a different system")
        rep = x
    else:
        raise TypeError(f"expected CpElement or ToeplitzElement, got {type(x).__name__}")
    return toeplitz_to_crossed(rep)


def crossed_representation(system: RSystem) -> Representation:
    """The covariant triple sigma(r)=[r,0], T(q)=[q,-1], S(p)=[p,1], as a
    `toeplitz.Representation` whose basis images are the [e_i, k].

    It gives `toeplitz.evaluate` a second, independent route from Toeplitz
    words into the crossed product (the generic evaluator knows nothing
    about the collapse rule).
    """
    _require_automorphism(system)
    units = [((i, ONE),) for i in range(system.ring.dim)]
    return Representation(_from_terms(system, {}),
                          *([_from_terms(system, {k: u}) for u in units] for k in (0, -1, 1)))
