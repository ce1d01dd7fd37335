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
`toeplitz`; the two paths are independent, which the tests exploit.  The map
kills the full-ideal relation generators, so it is well defined on the
Cuntz-Pimsner quotient; that too is a verified property, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cpring import ContextMismatch, CpContext, CpElement
from .exactlin import (
    ONE,
    ZERO,
    frac,
    mat_identity,
    mat_transpose,
    matmul,
    matvec,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .rsystem import RSystem, _chain, _memo
from .tensorpow import tensor_space
from .toeplitz import SystemMismatch, ToeplitzElement, component_space

__all__ = [
    "CrossedElement",
    "CrossedRepresentation",
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


def phi_power(system: RSystem, k: int):
    """Cached matrix of phi^k (negative k through the stored inverse): a
    chain (`rsystem._chain`) over phi^0, phi^(+-1), .., phi^k."""
    _require_automorphism(system)
    k = int(k)
    sign = -1 if k < 0 else 1
    return _chain(system, ("phi-pow", k), abs(k), _power_key, _power_link, sign)


def _power_key(j: int, sign: int) -> tuple:
    return ("phi-pow", sign * j)


def _power_link(system: RSystem, j: int, prev, sign: int):
    """phi^(sign j), from phi^(sign (j - 1)) (`prev`)."""
    if prev is None:
        return mat_identity(system.ring.dim)
    return matmul(system.phi if sign > 0 else system.phi_inv, prev)


class CrossedElement:
    """Finitely supported map k -> coefficient of [., k] (coordinates in R)."""

    __slots__ = ("system", "terms")

    def __init__(self, system: RSystem, terms=None):
        _require_automorphism(system)
        self.system = system
        clean = {}
        if terms:
            for k, v in terms.items():
                v = tuple(frac(c) for c in v)
                if len(v) != system.ring.dim:
                    raise ValueError(
                        f"coefficient of [., {k}] has length {len(v)}, ring has dim {system.ring.dim}"
                    )
                if any(c != 0 for c in v):
                    clean[int(k)] = v
        self.terms = clean

    @classmethod
    def zero(cls, system: RSystem) -> "CrossedElement":
        return cls(system, {})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def coefficient(self, k: int):
        return list(self.terms.get(int(k), zero_vec(self.system.ring.dim)))

    def _check(self, other: "CrossedElement"):
        if other.system is not self.system:
            raise SystemMismatch("operands belong to different systems")

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        out = {k: list(v) for k, v in self.terms.items()}
        for k, v in other.terms.items():
            out[k] = vec_add(out[k], v) if k in out else list(v)
        return CrossedElement(self.system, out)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return self + (-other)

    def __rmul__(self, c) -> "CrossedElement":
        c = frac(c)
        return CrossedElement(
            self.system, {k: vec_scale(c, list(v)) for k, v in self.terms.items()}
        )

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
        bits = ", ".join(f"[{list(v)}, {k}]" for k, v in sorted(self.terms.items()))
        return f"CrossedElement({bits})"


def cross_mul(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """Bilinear extension of [r1,k1][r2,k2] = [r1 phi^{k1}(r2), k1+k2]."""
    a._check(b)
    ring = a.system.ring
    acc: dict[int, list[Fraction]] = {}
    for k1, r1 in a.terms.items():
        for k2, r2 in b.terms.items():
            w = ring.multiply(list(r1), matvec(phi_power(a.system, k1), list(r2)))
            k = k1 + k2
            acc[k] = vec_add(acc[k], w) if k in acc else w
    return CrossedElement(a.system, acc)


# ---------------------------------------------------------------------------
# Collapse of graded Toeplitz components into Laurent degrees
# ---------------------------------------------------------------------------


def _leg_collapse(system: RSystem, side: str, level: int):
    """Matrix taking level-`level` tensor coordinates to the ring part of the
    crossed-product word (degree -level for Q, +level for P)."""
    _require_automorphism(system)
    return _memo(system, ("crossed-leg", side, level), _build_leg_collapse, system, side, level)


def _build_leg_collapse(system: RSystem, side: str, level: int):
    # word (w1..wn) collapses to w1 phi^s(w2) ... phi^(s(n-1))(wn), s = -1 on Q, +1 on P
    sign = -1 if side == "Q" else 1
    twists = [mat_transpose(phi_power(system, sign * i)) for i in range(level)]  # rows = images
    cols = []
    for word in tensor_space(system, side, level).words:
        acc = twists[0][word[0]]
        for i, letter in enumerate(word[1:], 1):
            acc = system.ring.multiply(acc, twists[i][letter])
        cols.append(acc)
    return mat_transpose(cols)


def toeplitz_to_crossed(x: ToeplitzElement) -> CrossedElement:
    """Word-collapse of a Toeplitz element; grade (m, n) lands at degree n-m."""
    system = x.system
    _require_automorphism(system)
    d = system.ring.dim
    acc: dict[int, list[Fraction]] = {}

    def put(k: int, w):
        if any(c != 0 for c in w):
            acc[k] = vec_add(acc[k], w) if k in acc else list(w)

    for (m, n), v in sorted(x.comps.items()):
        # the ring image of each basis class of the grade, read over x's nonzeros
        if m and n:
            free, d_p = component_space(system, m, n).quot.free, tensor_space(system, "P", n).dim
            q_cols = mat_transpose(_leg_collapse(system, "Q", m))
            p_cols = mat_transpose(matmul(phi_power(system, -m), _leg_collapse(system, "P", n)))
            # basis class idx is that of e_a (x) e_b in Q^m (x) P^n
            images = (system.ring.multiply(q_cols[a], p_cols[b])
                      for a, b in (divmod(free[idx], d_p) for idx, _ in v))
        elif m or n:
            cols = mat_transpose(_leg_collapse(system, "Q" if m else "P", m or n))
            images = (cols[idx] for idx, _ in v)
        else:
            images = (unit_vec(d, idx) for idx, _ in v)
        w = zero_vec(d)
        for (_, coeff), img in zip(v, images):
            w = vec_add(w, vec_scale(coeff, img))
        put(n - m, w)
    return CrossedElement(system, acc)


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


@dataclass(eq=False)
class CrossedRepresentation:
    """The covariant triple sigma(r)=[r,0], T(q)=[q,-1], S(p)=[p,1].

    Duck-typed for `toeplitz.evaluate` / `toeplitz.check_representation`;
    gives a second, independent route from Toeplitz words into the crossed
    product (the generic evaluator knows nothing about the collapse rule).
    """

    system: RSystem

    def sigma(self, r) -> CrossedElement:
        return CrossedElement(self.system, {0: list(r)})

    def t(self, q) -> CrossedElement:
        return CrossedElement(self.system, {-1: list(q)})

    def s(self, p) -> CrossedElement:
        return CrossedElement(self.system, {1: list(p)})


def crossed_representation(system: RSystem) -> CrossedRepresentation:
    _require_automorphism(system)
    return CrossedRepresentation(system)
