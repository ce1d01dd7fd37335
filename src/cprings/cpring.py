"""Relative Cuntz-Pimsner rings as quotients of the Toeplitz ring.

Given a two-sided ideal J of R that is psi-compatible (J maps into the
finite-rank operators under Delta) and faithful (J meets ker Delta trivially),
the relative Cuntz-Pimsner ring O(J) is the quotient of the Toeplitz ring T
by the relation ideal T(J) generated by

    iota_Q^k(q) * ( iota_R(x) - pi(Delta(x)) ) * iota_P^l(p),   x in J,

where pi(Delta(x)) is the grade-(1,1) element realizing the rank-one
decomposition of Delta(x).  Equality in O(J) is membership of the difference
in T(J).  One walk decides membership in every graded ideal exactly on the
Fock representation (`_graded_preimage`, whose docstring has the proof
sketch): the preimage in T of the graded ideal H_(I,J) of a T-pair becomes
a direct sum of operator spans, each between two tensor levels and read
modulo Q^(x)k . I, so membership is a finite walk over the levels of an
element's own Fock blocks.  T(J) is the case I = 0 (`in_relation_ideal`),
and `ideals.IdealHandle` runs it for a T-pair.  Run on a span of elements,
the walk gives the subspace of combinations that lie in the ideal, from
which the graded-ideal correspondence reads T-pairs back.  It needs a
faithful Fock representation, i.e. condition (FS) and no nonzero r with
rR = 0, and raises `FsViolation` without them.  Elements, Fock blocks and
the walk's coefficient rows stay as their nonzeros all through the walk;
one element's verdict is a zero test on each residual, with no
elimination, and a span is restricted by `exactlin.kernel` with the
residuals as the map's columns.

`finrank.validate_ideal`, importable from here, is the one decision of J's
three conditions, for J in R and, given a floor I, for J/I in R/I; a
T-pair's J flags (`ideals.validate_tpair`) are that call, and `CpContext`
alone refuses a J that fails them.

A representation (S, T, sigma) is covariant on x when sigma(x) =
pi_{T,S}(Delta(x)); those x form the ideal J_(S,T,sigma), which ties a
representation to the rings O(J).  One helper reads covariance through the
frame of condition (FS) (`_covariance_defect`, whose docstring has the
proof), and `is_cp_invariant`, `extract_j` and `extract_tpair` all read it.

The gauge action scales the grade-(m,n) component by t^(n-m), so its
eigencomponents are the z-homogeneous parts, which `toeplitz.z_project`
reads off the grades; the Vandermonde interpolation of gauge evaluations
that recovers them independently is a test oracle (`tests/conftest.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import (
    ONE,
    Subspace,
    _nonzeros,
    _sum_nz,
    kernel,
    matvec,  # not called here; perfbench/test_perfbench.py rebinds `cpring.matvec`
    unit_vec,
    zero_vec,
)
from .finrank import (
    CompatibleIdeal,
    FsViolation,
    _flatten,
    canonical_ideals,
    check_fs,
    left_annihilator,
    theta_decomposition,
    validate_ideal,
)
from .rsystem import RSystem, _memo
from .tensorpow import DEFAULT_CAP, ideal_image, tensor_space
from .toeplitz import (
    InvalidRepresentation,
    Representation,
    ToeplitzElement,
    _from_nz,
    check_representation,
    component_space,
    fock_apply,
    toeplitz_mul,
    z_project,
)

__all__ = [
    "CompatibleIdeal",
    "ContextMismatch",
    "CpContext",
    "CpElement",
    "GradedUniquenessReport",
    "cp_equal",
    "extract_j",
    "extract_tpair",
    "graded_uniqueness_check",
    "in_relation_ideal",
    "is_cp_invariant",
    "validate_ideal",
]


class ContextMismatch(ValueError):
    """Operands belong to different Cuntz-Pimsner contexts."""


# ---------------------------------------------------------------------------
# the relation ideal T(J)


@dataclass(eq=False)
class CpContext:
    system: RSystem
    j: CompatibleIdeal
    # highest tensor level that products of CpElements and the Fock blocks
    # of the membership test may create (see toeplitz_mul, fock_apply)
    cap: int = DEFAULT_CAP
    _zero: Subspace = field(init=False, repr=False)  # I = 0, the floor of T(J)

    def __post_init__(self):
        if self.j.system is not self.system:
            raise ContextMismatch("ideal was validated against a different system")
        if not self.j.ok:
            raise ValueError("J is not admissible: fails " + ", ".join(self.j.failed()))
        self._zero = Subspace(self.system.ring.dim)

    def element(self, x: ToeplitzElement) -> "CpElement":
        if x.system is not self.system:
            raise ContextMismatch("element belongs to a different system")
        return CpElement(self, x)


def _pi_delta(system: RSystem, x: Sequence[Fraction]) -> Optional[tuple]:
    """Grade-(1,1) coordinates of pi(Delta(x)) as nonzeros, or None if dim (1,1) = 0.

    Maps the coefficients of `theta_decomposition`, Delta(x) = sum c_ab
    theta_{e_a, e_b}, through the balanced quotient.  Under (FS) any
    solution gives the same class, because t -> theta_t is injective on
    Q (x)_R P: by the P-side frame p = sum_j psi(p (x) q_j) . p_j, a
    t = sum q_i (x) p_i equals sum_j theta_t(q_j) (x) p_j, which is 0 when
    theta_t is.  Without (FS) the class may depend on the solution; the
    membership walk checks (FS).  Memoized per system and x.
    """
    x = tuple(x)
    return _memo(system, ("pi_delta", x), _build_pi_delta, system, x)


def _build_pi_delta(system: RSystem, x: tuple) -> Optional[tuple]:
    cs = component_space(system, 1, 1)
    if cs.dim == 0:
        return None
    coeffs = theta_decomposition(system, x)
    if coeffs is None:
        raise ValueError("Delta(x) is not finite-rank: ideal is not psi-compatible")
    # c_ab sits at a * dim P + b, the Kronecker coordinate of e_a (x) e_b in Q (x) P
    return cs.quot.project_nz(_nonzeros(coeffs))


def _core_generator(ctx: CpContext, x: Sequence[Fraction]) -> ToeplitzElement:
    """iota_R(x) - pi(Delta(x)) as a Toeplitz element, built from its nonzeros."""
    comps = {(0, 0): tuple(_nonzeros(x))}
    pd = _pi_delta(ctx.system, x)
    if pd is not None:
        comps[(1, 1)] = tuple((j, -c) for j, c in pd)
    return _from_nz(ctx.system, comps)


# ---------------------------------------------------------------------------
# exact membership in a graded ideal through the Fock representation


def _vacuum_span(system: RSystem, j: Subspace, k: int) -> Subspace:
    """Theta_{0,k}, once per system: the maps zeta |-> xi zeta from R to
    Q^(x)k with xi in Q^(x)k . J.

    Maps are flattened column by column, as `_flatten` lays out a block.
    """
    return _memo(system, ("vacuum", k, j), _build_vacuum_span, system, j, k)


def _build_vacuum_span(system: RSystem, j: Subspace, k: int) -> Subspace:
    """Column c of zeta |-> xi zeta is xi . e_c, read off the level's right
    action columns as its nonzeros; on graph and permutation systems every
    map has one nonzero, so nothing is eliminated (`Subspace.of_nonzeros`)."""
    dst, d = tensor_space(system, "Q", k), system.ring.dim
    return Subspace.of_nonzeros(dst.dim * d, [_flatten([_sum_nz((x, dst.right[c][a]) for a, x in xi)
                                                        for c in range(d)], dst.dim)
                                              for xi in ideal_image(system, "Q", k, j).basis_nz()])


def _combine_blocks(coeffs, blocks: Sequence[tuple]) -> tuple:
    """sum of c * blocks[k] over the nonzero (k, c) pairs `coeffs`, column by
    column, each block and the sum given as one tuple of nonzero (index,
    value) pairs per column, and () when the sum is zero (as a zero block
    is read off `fock_apply`)."""
    terms = [(c, blocks[k]) for k, c in coeffs if blocks[k]]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    cols = tuple(_sum_nz((c, b[col]) for c, b in terms) for col in range(len(terms[0][1]))) if terms else ()
    return cols if any(len(col) for col in cols) else ()


def _restrict(rows: list, residuals: list) -> list:
    """Basis of the combinations of `rows` whose residual is 0; each row and
    each residual, which is linear in its row, is given by its nonzero
    (index, value) pairs.

    One row is kept or dropped on its own residual, with no elimination.
    Over several rows the combinations y are the kernel of
    y |-> sum y_k residuals[k], whose columns are the residuals
    (`exactlin.kernel`)."""
    if not any(residuals):
        return rows
    if len(rows) == 1:
        return []
    return [_sum_nz((c, rows[k]) for k, c in y) for y in kernel(residuals)]


def _require_faithful_fock(system: RSystem, i: Subspace) -> None:
    """Raise FsViolation unless the Fock representation of R/I (of R for
    I = 0) is faithful: (FS) holds for R/I, and {r : rR <= I}, which contains
    I as IR <= I, has dimension dim I.  Both are read in R modulo I
    (`finrank._floored`, `finrank.left_annihilator`) and decided once per
    system and I."""
    if not check_fs(system, i).ok:
        raise FsViolation("membership in T(J) is decided on the Fock representation, "
                          "which needs condition (FS)")
    if left_annihilator(system, i).dim != i.dim:
        raise FsViolation("membership in T(J) is decided on the Fock representation, "
                          "which is not faithful when some nonzero r has rR = 0")


def _graded_preimage(system: RSystem, i: Subspace, j: Subspace,
                     xs: Sequence[ToeplitzElement], cap: int) -> list:
    """{c : sum_i c_i xs[i] in the preimage of H_(I,J)}, exactly, as a basis of rows in Q^len(xs).

    (I, J) is a T-pair.  The preimage in T of its graded ideal H_(I,J) is the
    set of x whose image in the Toeplitz ring of R/I lies in T(J/I); for
    I = 0 it is T(J) (`in_relation_ideal`).  The walk reads the Fock blocks
    of x itself; R/I and its Toeplitz ring are never built.

    Proof sketch.  Write Q^(x)k . I for the span of the xi . a with xi in
    Q^(x)k and a in I, and read it as I itself when k = 0.

    The walk for T(J).  On the Fock module F = (+)_j Q^(x)j (Q^(x)0 = R),
    iota_R(a) - pi(Delta(a)) acts as a on level 0 and as 0 on every higher
    level, since pi(Delta(a)) acts as Delta(a) (x) id there.  So the
    generator q (iota_R(a) - pi Delta(a)) p, with q in Q^(x)k and p in
    P^(x)l, acts on one level only, as zeta |-> (q.a) . psi_l(p (x) zeta)
    from level l to level k.  Operators of this shape span an ideal of
    Fock(T), hence Fock(T(J)) = (+) Theta_{l,k}, where Theta_{l,k} is
    spanned by the maps zeta |-> xi . psi_l(p (x) zeta), xi in Q^(x)k . J,
    p in P^(x)l; for l = 0 they read zeta |-> xi zeta.  (FS) gives a frame
    id = sum theta_{q_i,p_i} on every Q^(x)l, so for l >= 1 a right-R-linear
    map A equals sum theta_{A q_i, p_i}: Theta_{l,k} is exactly the
    right-R-linear maps with image in Q^(x)k . J, and Fock blocks are
    right-R-linear, so the test is one on columns.  The Fock representation
    is faithful exactly when, besides (FS), no nonzero r has rR = 0.  A
    nonzero z-homogeneous x acts on the level n of its lowest n-degree by
    that grade alone, and injectively: for n >= 1 by the P-side frame, for
    n = 0 by the Q-side frame and rR = 0 => r = 0.  Conversely, for a
    nonzero r with rR = 0, iota_R(r) - pi(Delta(r)) is nonzero and acts as
    0 on every level.  So x lies in T(J) exactly when, in every z-degree d,
    each block A_l : Q^(x)l -> Q^(x)(l+d) of Fock(x) lies in
    Theta_{l,l+d} and all but finitely many blocks vanish.  Let N be the
    largest n-degree of x_d.  On levels l >= N every component acts through
    its first n factors, so A_(l+1) = A_l (x) id_Q there.  Let x lie in T(J)
    and let L be its last level with a nonzero block; suppose L >= N.  Then
    A_L is in Theta, so im A_L <= Q^(x)k . J with k = L + d, and
    A_(L+1) = 0 gives im A_L (x) Q = 0.  So psi_k(P^(x)k (x) im A_L) lies
    in J and kills Q, i.e. lies in J meet ker Delta = 0 (J is faithful), and
    since psi_k separates points under (FS), A_L = 0: a contradiction.  So
    a member has A_N = 0, and x_d lies in T(J) exactly when A_l lies in
    Theta_{l,l+d} for l < N and A_N = 0.  No level above the element's own
    degree is read.

    The floor.  IQ <= QI (checked by `ideals._check_descent`) moves a
    factor of I to the right end of a tensor, (q . a) (x) q' = q (x) a . q'
    with a . q' in QI, so Q^(x)k / Q^(x)k . I = (Q/QI)^(x)k as right
    R/I-modules.  The quotient map from F onto the Fock module of R/I,
    level by level, intertwines iota_R, T and S with their images, so the
    quotient's Fock blocks are the parent's blocks read modulo I: the same
    columns, each taken modulo Q^(x)k . I.  Read back in the parent, and
    with I <= J, the walk for T(J/I) over R/I changes in two places: Theta
    is built from Q^(x)k . J, and at the top level N each column need only
    lie in Q^(x)k . I instead of vanishing.  Theta_{0,k} itself needs no
    floor: the level-0 block is zeta |-> eta zeta, eta the grade-(k,0)
    part.  If it differs from zeta |-> xi zeta (xi in Q^(x)k . J) by
    columns in Q^(x)k . I, the class w of eta - xi in (Q/QI)^(x)k has
    w (R/I) = 0.  For k = 0 that makes w = 0, and for k >= 1 so does the
    frame of R/I, w = sum q_i psi_k(p_i (x) w), since each
    psi_k(p_i (x) w) also kills R/I.  So eta lies in xi + Q^(x)k . I,
    inside Q^(x)k . J.  The termination step uses (FS) of R/I and that J/I
    meets the kernel of R/I's Delta trivially (the pair's
    `quotient_faithful` flag); faithfulness and the level-0 step need (FS)
    of R/I and no nonzero class r with r (R/I) = 0.  The walk checks those
    first, with `_require_faithful_fock(system, I)`, which reads them in R
    modulo I, as the walk does; R/I is never built.

    Every condition is linear in x, so the check runs on a subspace of
    coefficient vectors, starting from all of Q^len(xs); an element's own
    verdict is the case len(xs) = 1.  Returns a basis of that subspace as
    rows, each as its nonzero (index, value) pairs, not reduced: an element
    is a member exactly when the list is not empty.  Raises CapExceeded
    when a block needs a level above `cap`.

    The walk keeps every block as its columns' nonzeros, as `fock_apply`
    gives them, and reduces each combination modulo Q^(x)k . J (or
    Theta_{0,k}, or Q^(x)k . I at the top level) by `Subspace.residual_nz`
    on those nonzeros.  For one element a residual is a zero test, so no
    `kernel` or `rref` runs; several elements take `kernel` with their
    residuals as the columns (`_restrict`).
    """
    for x in xs:
        if x.system is not system:
            raise ContextMismatch("element belongs to a different system")
    _require_faithful_fock(system, i)
    rows = [((k, ONE),) for k in range(len(xs))]
    for d in sorted({d for x in xs for d in x.z_degrees()}):
        parts = [z_project(x, d) for x in xs]
        top = max(p.max_n_degree() for p in parts)
        for l in range(max(0, -d), top + 1):
            if not rows:
                return []
            k = l + d
            blocks = [fock_apply(p, l, cap=cap).get(k, ()) for p in parts]
            combos = [_combine_blocks(row, blocks) for row in rows]
            if l < top and not any(combos):
                continue  # zero blocks lie in every span
            if l == 0 < top:
                span, n = _vacuum_span(system, j, d), tensor_space(system, "Q", k).dim
                residuals = [span.residual_nz(_flatten(cols, n)) for cols in combos]
            else:  # columns in Q^(x)k . J below the top level, in Q^(x)k . I at it
                image = ideal_image(system, "Q", k, i if l == top else j)
                residuals = [_flatten(cols if image.is_zero() else [image.residual_nz(c) for c in cols],
                                      image.ambient) for cols in combos]
            rows = _restrict(rows, residuals)
    return rows


def in_relation_ideal(ctx: CpContext, x: ToeplitzElement) -> bool:
    """Exact membership of x in the relation ideal T(J): the walk of
    `_graded_preimage` with I = 0, where the proof sketch is, on x alone,
    read off its rows with no elimination.

    Needs a faithful Fock representation: raises FsViolation without (FS)
    or when some nonzero r has rR = 0, and CapExceeded when a block needs a
    level above ctx.cap.
    """
    return bool(_graded_preimage(ctx.system, ctx._zero, ctx.j.ideal, [x], ctx.cap))


# ---------------------------------------------------------------------------
# elements of the quotient


@dataclass(eq=False)
class CpElement:
    context: CpContext
    rep: ToeplitzElement

    def _check(self, other: "CpElement"):
        if other.context is not self.context:
            raise ContextMismatch("elements from different contexts")

    def add(self, other: "CpElement") -> "CpElement":
        self._check(other)
        return CpElement(self.context, self.rep.add(other.rep))

    def sub(self, other: "CpElement") -> "CpElement":
        self._check(other)
        return CpElement(self.context, self.rep.sub(other.rep))

    def mul(self, other: "CpElement") -> "CpElement":
        self._check(other)
        return CpElement(self.context, toeplitz_mul(self.rep, other.rep, cap=self.context.cap))

    def scale(self, c) -> "CpElement":
        return CpElement(self.context, self.rep.scale(c))

    def is_zero(self) -> bool:
        return in_relation_ideal(self.context, self.rep)

    __add__ = add
    __sub__ = sub
    __mul__ = mul

    def __neg__(self):
        return CpElement(self.context, self.rep.neg())

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, CpElement):
            return NotImplemented
        return cp_equal(self, other)

    __hash__ = None  # equality is semantic, not structural


def cp_equal(a: CpElement, b: CpElement) -> bool:
    a._check(b)
    return in_relation_ideal(a.context, a.rep.sub(b.rep))


# ---------------------------------------------------------------------------
# covariance of a representation and the ideal J_(S,T,sigma)


def _covariance_defect(system: RSystem, rep):
    """x |-> sigma(x) - sigma(x) E, the covariance defect of a representation,
    for E = sum c T(q_b) S(p_a) over the P-side certificate (a, b, c) of
    (FS), id_P = sum c psi(. (x) q_b) . p_a (`check_fs`).

    J_(S,T,sigma) = {x in Delta^-1(F_P(Q)) : sigma(x) = pi_{T,S}(Delta(x))},
    where pi_{T,S}(theta_{q,p}) = T(q) S(p), is the kernel of the defect.
    Checks `rep` first (`check_representation`) and refuses a system
    without (FS) with FsViolation.

    Proof sketch.  Write k = sum theta_{q_i,p_i}.  (1) pi_{T,S} is well
    defined: by S(p) T(q) = sigma(psi(p (x) q)), sigma(r) S(p) = S(r.p) and
    the P-frame, sum T(q_i) S(p_i) E = sum c T(q_i) S(psi(p_i (x) q_b) . p_a)
    = sum T(q_i) S(p_i), and by T(q) sigma(r) = T(q.r) the same product is
    sum c T(q_i . psi(p_i (x) q_b)) S(p_a) = sum c T(k(q_b)) S(p_a), which
    depends on k alone.  (2) (FS) makes Delta^-1(F_P(Q)) = R (see
    `finrank.delta_ideals`), and with k = Delta(x), k(q_b) = x.q_b and
    T(x.q) = sigma(x) T(q) give pi(Delta(x)) = sigma(x) E.  (3) If
    sigma(x) = sum T(q_i) S(p_i), then sigma(x) E = sigma(x) by (1); and
    conversely sigma(x) = sigma(x) E = sum c T(x.q_b) S(p_a) lies in
    span{T(q) S(p)}.  So under (FS), J is also sigma^-1(span{T(q) S(p)}),
    and it is the ideal that the theta coefficients of Delta(x) give.
    Without (FS) those readings can differ, so such systems are refused.
    (t = sum c q_b (x) p_a has theta_t = id_Q under (FS), so E = pi(id_Q)
    commutes with sigma(R), and the side E multiplies from is immaterial.)
    """
    failures = check_representation(system, rep)
    if failures:
        raise InvalidRepresentation("; ".join(failures))
    fs = check_fs(system)
    if not fs.ok:
        raise FsViolation("the covariance of a representation is read through the (FS) "
                          "frame, which needs condition (FS)")
    dq, dp = system.q.dim, system.p.dim
    e = rep.sigma(zero_vec(system.ring.dim))  # the target's zero
    for a, b, c in fs.p_certificate:
        e = e + c * (rep.t(unit_vec(dq, b)) * rep.s(unit_vec(dp, a)))

    def defect(x):
        s = rep.sigma(list(x))
        return s - s * e

    return defect


def _kernel_over_basis(system: RSystem, f) -> Subspace:
    """{x in R : f(x) = 0} for a linear f into square matrices (`Mat`): the
    kernel of f, whose column r is f(e_r) flattened."""
    d = system.ring.dim
    cols = [_nonzeros([v for row in f(unit_vec(d, r)).rows for v in row]) for r in range(d)]
    return Subspace.of_nonzeros(d, kernel(cols))


def is_cp_invariant(system: RSystem, rep, j) -> bool:
    """Is J <= J_(S,T,sigma): does every basis vector of J have zero
    covariance defect (`_covariance_defect`, where the proof is)?

    `j` may be a CompatibleIdeal or a raw Subspace of R.  A representation
    factors through the relative Cuntz-Pimsner ring O(J) exactly when this
    holds.  Works on any target with ring operations and `==`.
    """
    ideal = j.ideal if isinstance(j, CompatibleIdeal) else j
    defect = _covariance_defect(system, rep)
    zero = defect(zero_vec(system.ring.dim))
    return all(defect(x) == zero for x in ideal.basis())


def extract_j(system: RSystem, rep: Representation) -> Subspace:
    """J_(S,T,sigma), exactly: the kernel of the covariance defect
    (`_covariance_defect`) over R's basis."""
    return _kernel_over_basis(system, _covariance_defect(system, rep))


def extract_tpair(system: RSystem, rep: Representation):
    """(ker sigma, J_(S,T,sigma)), a T-pair for a valid representation."""
    defect = _covariance_defect(system, rep)
    return _kernel_over_basis(system, rep.sigma), _kernel_over_basis(system, defect)


# ---------------------------------------------------------------------------
# graded uniqueness


@dataclass
class GradedUniquenessReport:
    maximal: bool
    witness: Optional[list[Fraction]]
    note: str = ""


def graded_uniqueness_check(system: RSystem, j: CompatibleIdeal) -> GradedUniquenessReport:
    """Is J maximal among faithful psi-compatible ideals?

    Proof sketch.  Let J be faithful and psi-compatible.  ker Delta is a
    two-sided ideal, so J.ker Delta and ker Delta.J lie in J meet ker Delta,
    which is 0; hence J <= (ker Delta)^perp, its two-sided annihilator.
    Compatibility gives J <= Delta^-1(F_P(Q)).  Together J <= j_max, their
    intersection.  When j_max meets ker Delta trivially (`hypothesis_ok` of
    `canonical_ideals`), j_max is itself a two-sided, faithful, compatible
    ideal, so J is maximal exactly when J = j_max, and any basis vector of
    j_max outside J witnesses that it is not.  Needs (FS) and that
    hypothesis; raises FsViolation or ValueError without them.
    """
    ideals = canonical_ideals(system)
    if not j.ok:
        raise ValueError("ideal must be two-sided, psi-compatible and faithful")
    if not ideals["hypothesis_ok"]:
        raise ValueError("j_max meets ker Delta: maximality is not decided by j_max")
    for v in ideals["j_max"].basis():
        if not j.ideal.contains(v):
            return GradedUniquenessReport(False, list(v), "j_max is a strictly larger "
                                          "faithful compatible ideal")
    return GradedUniquenessReport(True, None, "J equals j_max")
