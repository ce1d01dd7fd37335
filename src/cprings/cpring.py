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
element's own Fock blocks.  T(J) is the case I = 0 (`relation_preimage`),
and `ideals.IdealHandle` runs it for a T-pair.  Run on a span of elements,
the walk gives the subspace of combinations that lie in the ideal, from
which the graded-ideal correspondence reads T-pairs back.  It needs a
faithful Fock representation, i.e. condition (FS) and no nonzero r with
rR = 0, and raises `FsViolation` without them.

`finrank.validate_ideal`, importable from here, is the one decision of J's
three conditions, for J in R and, given a floor I, for J/I in R/I; a
T-pair's J flags (`ideals.validate_tpair`) are that call, and `CpContext`
alone refuses a J that fails them.

The gauge action scales the grade-(m,n) component by t^(n-m); since the
scalars form an infinite field, evaluating at enough distinct t recovers the
z-homogeneous parts by solving a Vandermonde system, which is what
``homogeneous_components`` does; the tests use it as an independent oracle
for ``toeplitz.z_project``, which reads the same parts off the grades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import (
    ZERO,
    Subspace,
    _nonzeros,
    frac,
    kernel,
    mat_identity,
    mat_transpose,
    matvec,  # not called here; perfbench/test_perfbench.py rebinds `cpring.matvec`
    preimage,
    solve_matrix,
    unit_vec,
)
from .finrank import (
    CompatibleIdeal,
    FsViolation,
    _column_residual,
    canonical_ideals,
    check_fs,
    left_annihilator,
    theta_decomposition,
    validate_ideal,
)
from .rsystem import RSystem
from .tensorpow import DEFAULT_CAP, _system_store, ideal_image, tensor_space
from .toeplitz import (
    InvalidRepresentation,
    Representation,
    ToeplitzElement,
    check_representation,
    component_space,
    embed_n,
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
    "ZeroScalar",
    "cp_equal",
    "extract_j",
    "extract_tpair",
    "gauge",
    "graded_uniqueness_check",
    "homogeneous_components",
    "in_relation_ideal",
    "is_cp_invariant",
    "relation_generators",
    "relation_preimage",
    "validate_ideal",
]


class ContextMismatch(ValueError):
    """Operands belong to different Cuntz-Pimsner contexts."""


class ZeroScalar(ValueError):
    """The gauge action is only defined for nonzero scalars."""


# ---------------------------------------------------------------------------
# the relation ideal T(J)


@dataclass(eq=False)
class CpContext:
    system: RSystem
    j: CompatibleIdeal
    # highest tensor level that products of CpElements and the Fock blocks
    # of the membership test may create (see toeplitz_mul, fock_apply)
    cap: int = DEFAULT_CAP
    _pi_cache: dict = field(default_factory=dict, init=False, repr=False)
    _gen_cache: dict = field(default_factory=dict, init=False, repr=False)
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


def _pi_delta(ctx: CpContext, x: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Grade-(1,1) mixed coordinates of pi(Delta(x)), or None if dim (1,1) = 0.

    Maps the coefficients of `theta_decomposition`, Delta(x) = sum c_ab
    theta_{e_a, e_b}, through the balanced quotient.  Under (FS) any
    solution gives the same class, because t -> theta_t is injective on
    Q (x)_R P: by the P-side frame p = sum_j psi(p (x) q_j) . p_j, a
    t = sum q_i (x) p_i equals sum_j theta_t(q_j) (x) p_j, which is 0 when
    theta_t is.  Without (FS) the class may depend on the solution; the
    membership walk checks (FS).
    """
    system = ctx.system
    key = tuple(x)
    if key in ctx._pi_cache:
        return ctx._pi_cache[key]
    cs = component_space(system, 1, 1)
    if cs.dim == 0:
        ctx._pi_cache[key] = None
        return None
    coeffs = theta_decomposition(system, key)
    if coeffs is None:
        raise ValueError("Delta(x) is not finite-rank: ideal is not psi-compatible")
    # c_ab sits at a * dim P + b, the Kronecker coordinate of e_a (x) e_b in Q (x) P
    out = cs.quot.project(coeffs)
    ctx._pi_cache[key] = out
    return out


def _core_generator(ctx: CpContext, x: Sequence[Fraction]) -> ToeplitzElement:
    """iota_R(x) - pi(Delta(x)) as a Toeplitz element."""
    comps = {(0, 0): list(x)}
    pd = _pi_delta(ctx, x)
    if pd is not None:
        comps[(1, 1)] = [-c for c in pd]
    return ToeplitzElement(ctx.system, comps)


def relation_generators(ctx: CpContext, k: int, l: int) -> list[ToeplitzElement]:
    """Spanning elements iota_Q^k(q) (iota_R(x) - pi(Delta(x))) iota_P^l(p)."""
    key = (k, l)
    if key in ctx._gen_cache:
        return ctx._gen_cache[key]
    system = ctx.system
    jbasis = ctx.j.ideal.basis()
    out: list[ToeplitzElement] = []
    if jbasis:
        qs = tensor_space(system, "Q", k)
        ps = tensor_space(system, "P", l)
        for x in jbasis:
            core = _core_generator(ctx, x)
            for a in range(qs.dim) if k else [None]:
                left = core if a is None else toeplitz_mul(
                    embed_n(system, "Q", k, unit_vec(qs.dim, a)), core, cap=ctx.cap)
                for b in range(ps.dim) if l else [None]:
                    g = left if b is None else toeplitz_mul(
                        left, embed_n(system, "P", l, unit_vec(ps.dim, b)), cap=ctx.cap)
                    if not g.is_zero():
                        out.append(g)
    ctx._gen_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# exact membership in a graded ideal through the Fock representation


def _vacuum_span(system: RSystem, j: Subspace, k: int) -> Subspace:
    """Theta_{0,k}, once per system: the maps zeta |-> xi zeta from R to
    Q^(x)k with xi in Q^(x)k . J.

    Maps are flattened column by column, as `_fock_block` lays out a block.
    """
    store = _system_store(system)
    span = store.get(("vacuum", k, j))
    if span is None:
        dst = tensor_space(system, "Q", k)
        d = system.ring.dim
        span = store[("vacuum", k, j)] = Subspace(dst.dim * d, [
            [e for c in range(d) for e in dst.act_right(xi, unit_vec(d, c))]
            for xi in ideal_image(system, "Q", k, j).basis()])
    return span


def _fock_block(x: ToeplitzElement, l: int, k: int, cap: int) -> list[Fraction]:
    """The level-l -> level-k block of Fock(x), flattened column by column."""
    d = tensor_space(x.system, "Q", k).dim
    out = [ZERO] * (d * tensor_space(x.system, "Q", l).dim)
    for c, col in enumerate(fock_apply(x, l, cap=cap).get(k, ())):
        for r, v in col:
            out[c * d + r] = v
    return out


def _combine(coeffs: Sequence[Fraction], vectors: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """sum of coeffs[i] * vectors[i]."""
    out = [ZERO] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            for j, y in _nonzeros(v):
                out[j] += c * y
    return out


def _restrict(rows: list, residuals: list) -> list:
    """Basis of the combinations of `rows` whose residual (linear in the row) is 0."""
    if not any(any(r) for r in residuals):
        return rows
    return [_combine(y, rows) for y in kernel(mat_transpose(residuals))]


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
                     xs: Sequence[ToeplitzElement], cap: int) -> Subspace:
    """{c : sum_i c_i xs[i] in the preimage of H_(I,J)}, exactly, as a subspace of Q^len(xs).

    (I, J) is a T-pair.  The preimage in T of its graded ideal H_(I,J) is the
    set of x whose image in the Toeplitz ring of R/I lies in T(J/I); for
    I = 0 it is T(J) (`relation_preimage`).  The walk reads the Fock blocks
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
    verdict is the case len(xs) = 1.  Raises CapExceeded when a block needs
    a level above `cap`.
    """
    for x in xs:
        if x.system is not system:
            raise ContextMismatch("element belongs to a different system")
    _require_faithful_fock(system, i)
    rows = mat_identity(len(xs))
    for d in sorted({d for x in xs for d in x.z_degrees()}):
        parts = [z_project(x, d) for x in xs]
        top = max(p.max_n_degree() for p in parts)
        for l in range(max(0, -d), top + 1):
            if not rows:
                return Subspace(len(xs), [])
            blocks = [_fock_block(p, l, l + d, cap) for p in parts]
            combos = [_combine(row, blocks) for row in rows]
            if l < top and not any(any(v) for v in combos):
                continue  # zero blocks lie in every span
            if l == 0 < top:
                span = _vacuum_span(system, j, d)
                residuals = [span.reduce(v) for v in combos]
            else:  # columns in Q^(x)k . J below the top level, in Q^(x)k . I at it
                image = ideal_image(system, "Q", l + d, i if l == top else j)
                residuals = [_column_residual(image, v) for v in combos]
            rows = _restrict(rows, residuals)
    return Subspace(len(xs), rows)


def relation_preimage(ctx: CpContext, xs: Sequence[ToeplitzElement]) -> Subspace:
    """{c : sum_i c_i xs[i] in T(J)}, exactly, as a subspace of Q^len(xs).

    The walk of `_graded_preimage` with I = 0, where the proof sketch is.
    Needs a faithful Fock representation: raises FsViolation without (FS)
    or when some nonzero r has rR = 0, and CapExceeded when a block needs a
    level above ctx.cap.
    """
    return _graded_preimage(ctx.system, ctx._zero, ctx.j.ideal, xs, ctx.cap)


def in_relation_ideal(ctx: CpContext, x: ToeplitzElement) -> bool:
    """Exact membership of x in the relation ideal T(J) (see `relation_preimage`)."""
    return not relation_preimage(ctx, [x]).is_zero()


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
# Cuntz-Pimsner invariance and ideal extraction from representations


def is_cp_invariant(system: RSystem, rep: Representation, j) -> bool:
    """Does the representation satisfy sigma(x) = sum T(q_i) S(p_i) for x in J?

    `j` may be a CompatibleIdeal or a raw Subspace of R.  A representation
    factors through the relative Cuntz-Pimsner ring exactly when this holds.
    """
    ideal = j.ideal if isinstance(j, CompatibleIdeal) else j
    dq, dp = system.q.dim, system.p.dim
    for x in ideal.basis():
        coeffs = theta_decomposition(system, x)
        if coeffs is None:
            return False  # Delta(x) not finite-rank: no theta decomposition
        lhs = rep.sigma(list(x))
        rhs = None
        for a in range(dq):
            for b in range(dp):
                c = coeffs[a * dp + b]
                if not c:
                    continue
                term = c * (rep.t(unit_vec(dq, a)) * rep.s(unit_vec(dp, b)))
                rhs = term if rhs is None else rhs + term
        if rhs is None:
            rhs = 0 * lhs
        if not (lhs == rhs):
            return False
    return True


def _flatten_image(m) -> list[Fraction]:
    return [ent for row in m.rows for ent in row]


def _sigma_and_j(system: RSystem, rep: Representation) -> tuple[list, Subspace]:
    """After checking that `rep` is a representation: sigma as the (dim^2 x dim R) matrix
    of the flattened sigma(e_r), and J_{(S,T,sigma)} = sigma^-1(span{ T(q) S(p) })."""
    failures = check_representation(system, rep)
    if failures:
        raise InvalidRepresentation("; ".join(failures))
    d, amb = system.ring.dim, rep.dim * rep.dim
    cols = [_flatten_image(rep.sigma(unit_vec(d, r))) for r in range(d)]
    sigma = [[col[k] for col in cols] for k in range(amb)]
    if not amb:
        return sigma, Subspace.full(d)
    dq, dp = system.q.dim, system.p.dim
    span = Subspace(amb, [_flatten_image(rep.t(unit_vec(dq, a)) * rep.s(unit_vec(dp, b)))
                          for a in range(dq) for b in range(dp)])
    return sigma, preimage(sigma, span)


def extract_j(system: RSystem, rep: Representation) -> Subspace:
    """J_{(S,T,sigma)} = { r : sigma(r) in span{ T(q) S(p) } }, exactly."""
    return _sigma_and_j(system, rep)[1]


def extract_tpair(system: RSystem, rep: Representation):
    """(ker sigma, J_{(S,T,sigma)}) — a T-pair when the rep is valid."""
    sigma, j = _sigma_and_j(system, rep)
    d = system.ring.dim
    return (Subspace(d, kernel(sigma)) if rep.dim else Subspace.full(d)), j


# ---------------------------------------------------------------------------
# gauge action


def gauge(t, x):
    """tau_t: scales the grade-(m,n) component by t^(n-m).

    On generators: iota_P(p) -> t * iota_P(p), iota_Q(q) -> t^{-1} iota_Q(q),
    iota_R fixed; works on ToeplitzElement or CpElement.
    """
    t = frac(t)
    if t == 0:
        raise ZeroScalar("gauge action needs t != 0")
    if isinstance(x, CpElement):
        return CpElement(x.context, gauge(t, x.rep))
    comps = {}
    for (m, n), v in x.comps.items():
        s = frac(Fraction(t) ** (n - m))  # a Fraction base keeps t^-k exact
        comps[(m, n)] = [s * c for c in v]
    return ToeplitzElement(x.system, comps)


def homogeneous_components(evaluations, degrees):
    """Recover z-homogeneous parts from gauge evaluations (Vandermonde solve).

    evaluations: sequence of (t, tau_t(x)) pairs with distinct nonzero t;
    degrees: the candidate z-degrees.  Needs len(evaluations) >= len(degrees).
    Returns {degree: component}.
    """
    ts = [frac(t) for t, _ in evaluations]
    if any(t == 0 for t in ts):
        raise ZeroScalar("gauge evaluations need nonzero t")
    if len(set(ts)) != len(ts):
        raise ValueError("evaluation points must be distinct")
    degrees = list(degrees)
    if len(ts) < len(degrees):
        raise ValueError("need at least one evaluation per candidate degree")
    ts = ts[: len(degrees)]
    elems = [e for _, e in evaluations][: len(degrees)]
    n = len(degrees)
    vand = [[frac(Fraction(ts[i]) ** (-degrees[j])) for j in range(n)] for i in range(n)]
    inv = solve_matrix(vand, mat_identity(n))
    if inv is None:
        raise ValueError("evaluation points do not separate the degrees")
    out = {}
    for j, k in enumerate(degrees):
        acc = elems[0].scale(0)
        for i in range(n):
            c = inv[j][i]
            if c:
                acc = acc.add(elems[i].scale(c))
        out[k] = acc
    return out


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
