"""Relative Cuntz-Pimsner rings as quotients of the Toeplitz ring.

Given a two-sided ideal J of R that is psi-compatible (J maps into the
finite-rank operators under Delta) and faithful (J meets ker Delta trivially),
the relative Cuntz-Pimsner ring is the quotient of the Toeplitz ring by the
relation ideal generated by

    iota_Q^k(q) * ( iota_R(x) - pi(Delta(x)) ) * iota_P^l(p),   x in J,

where pi(Delta(x)) is the grade-(1,1) element realizing the rank-one
decomposition of Delta(x).  Equality in the quotient is decided by exact
linear membership in per-z-degree truncations of that relation ideal; the
truncation degree is raised until the visible span stabilizes twice in a row,
and a positive membership found at any truncation is final (spans only grow).

The gauge action scales the grade-(m,n) component by t^(n-m); since the
scalars form an infinite field, evaluating at enough distinct t recovers the
z-homogeneous parts by solving a Vandermonde system, which is what
``homogeneous_components`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import (
    Subspace,
    frac,
    mat_identity,
    matvec,
    preimage,
    solve,
    solve_matrix,
    unit_vec,
    zero_vec,
)
from .finrank import (
    FsViolation,
    _delta_map_matrix,
    check_fs,
    finite_rank_space,
    theta_matrix,
)
from .rsystem import RSystem
from .tensorpow import DEFAULT_CAP, CapExceeded, tensor_space
from .toeplitz import (
    InvalidRepresentation,
    Representation,
    ToeplitzElement,
    check_representation,
    component_space,
    embed_n,
    toeplitz_mul,
)

__all__ = [
    "CompatibleIdeal",
    "ContextMismatch",
    "CpContext",
    "CpElement",
    "GradedUniquenessReport",
    "ZeroScalar",
    "cp_equal",
    "cp_is_zero",
    "extract_j",
    "extract_tpair",
    "gauge",
    "graded_uniqueness_check",
    "homogeneous_components",
    "in_relation_ideal",
    "is_cp_invariant",
    "relation_generators",
    "stable_relation_span",
    "validate_ideal",
]


class ContextMismatch(ValueError):
    """Operands belong to different Cuntz-Pimsner contexts."""


class ZeroScalar(ValueError):
    """The gauge action is only defined for nonzero scalars."""


# ---------------------------------------------------------------------------
# ideal validation


@dataclass(eq=False)
class CompatibleIdeal:
    system: RSystem
    ideal: Subspace
    is_two_sided: bool
    is_psi_compatible: bool
    is_faithful: bool

    @property
    def ok(self) -> bool:
        return self.is_two_sided and self.is_psi_compatible and self.is_faithful

    def __repr__(self):  # pragma: no cover - debugging aid
        flags = []
        for name in ("is_two_sided", "is_psi_compatible", "is_faithful"):
            flags.append(("+" if getattr(self, name) else "-") + name[3:])
        return f"CompatibleIdeal(dim={self.ideal.dim}, {' '.join(flags)})"


def validate_ideal(system: RSystem, subspace: Subspace) -> CompatibleIdeal:
    """Check the three requirements on J: two-sided, psi-compatible, faithful."""
    ring = system.ring
    d = ring.dim
    if subspace.ambient != d:
        raise ValueError(f"ideal lives in dimension {subspace.ambient}, ring has {d}")

    two_sided = True
    for k in subspace.basis():
        for i in range(d):
            e = unit_vec(d, i)
            if not subspace.contains(matvec(ring.left_matrix(e), k)):
                two_sided = False
            if not subspace.contains(matvec(ring.right_matrix(e), k)):
                two_sided = False

    dmap = _delta_map_matrix(system)
    if not dmap:  # Q = 0: Delta is the zero map, everything is compatible
        delta_inv = Subspace.full(d)
    else:
        fr = finite_rank_space(system)
        delta_inv = preimage(dmap, fr.space)
    psi_compatible = all(delta_inv.contains(k) for k in subspace.basis())

    ker_delta = Subspace(d, _kernel_rows(dmap, d))
    faithful = subspace.intersect(ker_delta).is_zero()
    return CompatibleIdeal(system, subspace, two_sided, psi_compatible, faithful)


def _kernel_rows(mat, ambient):
    from .exactlin import kernel

    ker = kernel(mat) if mat else []
    if not mat:
        return [unit_vec(ambient, i) for i in range(ambient)]
    return ker


# ---------------------------------------------------------------------------
# the relation ideal T(J)


@dataclass(eq=False)
class CpContext:
    system: RSystem
    j: CompatibleIdeal
    slack: int = 2
    # total-grade cap for the membership search; generators reach grade
    # (bound+1, bound+1), so this is twice the per-side tensor level
    cap: int = 2 * DEFAULT_CAP
    last_slack_used: int = field(default=0, init=False)
    _pi_cache: dict = field(default_factory=dict, init=False, repr=False)
    _gen_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.j.system is not self.system:
            raise ContextMismatch("ideal was validated against a different system")
        if not self.j.ok:
            bad = [n for n in ("is_two_sided", "is_psi_compatible", "is_faithful")
                   if not getattr(self.j, n)]
            raise ValueError("ideal fails: " + ", ".join(bad))

    def element(self, x: ToeplitzElement) -> "CpElement":
        if x.system is not self.system:
            raise ContextMismatch("element belongs to a different system")
        return CpElement(self, x)


def _pi_delta(ctx: CpContext, x: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Grade-(1,1) mixed coordinates of pi(Delta(x)), or None if dim (1,1) = 0.

    Solves Delta(x) = sum c_ab theta_{e_a, e_b} in flattened matrix space and
    maps the coefficients through the balanced quotient.  Any solution gives
    the same class: for right-nondegenerate systems q (x) p -> theta_{q,p} is
    injective, so coefficient ambiguity dies in the quotient.
    """
    system = ctx.system
    key = tuple(frac(c) for c in x)
    if key in ctx._pi_cache:
        return ctx._pi_cache[key]
    cs = component_space(system, 1, 1)
    if cs.dim == 0:
        ctx._pi_cache[key] = None
        return None
    coeffs = _theta_decomposition(system, key)
    if coeffs is None:
        raise ValueError("Delta(x) is not finite-rank: ideal is not psi-compatible")
    # c_ab sits at a * dim P + b, the kron_vec coordinate of e_a (x) e_b in Q (x) P
    out = matvec(cs.proj, coeffs)
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
        qs = tensor_space(system, "Q", k, cap=ctx.cap)
        ps = tensor_space(system, "P", l, cap=ctx.cap)
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


def _zdeg_layout(system: RSystem, zdeg: int, max_m: int):
    """Grades (m, m-zdeg) for m up to max_m, with coordinate offsets."""
    grades, offsets, total = [], {}, 0
    for m in range(max(zdeg, 0), max_m + 1):
        n = m - zdeg
        dim = component_space(system, m, n).dim
        if dim:
            grades.append((m, n))
            offsets[(m, n)] = (total, dim)
            total += dim
    return grades, offsets, total


def _coords_in_layout(x: ToeplitzElement, offsets, total) -> Optional[list[Fraction]]:
    vec = zero_vec(total)
    for g, comp in x.comps.items():
        if g not in offsets:
            return None  # supported outside the layout window
    for g, (off, dim) in offsets.items():
        comp = x.component(g)
        for i in range(dim):
            vec[off + i] = comp[i]
    return vec


def _span_at(ctx: CpContext, zdeg: int, bound: int):
    """(offsets, total, span) of z-degree-zdeg generators with k,l <= bound."""
    system = ctx.system
    # generators with k,l <= bound occupy m <= bound+1 and n <= bound+1; for
    # negative z-degrees the n side is the binding one
    max_m = bound + 1 + min(zdeg, 0)
    grades, offsets, total = _zdeg_layout(system, zdeg, max_m)
    rows = []
    for kq in range(0, bound + 1):
        lp = kq - zdeg
        if lp < 0 or lp > bound:
            continue
        if tensor_space(system, "Q", kq, cap=ctx.cap).dim == 0:
            continue
        if tensor_space(system, "P", lp, cap=ctx.cap).dim == 0:
            continue
        for g in relation_generators(ctx, kq, lp):
            v = _coords_in_layout(g, offsets, total)
            if v is not None:
                rows.append(v)
    return offsets, total, Subspace(total, rows) if total else Subspace(0, [])


def _membership_once(ctx: CpContext, xk: ToeplitzElement, zdeg: int, bound: int):
    """Membership of xk in the bounded span; returns (member, windowed_dim)."""
    offsets, total, span = _span_at(ctx, zdeg, bound)
    if total == 0:
        return xk.is_zero(), 0
    xv = _coords_in_layout(xk, offsets, total)
    member = xv is not None and span.contains(xv)
    return member, _windowed_dim(span, offsets, total)


def _windowed_dim(span: Subspace, offsets, total) -> int:
    low = [g for g in offsets if g[0] <= _low_cut(offsets)]
    idx = []
    for g in low:
        off, dim = offsets[g]
        idx.extend(range(off, off + dim))
    if not idx:
        return 0
    window = Subspace(total, [unit_vec(total, i) for i in idx])
    return span.intersect(window).dim


def _low_cut(offsets) -> int:
    # keep the smallest two m-levels as the stability window
    ms = sorted({g[0] for g in offsets})
    return ms[min(1, len(ms) - 1)] if ms else 0


def in_relation_ideal(ctx: CpContext, x: ToeplitzElement) -> bool:
    """Exact membership of x in the relation ideal T(J), per z-degree."""
    if x.system is not ctx.system:
        raise ContextMismatch("element belongs to a different system")
    if x.is_zero():
        ctx.last_slack_used = 0
        return True
    maxdeg = max(max(m, n) for m, n in x.support())
    for k in sorted(x.z_degrees()):
        from .toeplitz import z_project

        xk = z_project(x, k)
        if xk.is_zero():
            continue
        if not _zdeg_member(ctx, xk, k, maxdeg):
            return False
    return True


def _zdeg_member(ctx: CpContext, xk: ToeplitzElement, zdeg: int, maxdeg: int) -> bool:
    dims = []
    b = 0
    while True:
        bound = maxdeg + b
        if 2 * (bound + 1) > ctx.cap:
            raise CapExceeded(
                f"membership test needs grade total {2 * (bound + 1)} > cap {ctx.cap} "
                f"before the span stabilized")
        member, dim = _membership_once(ctx, xk, zdeg, bound)
        if member:
            ctx.last_slack_used = max(ctx.last_slack_used, b)
            return True
        dims.append(dim)
        if b >= max(2, ctx.slack) and dims[-1] == dims[-2] == dims[-3]:
            ctx.last_slack_used = max(ctx.last_slack_used, b)
            return False
        b += 1


def stable_relation_span(ctx: CpContext, zdeg: int, maxdeg: int):
    """(offsets, total, span) at the first bound where the visible span stabilizes.

    Same stabilization discipline as membership testing; used by the graded
    ideal correspondence to turn per-vector questions into exact subspace ones.
    """
    dims = []
    b = 0
    while True:
        bound = maxdeg + b
        if 2 * (bound + 1) > ctx.cap:
            raise CapExceeded(
                f"relation span needs grade total {2 * (bound + 1)} > cap {ctx.cap} "
                f"before stabilizing")
        offsets, total, span = _span_at(ctx, zdeg, bound)
        dims.append(_windowed_dim(span, offsets, total) if total else 0)
        if b >= max(2, ctx.slack) and dims[-1] == dims[-2] == dims[-3]:
            ctx.last_slack_used = max(ctx.last_slack_used, b)
            return offsets, total, span
        b += 1


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


def cp_is_zero(a: CpElement) -> bool:
    return a.is_zero()


def cp_residual(ctx: CpContext, x: ToeplitzElement) -> list[int]:
    """The z-degrees at which x fails membership in T(J) (diagnostics)."""
    from .toeplitz import z_project

    if x.is_zero():
        return []
    maxdeg = max(max(m, n) for m, n in x.support())
    bad = []
    for k in sorted(x.z_degrees()):
        xk = z_project(x, k)
        if not xk.is_zero() and not _zdeg_member(ctx, xk, k, maxdeg):
            bad.append(k)
    return bad


# ---------------------------------------------------------------------------
# Cuntz-Pimsner invariance and ideal extraction from representations


def _theta_decomposition(system: RSystem, x: Sequence[Fraction]):
    """Coefficients c_ab with Delta(x) = sum c_ab theta_{e_a,e_b}, or None."""
    dq, dp = system.q.dim, system.p.dim
    cols = []
    for a in range(dq):
        for b in range(dp):
            m = theta_matrix(system, 1, a, b)
            cols.append([ent for row in m for ent in row])
    mat = [[cols[c][r] for c in range(len(cols))] for r in range(dq * dq)]
    target_m = system.q.left_matrix(list(x))
    target = [ent for row in target_m for ent in row]
    return solve(mat, target)


def is_cp_invariant(system: RSystem, rep: Representation, j) -> bool:
    """Does the representation satisfy sigma(x) = sum T(q_i) S(p_i) for x in J?

    `j` may be a CompatibleIdeal or a raw Subspace of R.  A representation
    factors through the relative Cuntz-Pimsner ring exactly when this holds.
    """
    ideal = j.ideal if isinstance(j, CompatibleIdeal) else j
    dq, dp = system.q.dim, system.p.dim
    for x in ideal.basis():
        coeffs = _theta_decomposition(system, x)
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


def _require_matrix_rep(system: RSystem, rep: Representation):
    failures = check_representation(system, rep)
    if failures:
        raise InvalidRepresentation("; ".join(failures))


def _flatten_image(m) -> list[Fraction]:
    return [ent for row in m.rows for ent in row]


def extract_j(system: RSystem, rep: Representation) -> Subspace:
    """J_{(S,T,sigma)} = { r : sigma(r) in span{ T(q) S(p) } }, exactly."""
    _require_matrix_rep(system, rep)
    d = system.ring.dim
    if rep.dim == 0:
        return Subspace(d, [unit_vec(d, i) for i in range(d)])
    dq, dp = system.q.dim, system.p.dim
    amb = rep.dim * rep.dim
    rows = []
    for a in range(dq):
        for b in range(dp):
            rows.append(_flatten_image(rep.t(unit_vec(dq, a)) * rep.s(unit_vec(dp, b))))
    span = Subspace(amb, rows)
    sig_cols = [_flatten_image(rep.sigma(unit_vec(d, i))) for i in range(d)]
    sigma_map = [[sig_cols[c][r] for c in range(d)] for r in range(amb)]
    return preimage(sigma_map, span)


def extract_tpair(system: RSystem, rep: Representation):
    """(ker sigma, J_{(S,T,sigma)}) — a T-pair when the rep is valid."""
    _require_matrix_rep(system, rep)
    d = system.ring.dim
    amb = rep.dim * rep.dim
    sig_cols = [_flatten_image(rep.sigma(unit_vec(d, i))) for i in range(d)]
    sigma_map = [[sig_cols[c][r] for c in range(d)] for r in range(amb)]
    from .exactlin import kernel

    i_rows = kernel(sigma_map) if amb else [unit_vec(d, i) for i in range(d)]
    return Subspace(d, i_rows), extract_j(system, rep)


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
        comps[(m, n)] = [t ** (n - m) * c for c in v]
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
    vand = [[ts[i] ** (-degrees[j]) for j in range(n)] for i in range(n)]
    inv = solve_matrix(vand, mat_identity(n))
    if inv is None:
        raise ValueError("evaluation points do not separate the degrees")
    out = {}
    for j, k in enumerate(degrees):
        acc = elems[0].scale(Fraction(0))
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
    candidates_checked: int
    note: str = ""


def _two_sided_closure(system: RSystem, space: Subspace) -> Subspace:
    ring = system.ring
    d = ring.dim
    cur = space
    while True:
        rows = list(cur.basis())
        grown = list(rows)
        for k in rows:
            for i in range(d):
                e = unit_vec(d, i)
                grown.append(matvec(ring.left_matrix(e), k))
                grown.append(matvec(ring.right_matrix(e), k))
        nxt = Subspace(d, grown)
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt


def graded_uniqueness_check(system: RSystem, j: CompatibleIdeal) -> GradedUniquenessReport:
    """Is J maximal among faithful psi-compatible ideals?

    Tests every one-dimensional enlargement by a basis vector of
    Delta^{-1}(F_P(Q)), closed up two-sidedly.  Graded uniqueness for the
    relative CP ring holds exactly when no enlargement survives.
    """
    if not check_fs(system).ok:
        raise FsViolation("graded uniqueness analysis requires condition (FS)")
    if not j.ok:
        raise ValueError("ideal must be two-sided, psi-compatible and faithful")

    d = system.ring.dim
    dmap = _delta_map_matrix(system)
    if not dmap:
        delta_inv = Subspace.full(d)
    else:
        fr = finite_rank_space(system)
        delta_inv = preimage(dmap, fr.space)
    ker_delta = Subspace(d, _kernel_rows(dmap, d))

    checked = 0
    for v in delta_inv.basis():
        if j.ideal.contains(v):
            continue
        checked += 1
        enlarged = _two_sided_closure(system, j.ideal.add(Subspace(d, [list(v)])))
        if not all(delta_inv.contains(b) for b in enlarged.basis()):
            continue
        if not enlarged.intersect(ker_delta).is_zero():
            continue
        return GradedUniquenessReport(False, list(v), checked,
                                      "strictly larger faithful compatible ideal found")
    return GradedUniquenessReport(True, None, checked,
                                  "maximal within searched one-dimensional enlargements")
