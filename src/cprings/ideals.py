"""T-pairs, quotient systems, and the graded-ideal correspondence.

A two-sided ideal I of R is psi-invariant when psi(p (x) x q) lands back in I;
that is exactly what makes the quotient data R/I, Q/QI, P/IP, psi_I an
R-system again.  A T-pair (I, J) couples such an I with an ideal J whose image
in R/I is psi_I-compatible and faithful; these index the graded two-sided
ideals of the relative Cuntz-Pimsner rings.  The correspondence is realized
intensionally: an ideal handle answers membership by the one membership walk
of `cpring` (`_graded_preimage`), run with the pair's I and J on the parent's
own Fock blocks, whose columns it reads modulo Q^(x)k . I; R/I is built only
for the pair's flags and the walk's guard.  The backward map reads (I, J) off
the exact subspace of combinations of iota_R(R) and the grade-(1,1) component
that the same walk accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .exactlin import QuotientSpace, Subspace, is_zero_vec, rref, unit_vec, zero_vec
from .cpring import (
    CpContext,
    _core_generator,
    _graded_preimage,
    _require_faithful_fock,
)
from .finrank import delta_ideals
from .rsystem import (
    Pairing,
    RSystem,
    StructuredBimodule,
    StructuredRing,
    is_two_sided,
)
from .tensorpow import _system_store, psi_apply
from .toeplitz import ToeplitzElement, component_space, embed

__all__ = [
    "HypothesisViolated",
    "IdealHandle",
    "NotInvariant",
    "NotTwoSided",
    "QuotientSystem",
    "TPair",
    "enumerate_tpairs",
    "extract_tpair_from_handle",
    "graded_ideal_correspondence",
    "hasse_edges",
    "is_psi_invariant",
    "is_two_sided",
    "lattice_dot",
    "lattice_json",
    "quotient_system",
    "tpair_le",
    "validate_tpair",
]


class NotTwoSided(ValueError):
    """The subspace is not a two-sided ideal of R."""


class NotInvariant(ValueError):
    """The ideal is not psi-invariant (or the quotient actions fail to descend)."""


class HypothesisViolated(ValueError):
    """The correspondence needs K contained in the pair's J."""


# ---------------------------------------------------------------------------
# invariant ideals


def is_psi_invariant(system: RSystem, i: Subspace) -> bool:
    """psi(p (x) x.q) in I for all basis p, q and x in I."""
    if not is_two_sided(system, i):
        raise NotTwoSided("psi-invariance is only defined for two-sided ideals")
    return _psi_invariant(system, i)


def _psi_invariant(system: RSystem, i: Subspace) -> bool:
    """`is_psi_invariant` for an I already known to be two-sided.

    psi(p (x) x.q) is linear in x, so I is invariant exactly when, for each
    basis row x of I, the span psi(P (x) x.Q) of the psi(e_a (x) x.e_b) lies
    in I.  That span depends on x alone and is memoized on the system per
    row: the ideals of an enumeration share their rows, the basis
    idempotents, so each is contracted once.
    """
    store = _system_store(system)
    q, dp = system.q, system.p.dim
    for x in i.rows:
        key = ("psi_image", x)
        if key not in store:
            store[key] = Subspace(i.ambient, [psi_apply(system, 1, unit_vec(dp, a), q.act_left(x, unit_vec(q.dim, b)))
                                              for b in range(q.dim) for a in range(dp)])
        if not store[key].le(i):
            return False
    return True


# ---------------------------------------------------------------------------
# quotient systems


@dataclass(eq=False)
class QuotientSystem:
    parent: RSystem
    i: Subspace
    system: RSystem
    # R/I, Q/QI and P/IP: basis element t of each is the class of the parent
    # coordinate free[t], and `project` maps parent coordinates to classes
    quot_r: QuotientSpace
    quot_q: QuotientSpace
    quot_p: QuotientSpace

    def project_subspace(self, space: Subspace) -> Subspace:
        return Subspace(self.system.ring.dim, [self.quot_r.project(b) for b in space.basis()])

    @cached_property
    def delta_pullbacks(self) -> tuple[QuotientSpace, Subspace]:
        """(R/K_I, D_I) for the ideals K_I = pi^-1(ker Delta) and
        D_I = pi^-1(Delta^-1(F_P(Q))) of R, where pi : R -> R/I and Delta is
        that of R/I; computed once per R/I.

        Class t of R/I is that of e_free[t], so the vector of R carrying a
        class's coordinates at the free coordinates lifts it, and the
        preimage of a subspace of R/I is the span of its rows' lifts plus I.
        """
        d, at = self.i.ambient, {f: t for t, f in enumerate(self.quot_r.free)}

        def pull_back(space: Subspace) -> Subspace:
            lifts = [[row[at[c]] if c in at else 0 for c in range(d)] for row in space.rows]
            return Subspace(d, lifts + self.i.basis())

        ker_delta, delta_inv = delta_ideals(self.system)
        return QuotientSpace(pull_back(ker_delta)), pull_back(delta_inv)


def quotient_system(system: RSystem, i: Subspace, *, name: Optional[str] = None) -> QuotientSystem:
    """R/I, Q/QI, P/IP with the induced actions and pairing.

    The parent must be a valid system: `build_graph_system` and
    `build_automorphism_system` give one, and `cli.run` validates every
    system file.  The quotient is then
    valid by theorem, see `_quotient_system`, and is not validated again.
    """
    if not is_two_sided(system, i):
        raise NotTwoSided("quotients need a two-sided ideal")
    if not _psi_invariant(system, i):
        raise NotInvariant("quotients need a psi-invariant ideal")
    return _quotient_system(system, i, name)


def _quotient_system(system: RSystem, i: Subspace, name: Optional[str]) -> QuotientSystem:
    """`quotient_system` for an I already known to be two-sided and psi-invariant.

    Basis element t of each quotient is the class of the kept coordinate
    free[t], so the induced structure is the parent's, read at the kept
    coordinates and projected.

    Valid by theorem, for a valid parent.  I is a two-sided ideal, and the
    loop below checks IQ <= QI and PI <= IP; with QI.R <= QI, R.IP <= IP,
    psi(IP (x) Q) = I psi(P (x) Q) <= I and psi(P (x) QI) <= I, every
    structure map is well defined on the classes.  The projections
    R -> R/I, Q -> Q/QI and P -> P/IP are then surjective and intertwine the
    product, the four actions and the pairing.  Each axiom (associativity,
    the bimodule laws, balance and R-linearity of psi) is an identity between
    composites of structure maps; at lifts of quotient elements both sides
    are the projections of the parent's two sides, which agree.  So
    `validate_axioms` of the quotient would find nothing.
    """
    ring, q, p = system.ring, system.q, system.p
    dq, dp = q.dim, p.dim
    ibasis = i.basis()

    quot_r = QuotientSpace(i)
    quot_q = QuotientSpace(Subspace(dq, [q.act_right(unit_vec(dq, b), x) for x in ibasis for b in range(dq)]))
    quot_p = QuotientSpace(Subspace(dp, [p.act_left(x, unit_vec(dp, a)) for x in ibasis for a in range(dp)]))
    keep_r = quot_r.free

    # the induced R/I actions exist only when IQ <= QI and PI <= IP
    for x in ibasis:
        if not all(is_zero_vec(quot_q.sub.reduce(q.act_left(x, unit_vec(dq, b)))) for b in range(dq)):
            raise NotInvariant("IQ is not contained in QI: left action does not descend")
        if not all(is_zero_vec(quot_p.sub.reduce(p.act_right(unit_vec(dp, a), x))) for a in range(dp)):
            raise NotInvariant("PI is not contained in IP: right action does not descend")

    ring2 = StructuredRing([ring.labels[c] for c in keep_r],
                           [[quot_r.project(ring.mult[a][b]) for b in keep_r] for a in keep_r])

    def induced(quot, actions):
        # the action of a basis element of R/I is that of its lift, read mod QI (IP):
        # column t is the class of the lift's image of e_free[t]
        return [[quot.project_nz(actions[a][c]) for c in quot.free] for a in keep_r]

    q2 = StructuredBimodule([q.labels[c] for c in quot_q.free], induced(quot_q, q.left), induced(quot_q, q.right))
    p2 = StructuredBimodule([p.labels[c] for c in quot_p.free], induced(quot_p, p.left), induced(quot_p, p.right))
    psi2 = Pairing([[quot_r.project(system.psi.table[a][b]) for b in quot_q.free] for a in quot_p.free])

    quotient = RSystem(ring2, p2, q2, psi2, name=name or f"{system.name}/I")
    return QuotientSystem(system, i, quotient, quot_r, quot_q, quot_p)


# ---------------------------------------------------------------------------
# T-pairs


@dataclass(eq=False)
class TPair:
    i: Subspace
    j: Subspace
    flags: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        required = ("i_two_sided", "j_two_sided", "i_psi_invariant", "i_in_j",
                    "quotient_compatible", "quotient_faithful")
        return all(self.flags.get(k, False) for k in required)

    def __repr__(self):
        return f"TPair(dim i={self.i.dim}, dim j={self.j.dim}, ok={self.ok})"


def _tpair_i_part(system: RSystem, i: Subspace) -> Optional[QuotientSystem]:
    """R/I for a two-sided I, when I is also psi-invariant (else None).

    The caller knows that I is two-sided.  Memoized on the system per I, so
    the enumeration and every handle on a pair with this I share one R/I.
    """
    store = _system_store(system)
    key = ("tpair_i", i)
    if key not in store:
        store[key] = _quotient_system(system, i, None) if _psi_invariant(system, i) else None
    return store[key]


def _tpair_j_part(i: Subspace, j: Subspace, i_two_sided: bool, j_two_sided: bool,
                  qs: Optional[QuotientSystem]) -> TPair:
    """The T-pair (I, J) with its flags; J's are those of its image J/I in
    R/I, and are false without R/I.

    The image of a two-sided J under the ring map R -> R/I is two-sided:
    (r + I)(x + I) = rx + I with rx in J, and likewise on the right.  So
    `quotient_two_sided` is computed only for a J that is not.  The other
    two flags are read in R, off the pulled-back ideals `delta_pullbacks`.
    pi(J) lies in Delta^-1(F_P(Q)) exactly when J <= D_I.  pi(J) meets
    ker Delta trivially exactly when its preimage J + I meets K_I in I, that
    is when J + I maps onto a space of dimension dim(J + I) - dim I in R/K_I;
    J's own rows span that image, since I <= K_I.  Over the enumeration
    J contains I, so J + I is J.
    """
    i_in_j = i.le(j)
    flags = {"i_two_sided": i_two_sided, "i_in_j": i_in_j,
             "j_two_sided": j_two_sided, "i_psi_invariant": qs is not None}
    if qs is None:
        flags.update(quotient_two_sided=False, quotient_compatible=False, quotient_faithful=False)
        return TPair(i, j, flags)
    quot_k, d_i = qs.delta_pullbacks
    gap = (j.dim if i_in_j else j.add(i).dim) - i.dim
    flags["quotient_two_sided"] = j_two_sided or is_two_sided(qs.system, qs.project_subspace(j))
    flags["quotient_compatible"] = j.le(d_i)
    flags["quotient_faithful"] = gap == len(rref([quot_k.project(row) for row in j.rows])[0])
    return TPair(i, j, flags)


def validate_tpair(system: RSystem, i: Subspace, j: Subspace) -> TPair:
    i_two_sided = is_two_sided(system, i)
    qs = _tpair_i_part(system, i) if i_two_sided else None
    return _tpair_j_part(i, j, i_two_sided, is_two_sided(system, j), qs)


def tpair_le(a: TPair, b: TPair) -> bool:
    return a.i.le(b.i) and a.j.le(b.j)


# ---------------------------------------------------------------------------
# graded-ideal correspondence


@dataclass(eq=False)
class IdealHandle:
    """Intensional handle on the graded ideal H_(I,J) of the relative CP ring O(K).

    Membership: the walk of `cpring._graded_preimage` with the pair's I and
    J, on the parent's own Fock blocks.  `quotient` is R/I, which the pair's
    flags were read from and whose Fock representation the walk's guard
    checks.  Generator list: iota_R of the i-part plus the covariance
    defects of the j-part (where theta-decomposable over the parent).
    """

    context: CpContext
    tpair: TPair
    quotient: QuotientSystem

    def _preimage(self, xs: Sequence[ToeplitzElement]) -> Subspace:
        """{c : sum_i c_i xs[i] in H}, as a subspace of Q^len(xs)."""
        _require_faithful_fock(self.quotient.system)
        ctx = self.context
        return _graded_preimage(ctx.system, self.tpair.i, self.tpair.j, xs, ctx.cap)

    def contains(self, x: ToeplitzElement) -> bool:
        return not self._preimage([x]).is_zero()

    def generators(self) -> list[ToeplitzElement]:
        system = self.context.system
        gens = [embed(system, "R", list(v)) for v in self.tpair.i.basis()]
        for v in self.tpair.j.basis():
            if self.context.j.ideal.contains(v) or self.tpair.i.contains(v):
                continue
            try:
                gens.append(_core_generator(self.context, list(v)))
            except ValueError:
                pass  # not theta-decomposable over the parent; membership still works
        return gens


def graded_ideal_correspondence(ctx: CpContext, tpair: TPair) -> IdealHandle:
    """The graded ideal of O(K) attached to a T-pair (I, J) with K <= J.

    The pair's flags are computed here, never read off `tpair`.
    """
    if not ctx.j.ideal.le(tpair.j):
        raise HypothesisViolated("the context ideal K must sit inside the pair's J")
    pair = validate_tpair(ctx.system, tpair.i, tpair.j)
    if not pair.ok:
        raise ValueError("not a T-pair: " +
                         ", ".join(k for k, v in pair.flags.items() if not v))
    return IdealHandle(ctx, pair, _tpair_i_part(ctx.system, tpair.i))


def extract_tpair_from_handle(handle: IdealHandle) -> TPair:
    """Recover (I, J) from the handle by exact linear membership.

    I = { r : iota_R(r) in H }; J = { r : iota_R(r) in H + pi(F_P(Q)) }, where
    pi(F_P(Q)) is the grade-(1,1) component.  Both are read by the handle's
    walk on the parent: I is its preimage under r |-> iota_R(r), and J the
    part on iota_R(R) of its preimage under (r, k) |-> iota_R(r) + k, k in
    the grade-(1,1) component.  The grade-(1,1) component of the parent maps
    onto that of R/I, so these are the full preimages of the quotient's
    (0, J/I) and need no lifting.
    """
    system = handle.context.system
    d = system.ring.dim
    units = [embed(system, "R", unit_vec(d, r)) for r in range(d)]
    cs = component_space(system, 1, 1)
    mixed = [ToeplitzElement(system, {(1, 1): unit_vec(cs.dim, c)}) for c in range(cs.dim)]
    i = handle._preimage(units)
    j = Subspace(d, [row[:d] for row in handle._preimage(units + mixed).rows])
    return TPair(i, j)


# ---------------------------------------------------------------------------
# enumeration (idempotent-diagonal coefficient rings)


def _diagonal_idempotents(ring: StructuredRing) -> bool:
    d = ring.dim
    for i in range(d):
        for j in range(d):
            want = unit_vec(d, i) if i == j else zero_vec(d)
            if list(ring.mult[i][j]) != want:
                return False
    return True


def enumerate_tpairs(system: RSystem) -> list[TPair]:
    """All T-pairs, for systems over a diagonal ring of orthogonal idempotents.

    Over such a ring, with e_s e_t = delta_st e_t, the two-sided ideals are
    exactly the spans of subsets of the basis: e_s e_t and e_t e_s are e_t or
    0, so a span of basis elements is a two-sided ideal; and if x = sum c_t e_t
    lies in an ideal, so does each e_t x = c_t e_t, so every ideal is spanned
    by the basis elements it contains.  The search over subsets is therefore
    exhaustive, and every I and J it meets is two-sided without a check.

    Whether J qualifies depends on I only through the quotient system
    R/I, Q/QI, P/IP, psi_I, which `_tpair_i_part` builds once per
    psi-invariant I and shares with every J containing it; the pairs and
    their flags are those `validate_tpair` gives.
    """
    ring = system.ring
    if not _diagonal_idempotents(ring):
        raise NotImplementedError("exhaustive T-pair enumeration needs a diagonal ring")
    d = ring.dim
    spans = [Subspace(d, [unit_vec(d, t) for t in range(d) if mask >> t & 1]) for mask in range(1 << d)]
    out = []
    for imask, i in enumerate(spans):
        qs = _tpair_i_part(system, i)
        if qs is None:
            continue
        for jmask, j in enumerate(spans):
            if jmask & imask == imask:
                pair = _tpair_j_part(i, j, True, True, qs)
                if pair.ok:
                    out.append(pair)
    return out


# ---------------------------------------------------------------------------
# lattice export


def _basis_lists(space: Subspace) -> list[list[str]]:
    return [[str(c) for c in row] for row in space.basis()]


def hasse_edges(le) -> list[list[int]]:
    """Covering pairs [a, b] of the partial order le[a][b], in index order.

    An element c strictly between a and b lies above a, so each a scans only
    the list of the elements above it, for both b and c.
    """
    n = len(le)
    edges = []
    for a, row in enumerate(le):
        above = [c for c in range(n) if c != a and row[c]]
        for b in above:
            if not any(c != b and le[c][b] for c in above):
                edges.append([a, b])
    return edges


def _hasse_dot(name: str, labels, edges) -> str:
    """DOT digraph `name`: node n<idx> labelled labels[idx], one arrow per Hasse edge."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f'  n{idx} [label="{label}"];' for idx, label in enumerate(labels)]
    lines += [f"  n{a} -> n{b};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines)


def lattice_json(system: RSystem, tpairs: Sequence[TPair]) -> dict:
    """Nodes with (i, j) bases and Hasse edges of the componentwise order.

    The order is decided once per pair of distinct ideals among the pairs'
    I's and J's.  Of two distinct subspaces, the smaller can lie in the larger
    only when its dimension is strictly lower, so only those pairs are tested.
    """
    spaces = list(dict.fromkeys(s for t in tpairs for s in (t.i, t.j)))
    at = {s: k for k, s in enumerate(spaces)}
    le = [[a is b or (a.dim < b.dim and a.le(b)) for b in spaces] for a in spaces]
    ends = [(at[t.i], at[t.j]) for t in tpairs]
    edges = hasse_edges([[le[ai][bi] and le[aj][bj] for bi, bj in ends] for ai, aj in ends])
    nodes = [{"i_basis": _basis_lists(t.i), "j_basis": _basis_lists(t.j),
              "i_dim": t.i.dim, "j_dim": t.j.dim} for t in tpairs]
    return {"system": system.name, "nodes": nodes, "hasse_edges": edges}


def lattice_dot(data: dict) -> str:
    """DOT rendering of a `lattice_json` result."""
    labels = [f"i:{node['i_dim']} j:{node['j_dim']}" for node in data["nodes"]]
    return _hasse_dot("tpairs", labels, data["hasse_edges"])
