"""T-pairs, quotient systems, and the graded-ideal correspondence.

A two-sided ideal I of R is psi-invariant when psi(p (x) x q) lands back in I;
that is exactly what makes the quotient data R/I, Q/QI, P/IP, psi_I an
R-system again.  A T-pair (I, J) couples such an I with an ideal J whose image
in R/I is psi_I-compatible and faithful; these index the graded two-sided
ideals of the relative Cuntz-Pimsner rings.  Every question about R/I is
asked in R modulo I: the pair's J flags are `finrank.validate_ideal` with
the floor I, which reads J against the floored Delta ideals of
`finrank.delta_ideals`, and an ideal handle answers membership by the one
membership walk of `cpring` (`_graded_preimage`) on the parent's own Fock
blocks, read modulo Q^(x)k . I, behind a guard read the same way; only
`quotient_system` builds R/I.  On a system with a corner graph
(`rsystem.corner_graph`), descent at a coordinate I is a test on bitmasks,
as are two-sidedness and K_I.  The backward map reads (I, J) off the
combinations of iota_R(R) and the grade-(1,1) component the walk accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from operator import and_
from typing import Sequence

from .exactlin import QuotientSpace, Subspace, _sum_nz
from .cpring import CpContext, _core_generator, _graded_preimage
from .finrank import IDEAL_CONDITIONS, delta_ideals, validate_ideal
from .rsystem import (
    Pairing,
    RSystem,
    StructuredBimodule,
    StructuredRing,
    corner_graph,
    is_two_sided,
    orthogonal_idempotents,
)
from .tensorpow import ideal_image
from .toeplitz import ToeplitzElement, _from_nz, component_space, embed

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
    """psi(p (x) x.q) in I for all basis p, q and x in I; raises NotTwoSided
    unless I is a two-sided ideal (`is_two_sided`, a mask check on a
    coordinate span of a system with a corner graph).  psi(p (x) x.q) is
    linear in x, so the basis rows x of I suffice."""
    if not is_two_sided(system, i):
        raise NotTwoSided("psi-invariance is only defined for two-sided ideals")
    return not any(i.residual_nz(v) for x in i.basis_nz() for v in _psi_images(system, x))


def _psi_images(system: RSystem, x_nz):
    """The nonzeros of the psi(e_a (x) x.e_b) over the bases of P and Q with
    x.e_b nonzero, which span psi(P (x) x.Q), for x given by its nonzeros:
    x.e_b is read off Q's left columns and psi(e_a (x) v) off psi's cells."""
    left, psi = system.q.left, system.psi._table_nz
    for b in range(system.q.dim):
        v = _sum_nz((c, left[i][b]) for i, c in x_nz)  # x.e_b
        if v:
            yield from (_sum_nz((c, row[y]) for y, c in v) for row in psi)


_NO_LEFT_DESCENT = "IQ is not contained in QI: left action does not descend"
_NO_RIGHT_DESCENT = "PI is not contained in IP: right action does not descend"


def _require_descent(system: RSystem, i: Subspace) -> None:
    """Raise NotInvariant unless IQ <= QI and PI <= IP: R/I then acts on Q/QI
    and P/IP, and its questions can be read in R modulo I (`finrank._floored`).
    On a system with a corner graph (`rsystem.corner_graph`) a coordinate
    span is decided on its bitmask; any other I goes to `_check_descent`.

    Proof sketch.  Let I be the span of the e_t, t in M.  Q is the sum of
    its corners e_t Q e_s, so QI = sum_{s in M} Q e_s is the sum of the
    corners with s in M, and e_t Q = sum_s e_t Q e_s lies in it exactly when
    no nonzero Q-corner (t, s) has s outside M; IQ is the sum of the e_t Q,
    t in M.  Likewise IP is the sum of the corners e_s P e_t with s in M,
    and P e_t lies in it exactly when no nonzero P-corner (t, s) has s
    outside M.  The t run in the order of I's basis rows, Q before P at
    each, as in `_check_descent`, so the same message is raised."""
    graph, mask = corner_graph(system), i.coordinate_mask()
    if graph is None or mask is None:
        return _check_descent(system, i)
    for t in _bits(mask):
        if graph.q[t] & ~mask:
            raise NotInvariant(_NO_LEFT_DESCENT)
        if graph.p[t] & ~mask:
            raise NotInvariant(_NO_RIGHT_DESCENT)


def _check_descent(system: RSystem, i: Subspace) -> None:
    """`_require_descent` for any I, by elimination: each x.e_b and e_a.x,
    x a basis row of I, read off the action columns as its nonzeros and
    reduced modulo QI and IP (`ideal_image`)."""
    q, p = system.q, system.p
    qi, ip = ideal_image(system, "Q", 1, i), ideal_image(system, "P", 1, i)
    for x in i.basis_nz():
        if any(qi.residual_nz(_sum_nz((c, q.left[t][b]) for t, c in x)) for b in range(q.dim)):
            raise NotInvariant(_NO_LEFT_DESCENT)
        if any(ip.residual_nz(_sum_nz((c, p.right[t][a]) for t, c in x)) for a in range(p.dim)):
            raise NotInvariant(_NO_RIGHT_DESCENT)


# ---------------------------------------------------------------------------
# quotient systems


@dataclass(eq=False)
class QuotientSystem:
    system: RSystem
    # R/I, Q/QI and P/IP: basis element t of each is the class of the parent
    # coordinate free[t], and `project` maps parent coordinates to classes
    quot_r: QuotientSpace
    quot_q: QuotientSpace
    quot_p: QuotientSpace


def quotient_system(system: RSystem, i: Subspace) -> QuotientSystem:
    """R/I, Q/QI, P/IP with the induced actions and pairing, named `name/I`
    for a system named `name`.

    The parent must be a valid system: `build_graph_system` and
    `build_automorphism_system` give one, and `cli.run` validates every
    system file.  The quotient is then
    valid by theorem, see `_quotient_system`, and is not validated again.
    """
    try:
        invariant = is_psi_invariant(system, i)
    except NotTwoSided:
        raise NotTwoSided("quotients need a two-sided ideal") from None
    if not invariant:
        raise NotInvariant("quotients need a psi-invariant ideal")
    return _quotient_system(system, i)


def _quotient_system(system: RSystem, i: Subspace) -> QuotientSystem:
    """`quotient_system` for an I already known to be two-sided and psi-invariant.

    Basis element t of each quotient is the class of the kept coordinate
    free[t], so the induced structure is the parent's, read at the kept
    coordinates and projected.

    Valid by theorem, for a valid parent.  I is a two-sided ideal, and
    `_require_descent` checks IQ <= QI and PI <= IP; with QI.R <= QI, R.IP <= IP,
    psi(IP (x) Q) = I psi(P (x) Q) <= I and psi(P (x) QI) <= I, every
    structure map is well defined on the classes.  The projections
    R -> R/I, Q -> Q/QI and P -> P/IP are then surjective and intertwine the
    product, the four actions and the pairing.  Each axiom (associativity,
    the bimodule laws, balance and R-linearity of psi) is an identity between
    composites of structure maps; at lifts of quotient elements both sides
    are the projections of the parent's two sides, which agree.  So
    `validate_axioms` of the quotient would find nothing.
    """
    _require_descent(system, i)
    ring, q, p = system.ring, system.q, system.p
    quot_r = QuotientSpace(i)
    quot_q = QuotientSpace(ideal_image(system, "Q", 1, i))
    quot_p = QuotientSpace(ideal_image(system, "P", 1, i))
    keep_r = quot_r.free

    ring2 = StructuredRing.from_cells([ring.labels[c] for c in keep_r],
                                      [[quot_r.project_nz(ring.left[a][b]) for b in keep_r] for a in keep_r])

    def induced(quot, actions):
        # the action of a basis element of R/I is that of its lift, read mod QI (IP):
        # column t is the class of the lift's image of e_free[t]
        return [[quot.project_nz(actions[a][c]) for c in quot.free] for a in keep_r]

    q2 = StructuredBimodule([q.labels[c] for c in quot_q.free], induced(quot_q, q.left), induced(quot_q, q.right))
    p2 = StructuredBimodule([p.labels[c] for c in quot_p.free], induced(quot_p, p.left), induced(quot_p, p.right))
    psi = system.psi._table_nz
    psi2 = Pairing.from_cells([[quot_r.project_nz(psi[a][b]) for b in quot_q.free] for a in quot_p.free], quot_r.dim)

    quotient = RSystem(ring2, p2, q2, psi2, name=f"{system.name}/I")
    return QuotientSystem(quotient, quot_r, quot_q, quot_p)


# ---------------------------------------------------------------------------
# T-pairs


# the flags of a candidate pair, in the order they are reported; a T-pair has
# them all (quotient_two_sided follows from j_two_sided and i_in_j), and the
# last three are `finrank.IDEAL_CONDITIONS` of J/I
TPAIR_FLAGS = ("i_two_sided", "i_in_j", "j_two_sided", "i_psi_invariant",
               "quotient_two_sided", "quotient_compatible", "quotient_faithful")


@dataclass(eq=False)
class TPair:
    i: Subspace
    j: Subspace
    flags: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.flags.get(k, False) for k in TPAIR_FLAGS)

    def __repr__(self):
        return f"TPair(dim i={self.i.dim}, dim j={self.j.dim}, ok={self.ok})"


def validate_tpair(system: RSystem, i: Subspace, j: Subspace) -> TPair:
    """The candidate pair (I, J) with its flags.  J's three are those of
    J/I in R/I, decided by `finrank.validate_ideal` with the floor I, and
    false unless I is two-sided and psi-invariant; raises NotInvariant
    when R/I does not act on Q/QI or P/IP.  When J contains I, J + I is J,
    and that call's two-sidedness is J's own."""
    try:
        i_two_sided, invariant = True, is_psi_invariant(system, i)
    except NotTwoSided:
        i_two_sided = invariant = False
    i_in_j = i.le(j)
    if invariant:
        _require_descent(system, i)
    jq = validate_ideal(system, j, i) if invariant else None
    j_two_sided = jq.is_two_sided if jq and i_in_j else is_two_sided(system, j)
    quotient = (getattr(jq, c) if jq else False for c in IDEAL_CONDITIONS)
    return TPair(i, j, dict(zip(TPAIR_FLAGS, (i_two_sided, i_in_j, j_two_sided, invariant, *quotient))))


# ---------------------------------------------------------------------------
# graded-ideal correspondence


@dataclass(eq=False)
class IdealHandle:
    """Intensional handle on the graded ideal H_(I,J) of the relative CP ring O(K).

    Membership: the walk of `cpring._graded_preimage` with the pair's I and
    J, on the parent's own Fock blocks, behind the walk's guard, which reads
    the faithfulness of R/I's Fock representation in R modulo I.  Generator
    list: iota_R of the i-part plus the covariance defects of the j-part
    (where theta-decomposable over the parent)."""

    context: CpContext
    tpair: TPair

    def _rows(self, xs: Sequence[ToeplitzElement]) -> list:
        """A basis of {c : sum_i c_i xs[i] in H} as rows, each as its nonzero
        (index, value) pairs, not reduced."""
        ctx = self.context
        return _graded_preimage(ctx.system, self.tpair.i, self.tpair.j, xs, ctx.cap)

    def _preimage(self, xs: Sequence[ToeplitzElement]) -> Subspace:
        """{c : sum_i c_i xs[i] in H}, as a subspace of Q^len(xs)."""
        return Subspace.of_nonzeros(len(xs), self._rows(xs))

    def contains(self, x: ToeplitzElement) -> bool:
        return bool(self._rows([x]))

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
    return IdealHandle(ctx, pair)


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
    units = [_from_nz(system, {(0, 0): ((r, 1),)}) for r in range(d)]
    mixed = [_from_nz(system, {(1, 1): ((c, 1),)}) for c in range(component_space(system, 1, 1).dim)]
    i = handle._preimage(units)
    j = Subspace.of_nonzeros(d, [tuple((k, c) for k, c in row if k < d) for row in handle._rows(units + mixed)])
    return TPair(i, j)


# ---------------------------------------------------------------------------
# enumeration (idempotent-diagonal coefficient rings)


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _coordinate_mask(space: Subspace) -> int:
    """The basis indices spanning a coordinate span, as a bitmask."""
    mask = space.coordinate_mask()
    if mask is None:
        raise ValueError("not a coordinate span")
    return mask


def enumerate_tpairs(system: RSystem) -> list[TPair]:
    """All T-pairs, for systems over a diagonal ring of orthogonal idempotents
    e_1..e_d, as a closure system on bitmasks over the basis.

    Ideals.  With e_s e_t = delta_st e_t, a span of basis elements is a
    two-sided ideal, and an ideal holding x = sum c_t e_t holds each
    e_t x = c_t e_t.  So the ideals are the coordinate spans, one per mask.

    psi-closure.  psi(P (x) x.Q) is linear in x, so I is psi-invariant
    exactly when supp psi(P (x) e_t Q) <= I for each t in I: I is closed
    under the successors `succ` of one digraph.  Scanning masks upward,
    reach[m] = reach[m without its lowest bit t] | succ[t], and m is closed
    exactly when reach[m] <= m.

    Descent.  Each closed I goes to `_require_descent`, which raises
    NotInvariant unless IQ <= QI and PI <= IP; the least such I raises.
    On a system with a corner graph (`rsystem.corner_graph`) it reads the
    bitmasks of the corners, and so does `delta_ideals` for K_I; under (FS)
    D_I is R, so the enumeration then does no elimination.

    J's, an interval.  For a closed I that descends, J qualifies exactly
    when J <= D_I and J meets K_I in I, for (K_I, D_I) =
    `delta_ideals(system, I)` (see `finrank.validate_ideal` with the floor
    I; every J here is two-sided and contains I).  Both are ideals, so
    coordinate spans, and I <= K_I <= D_I: for r in I, Delta(r) maps Q into
    IQ <= QI.  So the J's are I | S for the S <= D_I \\ K_I, a Boolean
    interval.

    The pairs, their flags and their order (by I's mask, then J's) are those
    of `validate_tpair` over all pairs of coordinate spans.
    """
    d = system.ring.dim
    if not orthogonal_idempotents(system.ring):
        raise NotImplementedError("exhaustive T-pair enumeration needs a diagonal ring")
    succ = [0] * d
    for t in range(d):
        for v in _psi_images(system, ((t, 1),)):
            succ[t] |= sum(1 << s for s, _ in v)
    span = cache(lambda mask: Subspace.coordinate_span(d, _bits(mask)))
    reach, out = [0], []  # reach[m]: the union of succ over m
    for m in range(1, 1 << d):
        reach.append(reach[m & (m - 1)] | succ[(m & -m).bit_length() - 1])
    for i in (m for m in range(1 << d) if not reach[m] & ~m):
        _require_descent(system, span(i))
        k_i, d_i = (_coordinate_mask(s) for s in delta_ideals(system, span(i)))
        free, subsets = d_i & ~k_i, [0]
        while subsets[-1] != free:  # the subsets of free, ascending
            subsets.append((subsets[-1] - free) & free)
        out += [TPair(span(i), span(i | s), dict.fromkeys(TPAIR_FLAGS, True)) for s in subsets]
    return out


# ---------------------------------------------------------------------------
# lattice export


def _basis_lists(space: Subspace) -> list[list[str]]:
    """The RREF basis rows of `space`, each entry printed by `str`."""
    return [[str(c) for c in row] for row in space.basis()]


def hasse_edges(above: Sequence[int]) -> list[list[int]]:
    """Covering pairs [a, b], in index order, of the partial order whose bitmask
    row above[a] holds the b > a: the b of above[a] in no row above[c] of it."""
    edges = []
    for a, row in enumerate(above):
        for c in _bits(row):
            row &= ~above[c]
        edges += [[a, b] for b in _bits(row)]
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

    Each pair's I and J are coordinate spans (else ValueError), read as one
    mask i | j << d, so (I, J) <= (I', J') is i & ~i' == 0 and j & ~j' == 0:
    the nodes above a are those holding every coordinate of a's mask.
    """
    d, n = system.ring.dim, len(tpairs)
    masks = [(_coordinate_mask(t.i), _coordinate_mask(t.j)) for t in tpairs]
    ends = [i | j << d for i, j in masks]
    holding = [sum(1 << k for k, m in enumerate(ends) if m >> c & 1) for c in range(2 * d)]
    others = (1 << n) - 1  # a node's row starts from every other node
    above = [reduce(and_, (holding[c] for c in _bits(m)), others ^ 1 << k) for k, m in enumerate(ends)]
    lists: dict = {}  # each distinct I or J basis, keyed by its mask, formatted once

    def basis(space, mask):
        if mask not in lists:
            lists[mask] = _basis_lists(space)
        return lists[mask]

    nodes = [{"i_basis": basis(t.i, i), "j_basis": basis(t.j, j), "i_dim": t.i.dim, "j_dim": t.j.dim}
             for t, (i, j) in zip(tpairs, masks)]
    return {"system": system.name, "nodes": nodes, "hasse_edges": hasse_edges(above)}


def lattice_dot(data: dict) -> str:
    """DOT rendering of a `lattice_json` result."""
    labels = [f"i:{node['i_dim']} j:{node['j_dim']}" for node in data["nodes"]]
    return _hasse_dot("tpairs", labels, data["hasse_edges"])
