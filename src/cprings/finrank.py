"""Rank-one operator calculus on the tensor legs, built once per system.

Operators act on Q^(x)n as matrices in canonical level coordinates,
flattened column by column, as the membership walk flattens the columns of a
Fock block (`cpring._flatten`).
The rank-one generators and the left action are

    theta_{q,p}(x) = q . psi_n(p (x) x)      (on P^(x)n: y |-> psi_n(y (x) q) . p)
    Delta(r)(x)    = r . x

`theta_table(system, side, level)` holds the flattened generators of one side
and level, each row kept as its nonzero (index, value) pairs and read
straight off the nonzero psi_n cells and the columns of the level's actions;
it is built once per system and everything rank-one reads it.  F_P(Q) is
the span of its level-1 Q rows; condition (FS) asks the identity of Q to
lie in F_P(Q) and the identity of P in F_Q(P), two exact solves over the
table whose solutions double as certificates (`check_fs`);
`theta_decomposition` solves Delta(x) = sum c_ab theta_{e_a,e_b} over it.
Each solve is `exactlin.solve` with the table's rows as the columns of the
map, so it eliminates over only the coordinates some row or the target
touches, and its certificate is that of the dense system.  For
finite-dimensional modules the paper-style quantification over finite
subsets reduces to the basis.

`check_fs`, `left_annihilator` ({r : rR = 0}) and `delta_ideals` (ker Delta
and Delta^(-1)(F_P(Q))) are computed once per system, like the theta
tables: each is an entry of the system's memo (`rsystem._memo`), built on a
miss by a module-level function.  Given a floor ideal I, each answers for
R/I instead, read in R with operator columns taken modulo M.I
(`_floored`, by `Subspace.residual_nz` on each column's nonzeros, as in
the membership walk), and the theta table read so is stored once per
floor (`_floored_thetas`); only `cpr quotient` builds R/I.  Every
elimination here, those of `delta_ideals` and the annihilators included,
hands `exactlin` a map as its columns' nonzeros; no row is dense.
`validate_ideal` decides J's conditions against `delta_ideals`, and
`canonical_ideals` adds the two-sided annihilator of ker Delta (the kernel
of x -> k x and x -> x k over a basis, read off the ring's nonzero
products) and j_max, the intersection, the uniquely-maximal candidate.

Delta(r) theta_{q,p} = theta_{r.q,p}, so F_P(Q) is a left ideal for Delta(R),
as the compacts are one of L(X) in Katsura's J_X.  Once (FS) puts id_Q in
F_P(Q), Delta^(-1)(F_P(Q)) is all of R, at every floor I, and j_max is
(ker Delta)^perp: `delta_ideals` eliminates only for systems without (FS).
On a system with a corner graph (`rsystem.corner_graph`), ker Delta at a
coordinate floor and the annihilator of a coordinate span are read off the
corners' bitmasks, with no elimination at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import (
    ONE,
    ZERO,
    QuotientSpace,
    Subspace,
    _sum_nz,
    kernel,
    preimage,
    solve,
)
from .rsystem import RSystem, _memo, corner_graph, is_two_sided
from .tensorpow import ideal_image, psi_n, tensor_space


class FsViolation(RuntimeError):
    """An operation that needs condition (FS) was run on a system without it."""


def _flatten_columns(cols) -> tuple:
    """The nonzero (index, value) pairs of the d x d map with columns'
    nonzeros `cols`, flattened column by column."""
    d = len(cols)
    return tuple((c * d + r, v) for c, col in enumerate(cols) for r, v in col)


def _build_theta_table(system: RSystem, side: str, level: int) -> tuple:
    """Flattened rank-one generators on side^(x)level (see `theta_table`),
    each read off the nonzero psi_n cells it pairs with."""
    psi = psi_n(system, level)
    own = tensor_space(system, side, level)
    other = tensor_space(system, "P" if side == "Q" else "Q", level)
    d = own.dim
    # theta_{e_g,e_h} sends e_c to e_g . psi_n(e_h (x) e_c) on Q, and
    # theta'_{e_g,e_h} sends e_c to psi_n(e_c (x) e_h) . e_g on P;
    # cells[h] holds the nonzero cells (c, psi_n pairing of e_h and e_c)
    if side == "Q":
        acts, cells = own.right, [[(c, cell) for c, cell in enumerate(row) if cell] for row in psi]
    else:
        acts = own.left
        cells = [[(c, row[h]) for c, row in enumerate(psi) if row[h]] for h in range(other.dim)]
    rows = []
    for g in range(d):
        for h in range(other.dim):
            m: dict = {}
            for c, cell in cells[h]:
                for i, s in cell:
                    for r, v in acts[i][g]:
                        m[c * d + r] = m.get(c * d + r, ZERO) + s * v
            rows.append(tuple(sorted((k, v) for k, v in m.items() if v)))
    return tuple(rows)


def theta_table(system: RSystem, side: str, level: int) -> tuple:
    """The flattened rank-one generators of one side and level, built once per system.

    Side 'Q': row b * dim P^n + a is theta_{e_b,e_a} on Q^(x)n; side 'P':
    row a * dim Q^n + b is y |-> psi_n(y (x) e_b) . e_a on P^(x)n.  Each row is
    a dim x dim matrix flattened column by column, kept as its nonzero
    (index, value) pairs.
    """
    if side not in ("Q", "P"):
        raise ValueError("side must be 'Q' or 'P'")
    return _memo(system, ("theta", side, level), _build_theta_table, system, side, level)


def _floor_key(i: Optional[Subspace]) -> Optional[Subspace]:
    """The memo key of a floor ideal: None for I = 0."""
    return None if i is None or i.is_zero() else i


def _floored(system: RSystem, side: str, level: int, i: Optional[Subspace], maps) -> list:
    """The flattened maps on M = side^(x)level, each given and returned as
    its nonzero (index, value) pairs, each column reduced modulo MI =
    Q^(x)n . I or I . P^(x)n (`ideal_image`) by `Subspace.residual_nz` on
    its nonzeros; no map is ever dense.

    For a two-sided, psi-invariant I with IQ <= QI and PI <= IP, M/MI is the
    leg of R/I.  The parent's theta's and Delta(r) map MI into MI and induce
    those of R/I, and two such maps induce the same operator on M/MI exactly
    when their columns agree modulo MI.  So A lies in F of R/I exactly when
    its residual lies in the span of the theta residuals."""
    if _floor_key(i) is None:
        return list(maps)
    image = ideal_image(system, side, level, i)
    n = image.ambient  # entry c * n + r of a flattened map is row r of column c
    out = []
    for m in maps:
        cols: dict = {}
        for k, v in m:
            cols.setdefault(k // n, []).append((k % n, v))
        out.append(tuple((c * n + r, y) for c in sorted(cols) for r, y in image.residual_nz(cols[c])))
    return out


def _floored_thetas(system: RSystem, side: str, level: int, i: Optional[Subspace]) -> list:
    """The theta table of one side and level `_floored` modulo MI, once per
    system, side, level and floor: `check_fs` and `delta_ideals` share it."""
    key = ("theta_floored", side, level, _floor_key(i))
    return _memo(system, key, _build_floored_thetas, system, side, level, i)


def _build_floored_thetas(system: RSystem, side: str, level: int, i: Optional[Subspace]) -> list:
    return _floored(system, side, level, i, theta_table(system, side, level))


def theta_decomposition(system: RSystem, x: Sequence[Fraction]):
    """Coefficients c_ab with Delta(x) = sum c_ab theta_{e_a,e_b}, or None.

    c_ab sits at a * dim P + b, the row of theta_{e_a,e_b} in the level-1 table.
    """
    return solve(theta_table(system, "Q", 1), _flatten_columns(system.q.left_map(list(x))))


@dataclass
class FsReport:
    ok: bool
    q_ok: bool
    p_ok: bool
    q_certificate: Optional[list] = None  # [(q_index, p_index, coeff)] with sum theta = id_Q
    p_certificate: Optional[list] = None  # [(p_index, q_index, coeff)] with sum theta' = id_P
    level: int = 1


def _identity_in_span(system: RSystem, level: int, side: str, i: Optional[Subspace]):
    """Certificate triples of identity = sum c_{x,y} theta modulo MI, or None:
    the identity's residual (`_floored`) solved over `_floored_thetas`."""
    d = tensor_space(system, side, level).dim
    identity = tuple((c * d + c, ONE) for c in range(d))
    [target] = _floored(system, side, level, i, [identity])
    sol = solve(_floored_thetas(system, side, level, i), target)
    inner = tensor_space(system, "P" if side == "Q" else "Q", level).dim
    return None if sol is None else [(*divmod(k, inner), c) for k, c in enumerate(sol) if c != 0]


def _fs_half(system: RSystem, side: str, level: int = 1, i: Optional[Subspace] = None):
    """`_identity_in_span` of one side, once per system, side, level and I."""
    return _memo(system, ("fs_half", side, level, _floor_key(i)), _identity_in_span, system, level, side, i)


def check_fs(system: RSystem, i: Optional[Subspace] = None, level: int = 1) -> FsReport:
    """Condition (FS) of R/I (of R for I = 0) at one level, decided once
    per system and I: the residual of id_Q modulo QI in the span of the
    theta residuals, and likewise for id_P modulo IP (`_floored`)."""
    return _memo(system, ("fs", level, _floor_key(i)), _build_fs_report, system, i, level)


def _build_fs_report(system: RSystem, i: Optional[Subspace], level: int) -> FsReport:
    q_cert, p_cert = (_fs_half(system, side, level, i) for side in ("Q", "P"))
    return FsReport(ok=q_cert is not None and p_cert is not None, q_ok=q_cert is not None,
                    p_ok=p_cert is not None, q_certificate=q_cert, p_certificate=p_cert, level=level)


def left_annihilator(system: RSystem, i: Optional[Subspace] = None) -> Subspace:
    """{r : r R <= I}, the left annihilator of R for I = 0, computed once per
    system and I: some nonzero class kills R/I exactly when it is not <= I.

    It is the kernel of r |-> (r e_c modulo I) over the basis elements
    e_c, whose columns are read off the nonzeros of right multiplication
    (`ring.right[c][a]` is e_a e_c)."""
    floor = _floor_key(i)
    return _memo(system, ("left_annihilator", floor), _build_left_annihilator, system, floor)


def _build_left_annihilator(system: RSystem, floor: Optional[Subspace]) -> Subspace:
    d = system.ring.dim
    classes = tuple if floor is None else QuotientSpace(floor).project_nz  # nonzeros modulo I
    # column a holds the classes of e_a e_c, coordinate t of the one for e_c at c * d + t
    right = system.ring.right
    cols = [tuple((c * d + t, v) for c in range(d) for t, v in classes(right[c][a])) for a in range(d)]
    return Subspace.of_nonzeros(d, kernel(cols))


def _delta_columns(system: RSystem, i: Optional[Subspace]) -> list:
    """Delta(e_r) for each basis element e_r, flattened and read modulo QI
    (`_floored`): the columns of r |-> Delta(r), as their nonzeros."""
    return _floored(system, "Q", 1, i, [_flatten_columns(cols) for cols in system.q.left])


def annihilator(system: RSystem, ideal: Subspace) -> Subspace:
    """Two-sided annihilator {x : x y = y x = 0 for all y in the subspace}.

    On a system with a corner graph (`rsystem.corner_graph`), the
    annihilator of the span of the e_t, t in a set M, is the span of the
    other e_t: x = sum c_s e_s has x e_t = e_t x = c_t e_t, which vanishes
    for every t in M exactly when c_t = 0 there.  Any other subspace goes to
    `_annihilator_by_kernel`."""
    mask = ideal.coordinate_mask()
    if mask is not None and corner_graph(system) is not None:
        d = system.ring.dim
        return Subspace.coordinate_span(d, [t for t in range(d) if not mask >> t & 1])
    return _annihilator_by_kernel(system, ideal)


def _annihilator_by_kernel(system: RSystem, ideal: Subspace) -> Subspace:
    """`annihilator` for any subspace: the kernel of x -> k x and x -> x k
    over the basis vectors k = sum c e_i; column s holds k e_s and e_s k,
    read off the nonzeros of the products (`ring.left[i][s]` is e_i e_s)."""
    d, left, ks = system.ring.dim, system.ring.left, ideal.basis_nz()
    cols = []
    for s in range(d):
        col = []
        for g, k in enumerate(ks):
            col += [(2 * g * d + t, v) for t, v in _sum_nz((c, left[i][s]) for i, c in k)]
            col += [((2 * g + 1) * d + t, v) for t, v in _sum_nz((c, left[s][i]) for i, c in k)]
        cols.append(tuple(col))
    return Subspace.of_nonzeros(d, kernel(cols))


def delta_ideals(system: RSystem, i: Optional[Subspace] = None) -> tuple[Subspace, Subspace]:
    """(ker Delta, Delta^(-1)(F_P(Q))) of R/I pulled back to R (of R for
    I = 0), computed once per system and I: by `_floored`, K_I = {r : r.Q <=
    QI}, the kernel of Delta's residuals, and D_I is R when R has (FS) on Q,
    else the preimage of the span of the theta residuals.  On a system with
    a corner graph (`rsystem.corner_graph`) and a coordinate floor, K_I is
    read off the Q-corners, with no elimination.

    Proof sketch.  For r in R, Delta(r) theta_{q,p} = theta_{r.q,p}, since
    r.(q.psi(p (x) x)) = (r.q).psi(p (x) x) is Q's bimodule law.  So F_P(Q)
    is a left ideal for Delta(R): with id_Q in F_P(Q), Delta(r) = Delta(r)
    id_Q lies in it for every r, and D_0 = R.  The column residual modulo QI
    is linear, so a combination of theta's leaves a combination of theta
    residuals: D_I contains D_0 = R at every floor I.

    K_I on the corners.  Let I be the span of the e_t, t in M.  Q is the sum
    of its corners e_t Q e_s, and QI = sum_{s in M} Q e_s is the sum of the
    corners with s in M; so e_t Q <= QI exactly when every nonzero Q-corner
    (t, s) has s in M.  QI is a left submodule, so r = sum c_t e_t has
    r.Q <= QI exactly when each e_t r.Q = c_t e_t Q does: K_I is the span of
    the e_t whose nonzero Q-corners all end in M."""
    return _memo(system, ("delta_ideals", _floor_key(i)), _build_delta_ideals, system, i)


def _build_delta_ideals(system: RSystem, i: Optional[Subspace]) -> tuple[Subspace, Subspace]:
    d, graph, delta = system.ring.dim, corner_graph(system), None
    mask = 0 if i is None else i.coordinate_mask()
    if graph is not None and mask is not None:
        k_i = Subspace.coordinate_span(d, [t for t in range(d) if not graph.q[t] & ~mask])
    else:
        delta = _delta_columns(system, i)
        k_i = Subspace.of_nonzeros(d, kernel(delta))
    if _fs_half(system, "Q") is not None:
        return k_i, Subspace.full(d)
    # without (FS) Q is nonzero, and only the elimination decides D_I
    if delta is None:
        delta = _delta_columns(system, i)
    thetas = Subspace.of_nonzeros(system.q.dim * system.q.dim, _floored_thetas(system, "Q", 1, i))
    return k_i, preimage(delta, thetas)


# J's three conditions, as CompatibleIdeal's fields; the messages name them
IDEAL_CONDITIONS = ("is_two_sided", "is_psi_compatible", "is_faithful")


@dataclass(eq=False)
class CompatibleIdeal:
    system: RSystem
    ideal: Subspace
    is_two_sided: bool
    is_psi_compatible: bool
    is_faithful: bool

    def failed(self) -> list[str]:
        """The conditions J fails, in the order of IDEAL_CONDITIONS, named as
        the messages name them: 'two-sided', 'psi-compatible', 'faithful'."""
        return [c[3:].replace("_", "-") for c in IDEAL_CONDITIONS if not getattr(self, c)]

    @property
    def ok(self) -> bool:
        return not self.failed()

    def __repr__(self):  # pragma: no cover - debugging aid
        flags = " ".join(("+" if getattr(self, c) else "-") + c[3:] for c in IDEAL_CONDITIONS)
        return f"CompatibleIdeal(dim={self.ideal.dim}, {flags})"


def validate_ideal(system: RSystem, subspace: Subspace, i: Optional[Subspace] = None) -> CompatibleIdeal:
    """Decide J's three conditions, once per system, J and I: two-sided,
    psi-compatible (J <= Delta^-1(F_P(Q))) and faithful (J meets ker Delta
    in 0).  With a floor I they are asked of J/I in R/I and read in R; I
    must then be a two-sided, psi-invariant ideal under which R/I acts on
    Q/QI and P/IP (`ideals._check_descent`), as for `delta_ideals`.

    Proof sketch.  Let (K_I, D_I) = `delta_ideals(system, I)`, the
    preimages in R of ker Delta and Delta^-1(F_P(Q)) of R/I; for I = 0 they
    are those of R.  J/I is the image of J + I, so it is two-sided exactly
    when J + I is, and lies in D_I / I exactly when J does (I <= D_I).  It
    meets K_I / I in 0 exactly when (J + I) meet K_I = I, i.e. when J + I
    maps onto dim(J + I) - dim I dimensions of R/K_I; since I <= K_I, J
    maps onto as many.  When J contains I, J + I is J."""
    d = system.ring.dim
    if subspace.ambient != d:
        raise ValueError(f"ideal lives in dimension {subspace.ambient}, ring has {d}")
    return _memo(system, ("ideal", subspace, _floor_key(i)), _build_compatible_ideal, system, subspace, i)


def _build_compatible_ideal(system: RSystem, subspace: Subspace, i: Optional[Subspace]) -> CompatibleIdeal:
    k_i, d_i = delta_ideals(system, i)
    j_i = subspace if i is None or i.le(subspace) else subspace.add(i)
    return CompatibleIdeal(system, subspace, is_two_sided(system, j_i), subspace.le(d_i),
                           subspace.add(k_i).dim - k_i.dim == j_i.dim - (i.dim if i else 0))


def canonical_ideals(system: RSystem) -> dict:
    """ker Delta, Delta^(-1)(F_P(Q)), (ker Delta)^perp and their intersection.

    j_max = Delta^(-1)(F_P(Q)) ∩ (ker Delta)^perp is the uniquely-maximal
    faithful candidate; `hypothesis_ok`, `validate_ideal`'s faithfulness of
    j_max, is the hypothesis under which maximality is a theorem.  Needs
    (FS); raises FsViolation without it.  Under (FS), Delta(r) = Delta(r)
    id_Q lies in F_P(Q), a left ideal for Delta(R) (see `delta_ideals`), so
    Delta^(-1)(F_P(Q)) = R and j_max = (ker Delta)^perp, with no elimination.
    """
    if not check_fs(system).ok:
        raise FsViolation("condition (FS) fails; rank-one calculus would be unreliable")
    ker_delta, delta_inv_f = delta_ideals(system)
    ker_perp = annihilator(system, ker_delta)
    j_max = delta_inv_f.intersect(ker_perp)
    return {
        "ker_delta": ker_delta,
        "delta_inv_F": delta_inv_f,
        "ker_perp": ker_perp,
        "j_max": j_max,
        "hypothesis_ok": validate_ideal(system, j_max).is_faithful,
    }
