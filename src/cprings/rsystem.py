"""Finitely presented R-systems over exact rationals.

An R-system is a triple (P, Q, psi): two bimodules over a ring R and a
bimodule map psi : P (x)_R Q -> R.  Everything here is finite-dimensional
over Q and presented by structure constants:

- `StructuredRing`: basis labels + the products e_i e_j
- `StructuredBimodule`: basis labels + the left and right actions of each
  ring basis element
- `Pairing`: the values psi(p_a (x) q_b) in ring coordinates

Every structure is stored once, as the nonzeros of its columns: each cell
is the tuple of nonzero (index, value) pairs of one vector.  An R-action
(`_Actions`) keeps `left[i][a]`, the cell of e_i . m_a, and `right[i][a]`,
that of m_a . e_i, and that includes the ring itself: R is the R-bimodule
whose columns are the cells of its products.  The pairing keeps the cell of
each psi(p_a (x) q_b).  Each structure table in nonzero form -- these
cells and the iterated pairings of `tensorpow` -- is evaluated on dense
operands by the one kernel `_bilinear`, and the ring's product on operands
given by their nonzeros by `StructuredRing.multiply_nz`.  Each structure
has one checking constructor from cells
(`StructuredBimodule(labels, left, right)`, `StructuredRing.from_cells`,
`Pairing.from_cells`), which checks every index and coerces every value in
one pass (`_checked_cells`); the builders and the file loader write cells
straight into it.  `StructuredRing(labels, mult)` and `Pairing(table)` take
dense tables, turn them into cells and delegate; `ring.mult` and
`psi.table` read the dense tables back, as read-only views built the first
time they are read, which no verdict does.

`validate_axioms` checks every defining identity on basis elements (which
suffices by linearity) on their nonzero paths: each side is summed over
paths through nonzero structure constants into one difference table per
family of identities, and each failure is reported individually.  The two
builders construct the standard examples: path/graph systems and
automorphism (skew) systems.

Over a ring whose basis is orthogonal idempotents, with their sum acting as
the identity on both legs, `corner_graph` records, once per system, which
corners e_t Q e_s and e_s P e_t are nonzero; two-sidedness here, and
descent, ker Delta and annihilators in `finrank` and `ideals`, are read off
it for coordinate spans.

Each system carries one memo, freed with it.  Every construction built once
per system goes through `_memo(system, key, build, *args)`, which returns
the entry `key` and on a miss sets it to build(*args), or through `_chain`,
for the last entry of a chain whose entries are each built from the one
before (tensor levels, word prefixes, the letter pairs of a contraction,
powers of an automorphism).  No other module touches the memo itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    ONE,
    ZERO,
    Subspace,
    _dense,
    _nonzeros,
    _sum_nz,
    frac,
    solve,
    vec,
)


def _bilinear(n: int, table_nz, a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """sum of a_i b_j table[i][j] in Q^n, given each table cell's nonzero (index, value) pairs."""
    out = [ZERO] * n
    nz_b = _nonzeros(b)
    for i, ai in _nonzeros(a):
        row = table_nz[i]
        for j, bj in nz_b:
            c = ai * bj
            for k, y in row[j]:
                out[k] += c * y
    return out


def _checked_cells(maps, width, d: int) -> tuple:
    """`maps` as tuples of cells, each a tuple of (index, value) pairs with
    each value that is not an int coerced by `frac`, checked in the same
    pass: each map has `width` cells (any number when width is None) and
    each index is an int in range(d)."""
    out = []
    for cells in maps:
        row = []
        for cell in cells:
            if not cell:  # most cells of a graph system
                row.append(())
                continue
            pairs = []
            for x, c in cell:
                if type(x) is not int or not 0 <= x < d:
                    raise ValueError(f"cell index {x!r} is not in range({d})")
                pairs.append((x, c if type(c) is int else frac(c)))
            row.append(tuple(pairs))
        if width is not None and len(row) != width:
            raise ValueError(f"{len(row)} cells where {width} belong")
        out.append(tuple(row))
    return tuple(out)


def _nz_cells(table) -> list:
    """The nonzero (index, value) pairs of each vector table[i][j], each
    entry coerced by `frac`."""
    return [[_nonzeros(vec(cell)) for cell in row] for row in table]


def _dense_table(cells, n: int) -> tuple:
    """table[i][j]: the vector in Q^n whose nonzero pairs are cells[i][j]."""
    return tuple(tuple(tuple(_dense(n, cell)) for cell in row) for row in cells)


def _distinct(labels: Sequence[str], what: str) -> tuple:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        dup = next(lab for k, lab in enumerate(labels) if lab in labels[:k])
        raise ValueError(f"duplicate {what} basis label {dup!r}")
    return labels


class _Actions:
    """The R-actions of a space, stored as the nonzeros of their columns:
    left[i][a] holds the nonzero (index, value) pairs of e_i . m_a and
    right[i][a] those of m_a . e_i, for ring basis elements e_i and basis
    vectors m_a of the space.  Both actions are `_bilinear` over them."""

    __slots__ = ()

    def act_left(self, r: Sequence[Fraction], m: Sequence[Fraction]) -> list[Fraction]:
        return _bilinear(self.dim, self.left, r, m)

    def act_right(self, m: Sequence[Fraction], r: Sequence[Fraction]) -> list[Fraction]:
        return _bilinear(self.dim, self.right, r, m)

    def left_map(self, r: Sequence[Fraction]) -> list[tuple]:
        """The columns of m -> r . m: column a holds the nonzeros of r . m_a."""
        return self._map(self.left, _nonzeros(r))

    def right_map(self, r: Sequence[Fraction]) -> list[tuple]:
        """The columns of m -> m . r: column a holds the nonzeros of m_a . r."""
        return self._map(self.right, _nonzeros(r))

    def _map(self, cols, nz_r) -> list[tuple]:
        """The columns of one action by r, given by its nonzeros."""
        return [_sum_nz((ri, cols[i][a]) for i, ri in nz_r) for a in range(self.dim)]


class _Labelled(_Actions):
    """A space with a labelled basis and its R-actions (`_Actions`)."""

    __slots__ = ("labels", "left", "right", "_index")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.labels)!r})"


class StructuredRing(_Labelled):
    """Finite-dimensional Q-algebra given by basis labels and its products.

    It is kept as the nonzeros of its products: left[i][a] holds those of
    e_i e_a and right[i][a] those of e_a e_i, so that R is the R-bimodule
    (`_Actions`) whose columns are these cells; right shares left's cells.
    `StructuredRing(labels, mult)` takes the dense table, mult[i][j] the
    coordinate vector of e_i e_j, and `from_cells` the cells left[i][j]
    themselves.  `mult` is that dense table again, a read-only view built
    the first time it is read.
    """

    __slots__ = ("_mult",)

    def __init__(self, labels: Sequence[str], mult):
        labels = tuple(labels)
        n = len(labels)
        if len(mult) != n or any(len(row) != n for row in mult):
            raise ValueError("multiplication table shape does not match basis")
        if any(len(cell) != n for row in mult for cell in row):
            raise ValueError("product vector has wrong length")
        self._set(labels, _nz_cells(mult))

    @classmethod
    def from_cells(cls, labels: Sequence[str], cells) -> "StructuredRing":
        """The ring whose product e_i e_j has the nonzero (index, value)
        pairs cells[i][j]; every index is checked and every value coerced
        (`_checked_cells`)."""
        ring = object.__new__(cls)
        ring._set(labels, cells)
        return ring

    def _set(self, labels, cells) -> None:
        self.labels = _distinct(labels, "ring")
        n = len(self.labels)
        cells = tuple(cells)
        if len(cells) != n:
            raise ValueError("multiplication table shape does not match basis")
        self.left = _checked_cells(cells, n, n)
        self.right = tuple(zip(*self.left))
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._mult = None

    @property
    def mult(self) -> tuple:
        if self._mult is None:
            self._mult = _dense_table(self.left, self.dim)
        return self._mult

    def multiply(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
        return _bilinear(self.dim, self.left, a, b)

    def multiply_nz(self, a, b) -> tuple:
        """The nonzeros of a b, both factors given by their nonzeros."""
        return _sum_nz((x * y, self.left[i][j]) for i, x in a for j, y in b)


class StructuredBimodule(_Labelled):
    """R-bimodule given by its actions per ring basis element (`_Actions`):
    the constructor takes the columns left[i][a] and right[i][a], one per
    basis vector, each a sequence of (index, value) pairs with an int index
    in range(dim)."""

    __slots__ = ()

    def __init__(self, labels: Sequence[str], left, right):
        self.labels = _distinct(labels, "module")
        d = len(self.labels)
        self.left, self.right = _checked_cells(left, d, d), _checked_cells(right, d, d)
        self._index = {lab: i for i, lab in enumerate(self.labels)}


class Pairing:
    """psi : P (x) Q -> R, kept as its nonzero cells: _table_nz[a][b] holds
    the nonzero (index, value) pairs of psi(p_a (x) q_b) in the `dim` ring
    coordinates of each cell.

    `Pairing(table)` takes the dense table, table[a][b] the coordinate
    vector of psi(p_a (x) q_b), whose cells must all have one length (`dim`,
    None when there are no cells), and `from_cells` the cells themselves.
    `table` is the dense table again, a read-only view built the first time
    it is read.  Whether the shape fits P, Q and R is `validate_axioms`'
    question."""

    __slots__ = ("_table_nz", "dim", "_table")

    def __init__(self, table):
        lengths = {len(cell) for row in table for cell in row}
        if len(lengths) > 1:
            raise ValueError(f"psi cells of {sorted(lengths)} coordinates in one table")
        self._set(_nz_cells(table), lengths.pop() if lengths else None)

    @classmethod
    def from_cells(cls, cells, dim: int) -> "Pairing":
        """The pairing whose psi(p_a (x) q_b) has the nonzero (index, value)
        pairs cells[a][b], each index checked to lie in range(dim) and each
        value coerced (`_checked_cells`)."""
        psi = object.__new__(cls)
        psi._set(cells, dim)
        return psi

    def _set(self, cells, dim) -> None:
        self._table_nz = _checked_cells(cells, None, dim or 0)
        self.dim = dim
        self._table = None

    @property
    def table(self) -> tuple:
        if self._table is None:
            self._table = _dense_table(self._table_nz, self.dim or 0)
        return self._table

    def __repr__(self) -> str:
        rows = self._table_nz
        return f"Pairing({len(rows)}x{len(rows[0]) if rows else 0})"


@dataclass(eq=False)
class RSystem:
    """An R-system (R, P, Q, psi).  Identity-hashed; carries its own memo."""

    ring: StructuredRing
    p: StructuredBimodule
    q: StructuredBimodule
    psi: Pairing
    name: str = "system"
    # the one per-system memo, read and written by `_memo` and `_chain` alone
    _store: dict = field(default_factory=dict, init=False, repr=False)

    def __repr__(self) -> str:
        return (
            f"RSystem({self.name!r}: dim R={self.ring.dim}, "
            f"dim P={self.p.dim}, dim Q={self.q.dim})"
        )


def _memo(system: RSystem, key, build, *args):
    """The system's memo entry `key`, set to build(*args) on a miss: every
    construction cached per system goes through here or `_chain`.  A hit is
    one dict lookup; a value of None is cached like any other."""
    store = system._store
    try:
        return store[key]
    except KeyError:
        pass
    out = store[key] = build(*args)
    return out


def _chain(system: RSystem, key, n: int, at, link, *args):
    """The memo entry `key` = at(n, *args), the last of the chain of entries
    at(k, *args), k <= n: entry k is link(system, k, entry k - 1, *args),
    entry 0 link(system, 0, None, *args).  On a miss, the entries above the
    highest one memoized are built bottom-up and memoized, in a loop rather
    than a stack frame per entry."""
    store = system._store
    try:
        return store[key]
    except KeyError:
        pass
    k = n
    while k and at(k - 1, *args) not in store:
        k -= 1
    out = store[at(k - 1, *args)] if k else None
    for k in range(k, n + 1):
        out = store[at(k, *args)] = link(system, k, out, *args)
    return out


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str] = field(default_factory=list)
    checks: int = 0

    def __bool__(self) -> bool:
        return self.ok


class _Walk:
    """Maps in nonzero form, maps[u][x] the nonzeros of column x of map u,
    indexed for a path walk: cols[u] the nonempty columns of map u, at[x]
    the maps whose column x (of `width`) is nonempty."""

    __slots__ = ("maps", "cols", "at")

    def __init__(self, maps, width: int):
        self.maps = maps
        self.cols = [[x for x, col in enumerate(cols) if col] for cols in maps]
        self.at = [[] for _ in range(width)]
        for u, xs in enumerate(self.cols):
            for x in xs:
                self.at[x].append(u)


def _failing(width: int, *walks) -> list:
    """The sorted index tuples key[:width] at which one family's difference
    table is nonzero.  Each walk (sign, first, second, compose, key) adds
    sign * c z at key(s, t, u, y) for each path through nonzero constants:
    c at x in first.maps[s][t], then z at y in second.maps[u][x] (u over
    second.at[x]) when `compose`, else in second.maps[x][u] (u over
    second.cols[x])."""
    diff: dict = {}
    for sign, first, second, compose, key in walks:
        for s, ts in enumerate(first.cols):
            for t in ts:
                for x, c in first.maps[s][t]:
                    for u in second.at[x] if compose else second.cols[x]:
                        for y, z in second.maps[u][x] if compose else second.maps[x][u]:
                            k = key(s, t, u, y)
                            diff[k] = diff.get(k, ZERO) + sign * c * z
    return sorted({k[:width] for k, v in diff.items() if v})


_BIMODULE = ("left action not associative", "right action not associative", "actions do not commute")
_PSI = ("not balanced", "not left linear", "not right linear")


def validate_axioms(system: RSystem) -> ValidationReport:
    """Check every defining identity of (R, P, Q, psi) on basis elements.

    The identities are R's associativity, for P and for Q
    e_i.(e_j.m) = (e_i e_j).m, (m.e_i).e_j = m.(e_i e_j) and
    (e_i.m).e_j = e_i.(m.e_j), and psi's balance and left and right
    R-linearity; by linearity basis elements suffice.  A bimodule whose
    actions do not have one map per ring basis element fails with that
    message instead, and its identities and psi's are not checked.  A psi
    cell with other than dim R coordinates fails likewise, and psi's
    identities are not checked.

    Proof sketch of the walk: each side of an identity, at each coordinate
    of its value, is a sum over paths of products of two structure
    constants (e_i.(e_j.m_a) sums c z over c at x in e_j.m_a and z at y in
    e_i.m_x).  A path through a zero constant adds nothing, so `_failing`
    walks the nonzeros of the stored columns only, and a coordinate that no
    path reaches is 0 on both sides.  The left side adds into one difference
    table per family and the right side subtracts, so the identity holds at
    its basis indices exactly when all of their coordinates vanish.  Sorted,
    the failing indices come in the order of a loop over them, and `checks`
    counts every identity checked.
    """
    ring, p, q, psi = system.ring, system.p, system.q, system.psi
    n, lab = ring.dim, ring.labels
    rl, rr = _Walk(ring.left, n), _Walk(ring.right, n)
    failures = [f"ring: associativity fails at ({lab[i]},{lab[j]},{lab[k]})" for i, j, k in _failing(
        3, (1, rl, rr, True, lambda i, j, k, y: (i, j, k, y)),  # (e_i e_j) e_k
        (-1, rl, rl, True, lambda j, k, i, y: (i, j, k, y)))]  # e_i (e_j e_k)
    checks = n * n * n
    walks = {}
    for tag, mod in (("P", p), ("Q", q)):
        wrong = [f"{tag}: {side} action has {len(maps)} maps for {n} ring basis elements"
                 for side, maps in (("left", mod.left), ("right", mod.right)) if len(maps) != n]
        if wrong:
            failures += wrong
            continue
        lm, rm = walks[tag] = _Walk(mod.left, mod.dim), _Walk(mod.right, mod.dim)
        failures += [f"{tag}: {_BIMODULE[k]} at ({lab[i]},{lab[j]})" for i, j, k in _failing(
            3, (1, lm, lm, True, lambda j, a, i, y: (i, j, 0, a, y)),  # e_i.(e_j.m_a)
            (-1, rl, lm, False, lambda i, j, a, y: (i, j, 0, a, y)),  # (e_i e_j).m_a
            (1, rm, rm, True, lambda i, a, j, y: (i, j, 1, a, y)),  # (m_a.e_i).e_j
            (-1, rl, rm, False, lambda i, j, a, y: (i, j, 1, a, y)),  # m_a.(e_i e_j)
            (1, lm, rm, True, lambda i, a, j, y: (i, j, 2, a, y)),  # (e_i.m_a).e_j
            (-1, rm, lm, True, lambda j, a, i, y: (i, j, 2, a, y)))]  # e_i.(m_a.e_j)
        checks += 3 * n * n

    dp, dq, table = p.dim, q.dim, psi._table_nz
    if len(table) != dp or any(len(row) != dq for row in table):
        failures.append("psi: table shape does not match module bases")
    elif psi.dim not in (None, n):  # every cell has psi.dim coordinates
        failures += [f"psi: cell (p{a},q{b}) has {psi.dim} coordinates for a {n}-dimensional ring"
                     for a in range(dp) for b in range(dq)]
    elif len(walks) == 2:
        (pl, pr), (ql, qr), t = walks["P"], walks["Q"], _Walk(table, dq)
        failures += [f"psi: {_PSI[k]} at ({lab[i]},p{a},q{b})" for i, a, b, k in _failing(
            4, (1, pr, t, False, lambda i, a, b, y: (i, a, b, 0, y)),  # psi(p_a.e_i (x) q_b)
            (-1, ql, t, True, lambda i, b, a, y: (i, a, b, 0, y)),  # psi(p_a (x) e_i.q_b)
            (1, pl, t, False, lambda i, a, b, y: (i, a, b, 1, y)),  # psi(e_i.p_a (x) q_b)
            (-1, t, rl, True, lambda a, b, i, y: (i, a, b, 1, y)),  # e_i psi(p_a (x) q_b)
            (1, qr, t, True, lambda i, b, a, y: (i, a, b, 2, y)),  # psi(p_a (x) q_b.e_i)
            (-1, t, rr, True, lambda a, b, i, y: (i, a, b, 2, y)))]  # psi(p_a (x) q_b) e_i
        checks += 3 * n * dp * dq
    return ValidationReport(ok=not failures, failures=failures, checks=checks)


def is_two_sided(system: RSystem, space: Subspace) -> bool:
    """Is the subspace a two-sided ideal of R?  On a system with a corner
    graph (`corner_graph`) a coordinate span is one, since e_i e_t =
    e_t e_i = delta_it e_t; any other space goes to `_two_sided_by_columns`."""
    if space.is_coordinate_span() and corner_graph(system) is not None:
        return True
    return _two_sided_by_columns(system.ring, space)


def _two_sided_by_columns(ring: StructuredRing, space: Subspace) -> bool:
    """`is_two_sided` for any subspace: for each basis vector k, e_i k and
    k e_i are k's combinations of the columns of e_i's actions."""
    return not any(space.residual_nz(_sum_nz((c, cols[a]) for a, c in k))
                   for k in space.basis_nz() for cols in (*ring.left, *ring.right))


# ---------------------------------------------------------------------------
# the corner graph of a system over orthogonal idempotents


def orthogonal_idempotents(ring: StructuredRing) -> bool:
    """Is R's basis e_1..e_d orthogonal idempotents, e_i e_a = delta_ia e_a?
    Read off the nonzeros of the product columns."""
    return all(col == (((i, ONE),) if i == a else ()) for i, cols in enumerate(ring.left)
               for a, col in enumerate(cols))


@dataclass(frozen=True)
class CornerGraph:
    """The nonzero corners of the legs, as bitmasks over R's basis: bit s of
    q[t] says e_t Q e_s != 0, and bit s of p[t] says e_s P e_t != 0.  On a
    graph system both are the graph: t -> s for each edge from t to s."""

    q: tuple
    p: tuple


def _sums_to_identity(walk: _Walk) -> bool:
    """Do the maps of a `_Walk` sum to the identity?"""
    for b, us in enumerate(walk.at):
        if len(us) == 1 and walk.maps[us[0]][b] == ((b, ONE),):
            continue
        total: dict = {}
        for u in us:
            for y, v in walk.maps[u][b]:
                total[y] = total.get(y, ZERO) + v
        if {y: v for y, v in total.items() if v} != {b: ONE}:
            return False
    return True


def _corner_masks(mod: StructuredBimodule, d: int):
    """masks[t], bit s set when e_t M e_s != 0, or None unless e_1 + .. + e_d
    acts as the identity on both sides of M.  One pass over the nonzero
    columns m_a . e_s, each composed with the nonzero columns of the e_t."""
    if len(mod.left) != d or len(mod.right) != d:
        return None
    left, right = _Walk(mod.left, mod.dim), _Walk(mod.right, mod.dim)
    if not (_sums_to_identity(left) and _sums_to_identity(right)):
        return None
    masks = [0] * d
    for s, xs in enumerate(right.cols):
        for a in xs:
            col = mod.right[s][a]  # m_a . e_s
            if len(col) == 1:  # e_t . (v m_b) is nonzero exactly when e_t . m_b is
                for t in left.at[col[0][0]]:
                    masks[t] |= 1 << s
                continue
            acc: dict = {}  # (t, y): coordinate y of e_t . (m_a . e_s)
            for b, v in col:
                for t in left.at[b]:
                    for y, z in mod.left[t][b]:
                        acc[t, y] = acc.get((t, y), ZERO) + v * z
            for (t, _), c in acc.items():
                if c:
                    masks[t] |= 1 << s
    return masks


def corner_graph(system: RSystem) -> CornerGraph | None:
    """The `CornerGraph` of a valid system, or None; built once per system.

    It exists when R's basis is orthogonal idempotents
    (`orthogonal_idempotents`) and e_1 + .. + e_d acts as the identity on
    both sides of Q and of P.  Then, by the bimodule laws, the maps
    m -> e_t . m are idempotents with sum the identity, orthogonal
    (e_s . (e_t . m) = (e_s e_t) . m) and commuting with the maps
    m -> m . e_s, which are alike.  So Q is the direct sum of its corners
    e_t Q e_s, the images of m -> e_t . (m . e_s), and likewise P.  A
    corner is nonzero exactly when that map is nonzero on some basis vector
    m_a, whatever the basis of the leg.  A system with a leg vector that
    every e_t kills from one side (m . e_t = 0 for every t, say) has no
    corner graph, and its questions keep the general path."""
    return _memo(system, ("corners",), _build_corner_graph, system)


def _build_corner_graph(system: RSystem) -> CornerGraph | None:
    graph, d = None, system.ring.dim
    if orthogonal_idempotents(system.ring):
        q, p = _corner_masks(system.q, d), _corner_masks(system.p, d)
        if q is not None and p is not None:  # P's corner (t, s) is e_s P e_t
            graph = CornerGraph(tuple(q), tuple(sum(1 << s for s in range(d) if p[s] >> t & 1)
                                                for t in range(d)))
    return graph


# ---------------------------------------------------------------------------
# builders


def build_graph_system(graph) -> RSystem:
    """The path system of a finite graph.

    R has one idempotent per vertex.  Q is spanned by the edges with
    v . e = [src(e) = v] e  and  e . v = [tgt(e) = v] e; P is spanned by the
    reversed edges with v . e~ = [tgt(e) = v] e~ and e~ . v = [src(e) = v] e~.
    The pairing contracts a reversed edge against an edge:
    psi(e~ (x) f) = delta_{e,f} 1_{tgt(e)}.
    """
    verts = list(graph.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    edges = list(graph.copies())
    nv, ne = len(verts), len(edges)
    ring = StructuredRing.from_cells(verts, [[((i, ONE),) if i == j else () for j in range(nv)] for i in range(nv)])
    src = [vidx[s] for (_, s, _) in edges]
    tgt = [vidx[t] for (_, _, t) in edges]

    def diag(ends, v):  # the columns of the diagonal matrix with 1 where ends[a] == v
        return [((a, ONE),) if x == v else () for a, x in enumerate(ends)]

    labels = [name for (name, _, _) in edges]
    q_mod = StructuredBimodule(labels, [diag(src, v) for v in range(nv)], [diag(tgt, v) for v in range(nv)])
    p_mod = StructuredBimodule(labels, [diag(tgt, v) for v in range(nv)], [diag(src, v) for v in range(nv)])
    psi = Pairing.from_cells([[((tgt[a], ONE),) if a == b else () for b in range(ne)] for a in range(ne)], nv)
    return RSystem(ring=ring, p=p_mod, q=q_mod, psi=psi, name=f"graph:{graph.name}")


def build_automorphism_system(ring: StructuredRing, phi) -> RSystem:
    """The system of a ring automorphism phi (given as a matrix on R).

    P carries p . r = p phi(r), Q carries q . r = q phi^{-1}(r) (left actions
    are plain multiplication on both), and psi(p (x) q) = p phi(q).  The
    system keeps phi and phi^{-1} for the crossed-product backend as their
    images' nonzeros: `phi[k]` and `phi_inv[k]` hold those of phi(e_k) and
    phi^{-1}(e_k).
    """
    d = ring.dim
    images = tuple(tuple(_nonzeros([frac(row[k]) for row in phi])) for k in range(d))  # phi(e_k)
    inv_cols = [solve(images, ((i, ONE),)) for i in range(d)]  # phi^-1(e_i)
    if None in inv_cols:
        raise ValueError("phi is not invertible")
    # automorphism check: phi(e_i e_j) = phi(e_i) phi(e_j), on nonzeros
    for i in range(d):
        for j in range(d):
            lhs = _sum_nz((c, images[k]) for k, c in ring.left[i][j])
            if lhs != ring.multiply_nz(images[i], images[j]):
                raise ValueError(f"phi is not multiplicative at ({ring.labels[i]},{ring.labels[j]})")

    inverse = tuple(tuple(_nonzeros(c)) for c in inv_cols)
    p_mod = StructuredBimodule(ring.labels, ring.left, [ring._map(ring.right, img) for img in images])
    q_mod = StructuredBimodule(ring.labels, ring.left, [ring._map(ring.right, img) for img in inverse])

    # psi(e_i (x) e_j) = e_i phi(e_j)
    psi = Pairing.from_cells([[_sum_nz((c, ring.left[i][k]) for k, c in images[j]) for j in range(d)]
                              for i in range(d)], d)
    sys = RSystem(ring=ring, p=p_mod, q=q_mod, psi=psi, name="automorphism")
    sys.phi, sys.phi_inv = images, inverse
    return sys


# ---------------------------------------------------------------------------
# JSON serialization (schema shared with the CLI)


def _triples_to_cells(triples, n1: int, n2: int, n3: int) -> list:
    """cells[i][j]: the nonzero (k, sum of c), by k, over the triples
    [i, j, k, c], after checking that each index is an int in range(n1),
    range(n2), range(n3) respectively and that c is a string or an int
    (not a boolean)."""
    acc: dict = {}  # (i, j) -> {k: sum of c}
    for t in triples:
        *idx, c = t
        if len(idx) != 3:
            raise ValueError(f"triple {t!r} does not have 4 entries")
        for x, n in zip(idx, (n1, n2, n3)):
            if type(x) is not int or not 0 <= x < n:
                raise ValueError(f"index {x!r} of triple {t!r} is not in range({n})")
        if type(c) is bool:
            raise ValueError(f"coefficient of triple {t!r} is a boolean, not a string or an int")
        i, j, k = idx
        cell = acc.setdefault((i, j), {})
        cell[k] = cell.get(k, ZERO) + frac(c)
    cells = [[()] * n2 for _ in range(n1)]
    for (i, j), cell in acc.items():
        cells[i][j] = tuple(sorted((k, c) for k, c in cell.items() if c))
    return cells


def _basis(data: dict, key: str) -> list:
    """data[key]["basis"], which must be a JSON list of labels."""
    labels = data[key]["basis"]
    if not isinstance(labels, list):
        raise ValueError(f'{key} "basis" must be a list of labels, got {labels!r}')
    bad = [lab for lab in labels if not isinstance(lab, str)]
    if bad:
        raise ValueError(f'{key} "basis" label {bad[0]!r} is not a string')
    return labels


def _json_name(data: dict, default: str) -> str:
    """data["name"], which must be a string, or `default` when there is none."""
    name = data.get("name", default)
    if not isinstance(name, str):
        raise ValueError(f'"name" {name!r} is not a string')
    return name


def system_from_json(data: dict) -> RSystem:
    """Build a system from the interchange schema.

    ring.mult triples [i, j, k, c]: e_i e_j has coefficient c on e_k.
    module left triples [i, a, b, c]: e_i . m_a has coefficient c on m_b;
    right triples [i, a, b, c]: m_a . e_i has coefficient c on m_b.
    psi triples [i, j, k, c]: psi(p_i (x) q_j) has coefficient c on e_k.
    Missing entries are zero; coefficients are strings or ints.
    """
    if data.get("base_field", "Q") != "Q":
        raise ValueError("only base_field 'Q' is supported")
    rbasis = _basis(data, "ring")
    n = len(rbasis)
    ring = StructuredRing.from_cells(rbasis, _triples_to_cells(data["ring"].get("mult", []), n, n, n))

    def load_mod(key):
        spec, labels = data[key], _basis(data, key)
        d = len(labels)
        # [i, a, b, c] is coefficient c of m_b in column a of e_i's action
        left, right = (_triples_to_cells(spec.get(side, []), n, d, d) for side in ("left", "right"))
        return StructuredBimodule(labels, left, right)

    p_mod = load_mod("p")
    q_mod = load_mod("q")
    psi = Pairing.from_cells(_triples_to_cells(data.get("psi", []), p_mod.dim, q_mod.dim, n), n)
    return RSystem(ring=ring, p=p_mod, q=q_mod, psi=psi, name=_json_name(data, "system"))


def _cells_to_triples(cells):
    """[i, j, k, c] for each pair (k, c) of cells[i][j], in that order."""
    return [[i, j, k, str(c)] for i, row in enumerate(cells) for j, cell in enumerate(row) for k, c in cell]


def _cols_to_triples(cols):
    """[i, a, b, c] for each nonzero c of e_i acting on m_a at m_b, by i, then b, then a."""
    out = []
    for i, m in enumerate(cols):
        for b, a, c in sorted((b, a, c) for a, col in enumerate(m) for b, c in col):
            out.append([i, a, b, str(c)])
    return out


def system_to_json(system: RSystem) -> dict:
    return {
        "base_field": "Q",
        "name": system.name,
        "ring": {
            "basis": list(system.ring.labels),
            "mult": _cells_to_triples(system.ring.left),
        },
        "p": {
            "basis": list(system.p.labels),
            "left": _cols_to_triples(system.p.left),
            "right": _cols_to_triples(system.p.right),
        },
        "q": {
            "basis": list(system.q.labels),
            "left": _cols_to_triples(system.q.left),
            "right": _cols_to_triples(system.q.right),
        },
        "psi": _cells_to_triples(system.psi._table_nz),
    }
