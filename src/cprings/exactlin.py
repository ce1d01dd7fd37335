"""Exact linear algebra over the rationals, with kernels that skip zero entries.

Everything in the package reduces to solving small exact linear systems, so
this module keeps the representation boring on purpose: a vector is a list of
exact rationals, a matrix is a list of row vectors.  An entry is an `int`
when it is integral and a `fractions.Fraction` otherwise, so the 0 and +-1
structure constants of graph and permutation systems cost integer arithmetic,
not a gcd per operation; an int and the equal Fraction compare and hash
equal, so results, printing and memo keys do not depend on which one a value
is.  Numbers are coerced where they enter: `frac`, `vec`, and `rref`, the
`Subspace` constructor, `Subspace.contains` and `Subspace.coordinates`,
which pass a vector of ints through as it is and coerce any other.  The
other kernels, `Subspace.reduce` among them, trust the vectors the library
built; in `kernel`, `solve` and `preimage` every entry that the answer
reads goes to `rref`, which coerces it (an equation with one nonzero is a
unit row, whose value is never read).  `rref` is the one place that
divides, by its pivots, and it brings an integral inverse back to an int.

The matrices that graph and permutation systems produce are almost all
zeros, so every kernel collects the nonzero entries of its operands first
and does arithmetic only on those; the results are exactly those of the
dense formulas.  A sparse vector is the tuple of its nonzero (index, value)
pairs, by index (`_nonzeros`, `_sum_nz`); `_dense` reads one back.
`Subspace` keeps its RREF basis as the pivots and the nonzeros right of
each, never a dense row (`rows` and `basis()` are views for printing and
tests).  Every RREF is read off spanning vectors given as their nonzeros
(`_echelon_nz`), so a span of unit vectors eliminates nothing.  Every
linear system is one too: `kernel`, `solve` and `preimage` take a map as
its columns' nonzeros, one tuple per unknown, and read their answers off
the RREF of the equations of the coordinates the columns touch
(`_map_rref`), which is the dense system's.  The lattice operations read
the rows' nonzeros, and `Subspace.residual_nz` reduces a
vector given by its nonzeros in one pass, since an RREF row has only free
columns right of its pivot; the membership walk and the floored, descent
and psi-invariance tests read it.
`QuotientSpace` takes the classes of the non-pivot coordinates as its basis,
so basis vector t is the class of the unit vector at `free[t]`; the class of
every other coordinate is read off the RREF rows once, into a lookup table,
and `QuotientSpace.project_nz` is a sum of table entries over a vector's
nonzeros, kept sparse.  `QuotientSpace.of_relations` builds one from
spanning relations given as their nonzeros, by the same
`_echelon_nz`: when every relation has one nonzero entry the quotient is a
coordinate selection.  A quotient by 0 is the identity (`free` is a
`range`) and keeps no table.  No dense projection matrix is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

ZERO = 0
ONE = 1
_INT = frozenset((int,))


class DimensionMismatch(ValueError):
    """Raised when vector/matrix shapes do not line up."""


def frac(x) -> int | Fraction:
    """x as an exact rational: an `int` when it is integral, else a `Fraction`.
    Takes an int, a Fraction or a string; a float raises TypeError."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        if type(x) is str and x.isdecimal():  # a plain numeral: int reads it without Fraction's regex
            return int(x)
        if not isinstance(x, (int, str)):
            raise TypeError(f"cannot coerce {x!r} to an exact rational")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def vec(entries: Iterable) -> list:
    """A new list of the entries; coerced by `frac` unless all are ints."""
    v = list(entries)
    if set(map(type, v)) <= _INT:
        return v
    return [frac(x) for x in v]


def zero_vec(n: int) -> list[Fraction]:
    return [ZERO] * n


def unit_vec(n: int, i: int) -> list[Fraction]:
    v = [ZERO] * n
    v[i] = ONE
    return v


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return not any(v)


def _nonzeros(v: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    return [(j, x) for j, x in enumerate(v) if x]


def _dense(n: int, pairs) -> list:
    """The vector in Q^n whose nonzero (index, value) pairs are `pairs`."""
    out = [ZERO] * n
    for j, y in pairs:
        out[j] += y
    return out


def _sum_nz(terms) -> tuple:
    """Nonzero (index, value) pairs, by index, of the sum of c * v over the
    (c, nonzero pairs of v) in `terms`."""
    acc: dict = {}
    for c, nz in terms:
        for j, y in nz:
            acc[j] = acc.get(j, ZERO) + c * y
    return tuple(sorted((j, y) for j, y in acc.items() if y))


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} != {len(b)}")
    out = list(a)
    for j, y in _nonzeros(b):
        x = out[j]
        out[j] = x + y if x else y
    return out


def vec_scale(c, v: Sequence[Fraction]) -> list[Fraction]:
    c = frac(c)
    out = [ZERO] * len(v)
    if c:
        for j, x in _nonzeros(v):
            out[j] = c * x
    return out


def mat_zero(m: int, n: int) -> list[list[Fraction]]:
    return [[ZERO] * n for _ in range(m)]


def mat_identity(n: int) -> list[list[Fraction]]:
    return [unit_vec(n, i) for i in range(n)]


def matvec(a: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> list[Fraction]:
    if a and len(a[0]) != len(x):
        raise DimensionMismatch(f"matrix is {len(a)}x{len(a[0])}, vector has {len(x)}")
    nz_x = _nonzeros(x)
    out = []
    for row in a:
        acc = ZERO
        for j, x_j in nz_x:
            r_j = row[j]
            if r_j:
                acc += r_j * x_j
        out.append(acc)
    return out


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch(f"inner dimensions {len(a[0])} != {len(b)}")
    if not b:
        return [[] for _ in a]
    n_out = len(b[0])
    nz_b = [_nonzeros(brow) for brow in b]
    out = []
    for row in a:
        acc = [ZERO] * n_out
        for coef, nz_brow in zip(row, nz_b):
            if coef:
                for j, bval in nz_brow:
                    acc[j] += coef * bval
        out.append(acc)
    return out


def mat_transpose(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot column indices)."""
    a = [vec(row) for row in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    for row in a:
        if len(row) != ncols:
            raise DimensionMismatch("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(a)):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        prow = a[r]
        # rows r.. are zero left of column c, so the pivot row's support starts at c
        support = [j for j in range(c + 1, ncols) if prow[j]]
        pv = prow[c]
        if pv != 1:
            # the package's one division; a pivot of -1 needs none
            inv = -1 if pv == -1 else frac(Fraction(1) / pv)
            prow[c] = 1
            for j in support:
                prow[j] *= inv
        nz_prow = [(j, prow[j]) for j in support]
        for i, row in enumerate(a):
            coef = row[c]
            if coef and i != r:
                row[c] = ZERO
                for j, y in nz_prow:
                    row[j] -= coef * y
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def _echelon_nz(vectors) -> dict:
    """The RREF of the span of vectors given as their nonzero (index, value)
    pairs at distinct indices, as {pivot: nonzeros right of it}.  A vector
    with one nonzero is a unit row; the others, reduced modulo the unit rows
    (those coordinates dropped), go to `rref` over only the coordinates they
    touch.  Neither kind of row has an entry at a pivot of the other, so
    together they are the (unique) RREF."""
    rows: dict = {}
    rest = []
    for v in vectors:
        if len(v) == 1:
            rows[v[0][0]] = ()
        elif v:
            rest.append(v)
    touched = sorted({j for v in rest for j, _ in v if j not in rows})
    if touched:
        local = {j: c for c, j in enumerate(touched)}
        dense = []
        for v in rest:
            row = [ZERO] * len(touched)
            for j, x in v:
                c = local.get(j)
                if c is not None:
                    row[c] = x
            dense.append(row)
        red, pivots = rref(dense)
        for row, p in zip(red, pivots):  # a row's first nonzero is its pivot's 1
            rows[touched[p]] = tuple([(touched[c], x) for c, x in enumerate(row) if x][1:])
    return rows


def _map_rref(cols) -> dict:
    """The RREF of the matrix whose columns, one per unknown, are given as
    their nonzero (index, value) pairs at distinct indices, as
    `_echelon_nz` gives it: {pivot unknown: nonzeros right of it}.

    Its rows are the equations of the coordinates some column touches, each
    over the unknowns.  A coordinate no column touches is the equation
    0 = 0, a zero row, and dropping zero rows leaves the (unique) RREF as it
    is; so the pivots and rows are those of the dense system, and so is
    every answer `kernel` and `solve` read off them."""
    eqs: dict = {}
    for u, col in enumerate(cols):
        for t, y in col:
            eq = eqs.get(t)
            if eq is None:
                eqs[t] = [(u, y)]
            else:
                eq.append((u, y))
    return _echelon_nz(eqs.values())


def kernel(cols) -> list[tuple]:
    """A basis of the null space of the map whose columns' nonzeros are
    `cols` (one tuple per unknown), each vector as its nonzero pairs: for
    each free unknown f, e_f - sum_p row_p[f] e_p over the RREF rows p
    (`_map_rref`).  With no equation (the zero map) every unknown is free."""
    rows = _map_rref(cols)
    out = {f: [] for f in range(len(cols)) if f not in rows}
    for p in sorted(rows):
        for f, y in rows[p]:
            out[f].append((p, -y))
    return [(*pairs, (f, ONE)) for f, pairs in out.items()]


def solve(cols, target) -> list | None:
    """One solution x of sum_u x_u cols[u] = target, the free unknowns 0, or
    None if there is none; the columns and the target are given as their
    nonzero pairs.  The RREF of the augmented map [cols | target]
    (`_map_rref`) has a pivot in the target column exactly when the system
    is inconsistent (a target coordinate no column touches is one);
    otherwise x_p is row p's entry in that column."""
    n = len(cols)
    rows = _map_rref([*cols, target])
    if n in rows:
        return None
    x = [ZERO] * n
    for p, support in rows.items():
        if support and support[-1][0] == n:
            x[p] = support[-1][1]
    return x


class Subspace:
    """A subspace of Q^n stored as its RREF basis: the pivots and the nonzero
    (column, value) pairs right of each (no dense row)."""

    __slots__ = ("ambient", "pivots", "_support", "_by_pivot")

    def __init__(self, ambient: int, vectors: Iterable[Sequence[Fraction]] = ()):
        nz = []
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatch(f"vector of length {len(v)} in Q^{ambient}")
            nz.append(_nonzeros(vec(v)))
        self._set_rref(ambient, _echelon_nz(nz))

    def _set_rref(self, ambient: int, rows: dict) -> None:
        """Store the RREF given as {pivot: nonzero (column, value) pairs right of it}."""
        self.ambient = ambient
        self.pivots = tuple(sorted(rows))
        self._support = tuple(rows[p] for p in self.pivots)
        self._by_pivot = None  # pivot -> its row's support, built by the first `residual_nz`

    @classmethod
    def coordinate_span(cls, ambient: int, indices: Iterable[int]) -> "Subspace":
        """The span of the unit vectors at `indices` (any order, repeats
        allowed), built as its own RREF in O(#indices): the distinct indices,
        sorted, are the pivots of unit rows with nothing right of them."""
        pivots = set(indices)
        if any(type(t) is not int or not 0 <= t < ambient for t in pivots):
            raise ValueError(f"coordinate indices must be ints in range({ambient}), got {sorted(map(repr, pivots))}")
        self = object.__new__(cls)
        self.ambient, self.pivots, self._by_pivot = ambient, tuple(sorted(pivots)), None
        self._support = ((),) * len(self.pivots)
        return self

    @classmethod
    def of_nonzeros(cls, ambient: int, vectors) -> "Subspace":
        """The span of vectors given as their nonzero (index, value) pairs at
        distinct indices (`_echelon_nz`)."""
        self = object.__new__(cls)
        self._set_rref(ambient, _echelon_nz(vectors))
        return self

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.coordinate_span(ambient, range(ambient))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def is_coordinate_span(self) -> bool:
        """Is the space spanned by standard basis vectors?  It is exactly when
        every reduced row is one, i.e. has nothing right of its pivot."""
        return not any(self._support)

    def coordinate_mask(self) -> int | None:
        """The indices of the unit vectors spanning a coordinate span, as a
        bitmask (bit t for e_t); None when the space is not one."""
        return sum(1 << t for t in self.pivots) if self.is_coordinate_span() else None

    @property
    def rows(self) -> tuple:
        """The RREF basis rows, dense, built on each call."""
        return tuple(map(tuple, self.basis()))

    def basis(self) -> list[list[Fraction]]:
        return [_dense(self.ambient, r) for r in self.basis_nz()]

    def basis_nz(self) -> list[tuple]:
        """The basis rows as their nonzero (index, value) pairs, read off
        the pivots and the supports right of them."""
        return [((p, ONE),) + support for p, support in zip(self.pivots, self._support)]

    def reduce(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Canonical residual of v modulo this subspace (zero iff v is a member)."""
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in Q^{self.ambient}")
        out = list(v)
        for p, support in zip(self.pivots, self._support):
            c = out[p]
            if c:
                out[p] = ZERO
                for j, y in support:
                    out[j] -= c * y
        return out

    def residual_nz(self, pairs) -> tuple:
        """Nonzero (index, value) pairs, by index, of `reduce` of the vector
        whose (index, value) pairs are `pairs` (any order; repeats add up).

        An RREF row has only free columns right of its pivot, so reducing
        one pivot entry never changes another: the residual is v minus v_p
        times row p over the pivots p, one pass over v's nonzeros.  The
        pivot map is built on the first call, once per subspace."""
        by_pivot = self._by_pivot
        if by_pivot is None:
            by_pivot = self._by_pivot = dict(zip(self.pivots, self._support))
        acc: dict = {}
        for j, x in pairs:
            support = by_pivot.get(j)
            if support is None:
                acc[j] = acc.get(j, ZERO) + x
            else:
                for k, y in support:
                    acc[k] = acc.get(k, ZERO) - x * y
        return tuple(sorted((j, y) for j, y in acc.items() if y))

    def contains(self, v: Sequence) -> bool:
        """Is v a member?  v is coerced by `vec`; the library's own callers,
        whose vectors are exact already, test `reduce` directly."""
        return is_zero_vec(self.reduce(vec(v)))

    def coordinates(self, v: Sequence) -> list[Fraction] | None:
        """Coefficients of v (coerced by `vec`) in the RREF basis rows, or
        None if v is outside."""
        if len(v) != self.ambient:
            raise DimensionMismatch("length mismatch")
        out = vec(v)
        coords = []
        for p, support in zip(self.pivots, self._support):
            c = out[p]
            coords.append(c)
            if c:
                out[p] = ZERO
                for j, y in support:
                    out[j] -= c * y
        if not is_zero_vec(out):
            return None
        return coords

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        if self.is_coordinate_span() and other.is_coordinate_span():  # the span of both index sets
            return Subspace.coordinate_span(self.ambient, self.pivots + other.pivots)
        return Subspace.of_nonzeros(self.ambient, self.basis_nz() + other.basis_nz())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-style: the combinations of self's rows u_i that lie in
        other are the u-parts of the kernel of (c, d) |-> sum c_i u_i +
        sum d_j w_j, whose columns are the rows' nonzeros."""
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        if self.is_zero() or other.is_zero():
            return Subspace(self.ambient)
        if self.dim == self.ambient:  # all of Q^n
            return other
        if other.dim == other.ambient:
            return self
        us, k = self.basis_nz(), self.dim
        return Subspace.of_nonzeros(self.ambient, [_sum_nz((c, us[u]) for u, c in rel if u < k)
                                                   for rel in kernel(us + other.basis_nz())])

    def le(self, other: "Subspace") -> bool:
        """Is this a subspace of `other`?  A vector's leading column is a pivot of
        any RREF subspace containing it, so self's pivots must be among other's."""
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        return (set(self.pivots).issubset(other.pivots)
                and not any(other.residual_nz(r) for r in self.basis_nz()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient, self.pivots, self._support) == (other.ambient, other.pivots, other._support)

    def __hash__(self) -> int:
        # equal subspaces have equal RREF rows, hence equal pivots; hashing the
        # pivots alone keeps hashing cheap where subspaces key a memo
        return hash((self.ambient, self.pivots))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"


class QuotientSpace:
    """Q^n / W with the canonical basis = images of the non-pivot coordinates.

    The class of every coordinate is read off the RREF rows of W once: a free
    coordinate free[t] is basis vector t, and the pivot p_k of row k is
    e_{p_k} - row_k modulo W, i.e. -row_k on the free coordinates.
    `project_nz` sums these classes over a vector's nonzero entries and is
    the only map from coordinates to classes.  `QuotientSpace(sub)` reads
    the RREF of a `Subspace`; `of_relations` reads it off spanning
    relations given sparse.
    With W = 0 the quotient is the identity: `free` is `range(n)` and no
    class table is stored.
    """

    __slots__ = ("ambient", "free", "_classes")

    def __init__(self, sub: Subspace):
        self._read_rref(sub.ambient, dict(zip(sub.pivots, sub._support)))

    @classmethod
    def of_relations(cls, ambient: int, relations) -> "QuotientSpace":
        """Q^ambient modulo the span of `relations`, each given as its
        nonzero (index, value) pairs at distinct indices, read off their
        RREF (`_echelon_nz`): a relation with one nonzero entry kills its
        coordinate with no elimination, `rref` runs on the others over only
        the coordinates they touch, and with no relation the quotient is the
        identity.  No dense row of Q^ambient is formed, and the classes are
        those of `QuotientSpace(Subspace(...))` on the dense relation rows
        (`tensorpow.balanced_quotient` has the argument).
        """
        self = object.__new__(cls)
        self._read_rref(ambient, _echelon_nz(relations))
        return self

    def _read_rref(self, ambient: int, rows: dict) -> None:
        """Fill `free` and the class table from W's RREF, given as
        {pivot: nonzero (column, value) pairs right of the pivot}."""
        self.ambient = ambient
        if not rows:
            self.free, self._classes = range(ambient), None
            return
        self.free = tuple(c for c in range(ambient) if c not in rows)
        position = {f: t for t, f in enumerate(self.free)}
        classes: list = [None] * ambient
        for t, f in enumerate(self.free):
            classes[f] = ((t, ONE),)
        for p, support in rows.items():
            classes[p] = tuple((position[j], -y) for j, y in support)
        self._classes = classes

    @property
    def dim(self) -> int:
        return len(self.free)

    def project_nz(self, pairs) -> tuple:
        """Nonzero (index, value) pairs of the class of the vector whose
        nonzero (index, value) pairs are `pairs`."""
        classes = self._classes
        if classes is None:
            return _sum_nz((x, ((j, ONE),)) for j, x in pairs)
        return _sum_nz((x, classes[j]) for j, x in pairs)

    def __repr__(self) -> str:
        return f"QuotientSpace(Q^{self.ambient} / dim {self.ambient - self.dim})"


def preimage(cols, w: Subspace) -> Subspace:
    """{x : sum_u x_u cols[u] in W}, for the map whose columns' nonzeros are
    `cols` (one tuple per unknown): the kernel of the columns' residuals
    modulo W (`Subspace.residual_nz`, linear and zero exactly on W)."""
    return Subspace.of_nonzeros(len(cols), kernel([w.residual_nz(col) for col in cols]))
