"""Shared fixture builders.

Plain functions (importable from acceptance tests and scripts) plus a few
pytest fixtures wrapping them.  The numeric expectations frozen in the test
suite for these objects were derived by hand before the engine existed; see
the assertions where they are used.
"""

import argparse
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from cprings.cpring import CpContext, CpElement, _core_generator, in_relation_ideal, validate_ideal
from cprings.graphalg import (
    Edge,
    FiniteGraph,
    cycle_graph,
    is_hereditary_saturated,
    line_graph,
    restriction_graph,
    rose_graph,
    special_edge,
)
from cprings.ideals import is_psi_invariant, quotient_system, validate_tpair
from cprings.rsystem import (
    Pairing,
    RSystem,
    StructuredBimodule,
    StructuredRing,
    build_automorphism_system,
    build_graph_system,
    is_two_sided,
)
from cprings.exactlin import (
    ONE,
    QuotientSpace,
    Subspace,
    _dense,
    _nonzeros,
    _sum_nz,
    frac,
    mat_identity,
    mat_transpose,
    matmul,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from cprings.finrank import _delta_columns, _floored_thetas, delta_ideals, theta_table
from cprings.tensorpow import DEFAULT_CAP, _word_nz, psi_apply, tensor_space
from cprings.toeplitz import (
    ToeplitzElement,
    _check_fock_cap,
    check_representation,
    component_space,
    embed_n,
    fock_apply,
    toeplitz_mul,
)

F = Fraction


def project(quot: QuotientSpace, pairs) -> list:
    """The class coordinates, dense, of the vector whose nonzero (index,
    value) pairs are `pairs` (`QuotientSpace.project_nz`)."""
    return _dense(quot.dim, quot.project_nz(pairs))


def _project_kron(quot: QuotientSpace, u, w) -> list:
    """Class of u (x) w, both dense: `quot` projects the nonzeros of its
    Kronecker coordinates."""
    nz_w = _nonzeros(w)
    return project(quot, [(a * len(w) + b, x * y) for a, x in _nonzeros(u) for b, y in nz_w])


def a2_graph() -> FiniteGraph:
    return FiniteGraph(["u", "v"], [Edge("e", "u", "v")], name="a2")


def three_vertex_two_cycle() -> FiniteGraph:
    # a <-> b two-cycle, plus a sink hanging off a
    return FiniteGraph(
        ["a", "b", "c"],
        [Edge("e_ab", "a", "b"), Edge("e_ba", "b", "a"), Edge("e_ac", "a", "c")],
        name="3v2c",
    )


def five_vertex_mixed() -> FiniteGraph:
    # source s -> a, 2-cycle a <-> b, sink t under b, extra sink w under a
    return FiniteGraph(
        ["s", "a", "b", "t", "w"],
        [
            Edge("f_sa", "s", "a"),
            Edge("f_ab", "a", "b"),
            Edge("f_ba", "b", "a"),
            Edge("f_bt", "b", "t"),
            Edge("f_aw", "a", "w"),
        ],
        name="5v-mixed",
    )


def infinite_emitter_graph() -> FiniteGraph:
    return FiniteGraph(
        ["v", "w", "h0"],
        [Edge("binf", "v", "h0", float("inf")), Edge("e", "v", "w")],
        name="inf-emitter",
    )


def diagonal_ring(n: int, prefix: str = "v") -> StructuredRing:
    labels = [f"{prefix}{i+1}" for i in range(n)]
    mult = [
        [unit_vec(n, i) if i == j else zero_vec(n) for j in range(n)]
        for i in range(n)
    ]
    return StructuredRing(labels, mult)


def dual_numbers_ring() -> StructuredRing:
    # Q[x]/(x^2): not semiprime, witness x
    one = [F(1), F(0)]
    x = [F(0), F(1)]
    zero = [F(0), F(0)]
    return StructuredRing(["1", "x"], [[one, x], [x, zero]])


def dual_numbers_unit_basis_ring() -> StructuredRing:
    # Q[x]/(x^2) in the basis 1, u = 1 + x: u*u = 2u - 1 is not a multiple of
    # one basis element, so classes of words have several nonzero coordinates
    one = [F(1), F(0)]
    u = [F(0), F(1)]
    return StructuredRing(["1", "u"], [[one, u], [u, [F(-1), F(2)]]])


def matrix2_ring() -> StructuredRing:
    # 2x2 matrix units e11, e12, e21, e22 (semisimple)
    labels = ["e11", "e12", "e21", "e22"]
    idx = {lab: i for i, lab in enumerate(labels)}

    def unit(lab):
        return unit_vec(4, idx[lab])

    z = zero_vec(4)
    table = {}
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                for d in (1, 2):
                    table[(f"e{a}{b}", f"e{c}{d}")] = unit(f"e{a}{d}") if b == c else z
    mult = [[table[(r, c)] for c in labels] for r in labels]
    return StructuredRing(labels, mult)


def perm3_system() -> RSystem:
    ring = diagonal_ring(3)
    phi = [
        [F(0), F(0), F(1)],
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
    ]  # e1 -> e2 -> e3 -> e1
    sys = build_automorphism_system(ring, phi)
    sys.name = "perm3"
    return sys


def psi_zero_system() -> RSystem:
    """P = Q = R = Q^2 (diagonal), psi identically zero: (FS) must fail."""
    ring = diagonal_ring(2)
    n = ring.dim
    mod_p = StructuredBimodule(["p1", "p2"], ring.left, ring.right)
    mod_q = StructuredBimodule(["q1", "q2"], ring.left, ring.right)
    psi = Pairing([[zero_vec(n) for _ in range(n)] for _ in range(n)])
    return RSystem(ring=ring, p=mod_p, q=mod_q, psi=psi, name="psi-zero")


def square_zero_json() -> dict:
    """R = Q z with z z = 0 and P = Q = 0: (FS) holds, but z R = 0, so
    iota_R(z) acts as 0 on the Fock module and the representation is not
    faithful."""
    return {"name": "zero1", "ring": {"basis": ["z"], "mult": []},
            "p": {"basis": []}, "q": {"basis": []}, "psi": []}


def left_unit_json() -> dict:
    """R = <e, z> with e e = e, e z = z (other products 0) and P = Q = 0:
    z R = 0, so R fails the membership guard, but R/<z> = Q e does not."""
    return {"name": "ez", "ring": {"basis": ["e", "z"], "mult": [[0, 0, 0, 1], [0, 1, 1, 1]]},
            "p": {"basis": []}, "q": {"basis": []}, "psi": []}


def square_into_ideal_json() -> dict:
    """R = <x, y> with x x = y (other products 0) and P = Q = 0: x R = <y>,
    so in R/<y> the class of x kills everything."""
    return {"name": "xy", "ring": {"basis": ["x", "y"], "mult": [[0, 0, 1, 1]]},
            "p": {"basis": []}, "q": {"basis": []}, "psi": []}


def corner_bimodules_json() -> dict:
    """R = Q e1 + Q e2 (orthogonal idempotents), Q = Q q and P = Q p with
    e1 . m = m = m . e2 on both, and psi = 0.  Every two-sided ideal is
    psi-invariant, yet neither R/(e1) nor R/(e2) acts on the quotient legs:
    (e1) Q = Q but Q (e1) = 0, and P (e2) = P but (e2) P = 0."""
    corner = {"left": [[0, 0, 0, 1]], "right": [[1, 0, 0, 1]]}
    return {"name": "corners", "ring": {"basis": ["e1", "e2"], "mult": [[0, 0, 0, 1], [1, 1, 1, 1]]},
            "q": {"basis": ["q"], **corner}, "p": {"basis": ["p"], **corner}, "psi": []}


def idempotent_plus_null_json() -> dict:
    """R = Q e + Q n with e e = e (other products 0), P = Q = Q with e acting
    as 1 and n as 0 on both sides, and psi(p (x) q) = e.  (FS) holds, ker
    Delta = (n) and j_max = R, which meets ker Delta: `hypothesis_ok` is
    false."""
    unit = {"left": [[0, 0, 0, 1]], "right": [[0, 0, 0, 1]]}
    return {"name": "e-plus-null", "ring": {"basis": ["e", "n"], "mult": [[0, 0, 0, 1]]},
            "q": {"basis": ["q"], **unit}, "p": {"basis": ["p"], **unit}, "psi": [[0, 0, 0, 1]]}


def killed_vector_json(leg: str, fixed: bool) -> dict:
    """R = Q e1 + Q e2 (orthogonal idempotents), psi = 0, one leg (`leg`,
    'q' or 'p') spanned by m and the other 0.  Every e_t kills m on the
    outer side (m . e_t = 0 on Q, e_t . m = 0 on P); when `fixed`, e1 fixes
    m on the inner side (e1 . m = m on Q, m . e1 = m on P), else it is
    killed there too.  No unit of R acts on the leg, so a descent check
    that reads the leg as the sum of its corners e_t M e_s misses m.  Every
    ideal is psi-invariant; when `fixed`, no I holding e1 descends (QI = 0
    and IP = 0)."""
    inner, other = ("left", "p") if leg == "q" else ("right", "q")
    mod = {"basis": ["m"], inner: [[0, 0, 0, 1]] if fixed else []}
    return {"name": f"killed-{leg}", "ring": {"basis": ["e1", "e2"], "mult": [[0, 0, 0, 1], [1, 1, 1, 1]]},
            leg: mod, other: {"basis": []}, "psi": []}


def random_graph(rng: random.Random, max_v: int = 6, max_e: int = 10) -> FiniteGraph:
    nv = rng.randint(1, max_v)
    verts = [f"v{i}" for i in range(1, nv + 1)]
    ne = rng.randint(0, max_e)
    edges = [
        Edge(f"e{i}", rng.choice(verts), rng.choice(verts)) for i in range(1, ne + 1)
    ]
    return FiniteGraph(verts, edges, name=f"rand{nv}v{ne}e")


def random_permutation_system(rng: random.Random, max_n: int = 6) -> RSystem:
    n = rng.randint(1, max_n)
    ring = diagonal_ring(n)
    perm = list(range(n))
    rng.shuffle(perm)
    phi = [[F(1) if perm[j] == i else F(0) for j in range(n)] for i in range(n)]
    sys = build_automorphism_system(ring, phi)
    sys.name = f"perm{n}"
    return sys


def _matrix_unit(k, i, j):
    return [[F(int((r, c) == (i, j))) for c in range(k)] for r in range(k)]


def _algebra(kind, rng):
    """Basis matrices of a subalgebra of M_k(Q), a g in GL_k(Q) whose
    conjugation preserves it, and the bases of its proper nonzero ideals."""
    if kind == "diagonal":
        n = rng.choice((2, 3))
        mats = [_matrix_unit(n, i, i) for i in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)  # permutes the idempotents
        g = [[F(int(perm[c] == r)) for c in range(n)] for r in range(n)]
        ideals = [[mats[i] for i in range(n) if mask >> i & 1] for mask in range(1, (1 << n) - 1)]
    elif kind == "dual":  # Q[N]/(N^2) as [[a, b], [0, a]]; diag(1, c) scales N
        mats = [mat_identity(2), _matrix_unit(2, 0, 1)]
        g = [[F(1), F(0)], [F(0), F(rng.choice((-3, -2, 2, 3)))]]
        ideals = [[mats[1]]]
    elif kind == "upper":  # conjugation by an invertible upper triangular matrix
        mats = [_matrix_unit(2, 0, 0), _matrix_unit(2, 0, 1), _matrix_unit(2, 1, 1)]
        g = [[F(rng.choice((1, 2, -1))), F(rng.randint(-2, 2))], [F(0), F(rng.choice((1, 3, -2)))]]
        ideals = [[mats[1]], [mats[0], mats[1]], [mats[1], mats[2]]]
    else:  # M_2(Q) is simple; any invertible g
        mats = [_matrix_unit(2, i, j) for i in range(2) for j in range(2)]
        g = random_invertible(rng, 2)
        ideals = []
    return mats, g, ideals


def random_invertible(rng, d):
    while True:
        m = [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        if dense_inverse(m) is not None:
            return m


def non_diagonal_system(kind, rng):
    """An automorphism system of `kind`, presented in a random basis
    f_i = sum_k b[k][i] m_k of the algebra, and its proper nonzero ideals."""
    mats, g, ideals = _algebra(kind, rng)
    d = len(mats)
    flat = [[m[r][c] for m in mats] for r in range(len(mats[0])) for c in range(len(mats[0]))]

    def coords(m):  # coordinates of a matrix of the algebra in the matrix basis
        return dense_solve(flat, [x for row in m for x in row], d)

    b = random_invertible(rng, d)
    b_inv = dense_inverse(b)

    def new_coords(m):
        return [sum(b_inv[i][k] * c for k, c in enumerate(coords(m))) for i in range(d)]

    f = [[[sum(b[k][i] * mats[k][r][c] for k in range(d)) for c in range(len(g))]
          for r in range(len(g))] for i in range(d)]
    mult = [[new_coords(matmul(fi, fj)) for fj in f] for fi in f]
    g_inv = dense_inverse(g)
    phi = [list(col) for col in zip(*[new_coords(matmul(matmul(g, fi), g_inv)) for fi in f])]
    ring = StructuredRing([f"f{i + 1}" for i in range(d)], mult)
    system = build_automorphism_system(ring, phi)
    system.name = f"{kind}-{d}"
    return system, [Subspace(d, [new_coords(m) for m in ideal]) for ideal in ideals]


# the system families the sparse builders are checked on against dense oracles
FAMILIES = ("graph", "permutation", "rebased", "non-diagonal")

# the seven graph presets, perm3, and psi-zero, where Delta^-1(F_P(Q)) = 0 and
# so no nonzero J is compatible
ORACLE_SYSTEMS = {
    "a2": lambda: build_graph_system(a2_graph()),
    "line3": lambda: build_graph_system(line_graph(3)),
    "3v2c": lambda: build_graph_system(three_vertex_two_cycle()),
    "cyc3": lambda: build_graph_system(cycle_graph(3)),
    "rose2": lambda: build_graph_system(rose_graph(2)),
    "rose3": lambda: build_graph_system(rose_graph(3)),
    "5v-mixed": lambda: build_graph_system(five_vertex_mixed()),
    "perm3": perm3_system,
    "psi-zero": psi_zero_system,
}


def family_system(family: str, rng: random.Random) -> RSystem:
    """A small random system of one of `FAMILIES`: a graph system, a
    permutation system, either of them with legs rebased (`rebased_legs`),
    or a `non_diagonal_system`."""
    if family == "graph":
        return build_graph_system(random_graph(rng, 4, 6))
    if family == "permutation":
        return random_permutation_system(rng, 4)
    if family == "rebased":
        base = build_graph_system(random_graph(rng, 4, 6)) if rng.random() < 0.5 else random_permutation_system(rng, 4)
        return rebased_legs(base, rng)
    return non_diagonal_system(rng.choice(("diagonal", "dual", "upper", "matrix")), rng)[0]


def random_graph_element(rng, system, ctx_free_degree=2):
    """Small random Toeplitz element over a graph system (used by several suites)."""
    from cprings import toeplitz

    x = toeplitz.ToeplitzElement(system)
    for _ in range(rng.randint(1, 4)):
        word = []
        for _ in range(rng.randint(0, ctx_free_degree)):
            kind = rng.choice(["Q", "P", "R"])
            if kind == "R":
                word.append(toeplitz.embed(system, "R", unit_vec(system.ring.dim, rng.randrange(system.ring.dim))))
            elif kind == "Q":
                word.append(toeplitz.embed(system, "Q", unit_vec(system.q.dim, rng.randrange(system.q.dim))))
            else:
                word.append(toeplitz.embed(system, "P", unit_vec(system.p.dim, rng.randrange(system.p.dim))))
        term = toeplitz.embed(system, "R", unit_vec(system.ring.dim, rng.randrange(system.ring.dim)))
        for w in word:
            term = toeplitz.toeplitz_mul(term, w)
        x = x.add(term.scale(F(rng.randint(-3, 3))))
    return x


# ---------------------------------------------------------------------------
# oracles and shorthands that the library itself does not need


def dense(cols, rows: int) -> list:
    """The rows x len(cols) matrix whose column c has the nonzero (index, value) pairs cols[c]."""
    out = [[F(0)] * len(cols) for _ in range(rows)]
    for c, col in enumerate(cols):
        for r, v in col:
            out[r][c] = v
    return out


def columns(mat) -> tuple:
    """The nonzero (row, value) pairs of each column of a dense matrix: the inverse of `dense`."""
    return tuple(tuple((r, F(v)) for r, v in enumerate(col) if v) for col in zip(*mat))


def basis_vector(space, label: str) -> list:
    """The coordinate vector of the basis element `label` of a ring or bimodule."""
    return unit_vec(space.dim, space.index(label))


def is_acyclic(graph) -> bool:
    """Has the graph no directed cycle?  A depth-first search that meets a
    vertex still on its stack has found one."""
    color = {v: 0 for v in graph.vertices}  # 0 unseen, 1 on the stack, 2 done

    def visit(v):
        color[v] = 1
        for e in graph.out_edges(v):
            if color[e.tgt] == 1 or color[e.tgt] == 0 and not visit(e.tgt):
                return False
        color[v] = 2
        return True

    return all(color[v] != 0 or visit(v) for v in graph.vertices)


def _all_paths(graph, max_len: int) -> list:
    """All forward paths of at most max_len edges, as (edge-name tuple, range
    vertex), the empty path at each vertex included."""
    out = [((), v) for v in graph.vertices]
    frontier = list(out)
    for _ in range(max_len):
        frontier = [(path + (e.name,), e.tgt) for path, v in frontier for e in graph.out_edges(v)]
        if not frontier:
            break
        out.extend(frontier)
    return out


def lpa_dim_upto(graph, max_len: int) -> int:
    """Number of Leavitt normal-form monomials x_alpha y_beta^* with
    |alpha| + |beta| <= max_len: alpha and beta share a range, and they do not
    both end in the special edge of its source (`graphalg.special_edge`)."""
    by_range: dict = {}
    for path, v in _all_paths(graph, max_len):
        by_range.setdefault(v, []).append(path)
    return sum(1 for plist in by_range.values() for alpha in plist for beta in plist
               if len(alpha) + len(beta) <= max_len
               and not (alpha and beta and alpha[-1] == beta[-1]
                        and special_edge(graph, graph.edge(alpha[-1]).src) == alpha[-1]))


def lpa_dim_total(graph) -> int | float:
    """Total dimension of the Leavitt path algebra; math.inf when a cycle
    exists.  An acyclic graph's paths have fewer edges than it has vertices,
    so `lpa_dim_upto` at twice that length counts every normal monomial."""
    if not is_acyclic(graph):
        return math.inf
    return lpa_dim_upto(graph, 2 * len(graph.vertices))


def right_annihilator(ring) -> Subspace:
    """{r in R : r R = 0} as a subspace: the common kernel of x -> x e_i."""
    units = mat_identity(ring.dim)
    rows = [row for e in units for row in mat_transpose([ring.multiply(x, e) for x in units])]
    return Subspace(ring.dim, dense_kernel(rows, ring.dim))


def random_unimodular(rng, n: int) -> list:
    """A random n x n integer matrix of determinant 1: the identity plus a
    few entries of +-1 below the diagonal of a random order of the basis,
    so each of its columns mixes several basis vectors, and its inverse is
    integral too."""
    order = list(range(n))
    rng.shuffle(order)
    out = [[int(r == c) for c in range(n)] for r in range(n)]
    for k, r in enumerate(order):
        for c in order[:k]:
            if rng.random() < 0.3:
                out[r][c] = rng.choice((-1, 1))
    return out


def rebased_legs(system, rng) -> RSystem:
    """The system with Q and P re-presented in random bases (`random_unimodular`,
    Q's first); the new basis vectors mostly span several corners e_t Q e_s."""
    return rebase_legs(system, random_unimodular(rng, system.q.dim), random_unimodular(rng, system.p.dim))


def rebase_legs(system, q_change, p_change) -> RSystem:
    """The system with Q and P re-presented in new bases: new basis vector a
    of a leg is sum_b A[b][a] m_b, for A = q_change on Q and p_change on P
    (invertible), so each action matrix M becomes A^-1 M A and
    psi(p'_a (x) q'_b) = sum B[c][a] A[e][b] psi(p_c (x) q_e)."""
    d = system.ring.dim
    change = {}
    for side, mod, a in (("Q", system.q, q_change), ("P", system.p, p_change)):
        a_inv = dense_inverse(a)

        def conj(maps, a=a, a_inv=a_inv, n=mod.dim):
            return [columns(matmul(a_inv, matmul(dense(cols, n), a))) if n else cols for cols in maps]

        change[side] = (a, StructuredBimodule([f"{x}'" for x in mod.labels], conj(mod.left), conj(mod.right)))
    (a, q), (b, p) = change["Q"], change["P"]
    table = [[[sum(b[c][i] * a[e][j] * system.psi.table[c][e][k]
                   for c in range(p.dim) for e in range(q.dim)) for k in range(d)]
              for j in range(q.dim)] for i in range(p.dim)]
    return RSystem(ring=system.ring, p=p, q=q, psi=Pairing(table), name=f"{system.name}'")


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def dense_balanced_quotient(a_right, a_dim: int, b_left, b_dim: int):
    """`tensorpow.balanced_quotient` by dense elimination: every nonzero
    balancing relation (a.r) (x) b - a (x) (r.b) as a dense row of the
    Kronecker coordinates, then `QuotientSpace(Subspace(n, rows))`."""
    n = a_dim * b_dim
    rows = []
    for a in range(a_dim):
        for cols_a, cols_b in zip(a_right, b_left):
            for b in range(b_dim):
                rel = _sum_nz([(1, [(x * b_dim + b, v) for x, v in cols_a[a]]),
                               (-1, [(a * b_dim + y, v) for y, v in cols_b[b]])])
                if rel:
                    rows.append(_dense(n, rel))
    return QuotientSpace(Subspace(n, rows))


def kron_vec(a, b):
    """Coordinates of a (x) b: index (i, j) -> i * len(b) + j."""
    return [x * y for x in a for y in b]


def kron(a, b):
    """Kronecker product acting on kron_vec coordinates: (A (x) B)(x (x) y) = Ax (x) By."""
    if not a or not b:
        return []
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def dense_rows(rows, n: int) -> list:
    """Rows kept as their nonzero (index, value) pairs, such as the theta
    table's, as dense vectors in Q^n."""
    return [_dense(n, row) for row in rows]


# dense references for the exact linear algebra: textbook Gauss-Jordan over
# Q on dense rows, sharing no code with `cprings.exactlin`


def dense_rref(rows):
    """(nonzero rows, pivot columns) of the reduced row echelon form; each
    elimination step updates a row by the pivot row's nonzero entries."""
    a = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        pivot_row = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        p = F(a[r][c])
        a[r] = [x / p if x != 0 else x for x in a[r]]
        support = [(j, y) for j, y in enumerate(a[r]) if y != 0]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f != 0:
                for j, y in support:
                    a[i][j] -= f * y
        pivots.append(c)
        r += 1
    return a[:r], pivots


def map_columns(rows, n: int) -> list:
    """The map Q^n -> Q^len(rows) whose matrix has these dense rows, as the
    form `exactlin.kernel`, `solve` and `preimage` take: one tuple of
    nonzero (index, value) pairs per column, the values as they are."""
    return [tuple((r, row[c]) for r, row in enumerate(rows) if row[c]) for c in range(n)]


def dense_solve(a, b, n: int):
    """One solution x in Q^n of A x = b (A given as its rows), every free
    unknown 0, read off the dense RREF of [A | b]; None if there is none."""
    red, pivots = dense_rref([[*row, y] for row, y in zip(a, b)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return x


def dense_inverse(m):
    """The inverse of the square matrix m, or None when m is singular: the
    right half of the dense RREF of [m | I]."""
    d = len(m)
    red, pivots = dense_rref([[*row, *(int(i == j) for j in range(d))] for i, row in enumerate(m)])
    if pivots[:d] != list(range(d)):
        return None
    return [row[d:] for row in red]


def dense_kernel(rows, n: int) -> list:
    """A basis of the null space in Q^n of the matrix with these rows, one
    vector per free column of its dense RREF."""
    red, pivots = dense_rref(rows)
    out = []
    for f in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[f] = F(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        out.append(v)
    return out


def dense_preimage(a, w: Subspace, n: int) -> Subspace:
    """{x in Q^n : A x in W} (A given as its rows): the x-parts of the null
    space of (x, y) |-> A x - sum y_j w_j over the basis rows w_j of W."""
    ws = w.basis()
    ker = dense_kernel([[*row, *(-v[i] for v in ws)] for i, row in enumerate(a)], n + len(ws))
    return Subspace(n, [v[:n] for v in ker])


def _theta_table_matrix(system, side, level, g, h):
    """Row g * dim(other side) + h of the theta table, flattened column by
    column, as a matrix."""
    d = tensor_space(system, side, level).dim
    other = tensor_space(system, "P" if side == "Q" else "Q", level).dim
    [row] = dense_rows([theta_table(system, side, level)[g * other + h]], d * d)
    return [[row[c * d + r] for c in range(d)] for r in range(d)]


def theta_matrix(system, level, q_index, p_index):
    """Matrix of theta_{e_q, e_p} on Q^(x)level."""
    return _theta_table_matrix(system, "Q", level, q_index, p_index)


def theta_matrix_p(system, level, p_index, q_index):
    """Matrix of the opposite-leg rank-one y |-> psi_n(y (x) e_q) . e_p on P^(x)level."""
    return _theta_table_matrix(system, "P", level, p_index, q_index)


@dataclass(frozen=True)
class ModuleElement:
    """An element of P^(x)n or Q^(x)n in canonical level coordinates."""

    system: RSystem
    side: str
    level: int
    coords: tuple

    def add(self, other: "ModuleElement") -> "ModuleElement":
        if (self.system, self.side, self.level) != (other.system, other.side, other.level):
            raise ValueError("elements live in different tensor spaces")
        return ModuleElement(self.system, self.side, self.level, tuple(vec_add(self.coords, other.coords)))

    def scale(self, c) -> "ModuleElement":
        return ModuleElement(self.system, self.side, self.level, tuple(vec_scale(c, self.coords)))


def basis_element(system, side, level, index) -> ModuleElement:
    sp = tensor_space(system, side, level)
    return ModuleElement(system, side, level, tuple(unit_vec(sp.dim, index)))


def word_class(system, side, word) -> tuple:
    """Level coordinates of the class of e_w1 (x) ... (x) e_wn for word = (w1..wn)."""
    out = [F(0)] * tensor_space(system, side, len(word)).dim
    for t, v in _word_nz(system, side, word):
        out[t] = v
    return tuple(out)


def path_element(system, side, labels) -> ModuleElement:
    """Concatenate level-1 basis elements named by labels (left to right)."""
    mod = system.q if side == "Q" else system.p
    if not labels:
        raise ValueError("empty label path")
    word = tuple(mod.index(lab) for lab in labels)
    return ModuleElement(system, side, len(word), word_class(system, side, word))


def concat_class(system, side, k, u, l, w) -> list:
    """Level-(k + l) coordinates of the class of u (x) w, u at level k and w at
    level l: the sum, over the nonzeros u_x w_y, of the classes of the
    concatenated words (the module action when a factor has level 0, ring
    multiplication for k = l = 0)."""
    if k == 0 and l == 0:
        return system.ring.multiply(u, w)
    if l == 0:
        return tensor_space(system, side, k).act_right(u, w)
    if k == 0:
        return tensor_space(system, side, l).act_left(u, w)
    words_k = tensor_space(system, side, k).words
    words_l = tensor_space(system, side, l).words
    out = [F(0)] * tensor_space(system, side, k + l).dim
    for x, ux in _nonzeros(u):
        for y, wy in _nonzeros(w):
            for t, v in _word_nz(system, side, words_k[x] + words_l[y]):
                out[t] += ux * wy * v
    return out


def module_tensor(x, y) -> ModuleElement:
    """x (x) y for two elements of one leg of one system."""
    coords = concat_class(x.system, x.side, x.level, x.coords, y.level, y.coords)
    return ModuleElement(x.system, x.side, x.level + y.level, tuple(coords))


def finite_rank_space(system) -> Subspace:
    """F_P(Q), the span of the level-1 rank-one operators on Q, as flattened matrices."""
    d = system.q.dim
    return Subspace(d * d, dense_rows(theta_table(system, "Q", 1), d * d))


def fock_is_zero(x, cap: int = DEFAULT_CAP) -> bool:
    """Exact zero test through the Fock representation.

    Testing domain levels j = 0..max_n(x) suffices: a nonzero component of
    minimal n in its z-degree acts nontrivially on Q^(x)n already (the lower
    levels cannot interfere, and higher components kill them).  Raises
    CapExceeded, before any work, when one of those blocks lands above cap.
    """
    _check_fock_cap(x, x.max_n_degree(), cap)
    return not any(fock_apply(x, j, cap=cap) for j in range(x.max_n_degree() + 1))


def relation_generators(ctx, k: int, l: int) -> list:
    """The nonzero spanning elements iota_Q^k(q) (iota_R(x) - pi(Delta(x)))
    iota_P^l(p) of T(J), x over J's basis, q and p over the level bases."""
    system = ctx.system
    qs, ps = tensor_space(system, "Q", k), tensor_space(system, "P", l)
    out = []
    for x in ctx.j.ideal.basis():
        core = _core_generator(ctx, x)
        for a in range(qs.dim) if k else [None]:
            left = core if a is None else toeplitz_mul(
                embed_n(system, "Q", k, unit_vec(qs.dim, a)), core, cap=ctx.cap)
            for b in range(ps.dim) if l else [None]:
                g = left if b is None else toeplitz_mul(
                    left, embed_n(system, "P", l, unit_vec(ps.dim, b)), cap=ctx.cap)
                if not g.is_zero():
                    out.append(g)
    return out


class ZeroScalar(ValueError):
    """The gauge action is only defined for nonzero scalars."""


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
    return ToeplitzElement(x.system, {(m, n): [frac(Fraction(t) ** (n - m)) * c for c in x.component((m, n))]
                                      for (m, n) in x.support()})


def homogeneous_components(evaluations, degrees) -> dict:
    """Recover z-homogeneous parts from gauge evaluations (Vandermonde solve):
    an independent oracle for `toeplitz.z_project`.

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
    n = len(degrees)
    if len(ts) < n:
        raise ValueError("need at least one evaluation per candidate degree")
    elems = [e for _, e in evaluations][:n]
    vand = [[frac(Fraction(ts[i]) ** (-degrees[j])) for j in range(n)] for i in range(n)]
    inv = dense_inverse(vand)
    if inv is None:
        raise ValueError("evaluation points do not separate the degrees")
    out = {}
    for j, k in enumerate(degrees):
        acc = elems[0].scale(0)
        for i in range(n):
            if inv[j][i]:
                acc = acc.add(elems[i].scale(inv[j][i]))
        out[k] = acc
    return out


def span_reading_j(system, rep) -> Subspace:
    """sigma^-1(span{T(q) S(p)}) for a valid matrix representation, all of R
    at dimension 0: the reading of J_(S,T,sigma) that asks only that sigma(x)
    be a sum of T(q) S(p).  Under (FS) it is the ideal `cpring.extract_j`
    reads off the covariance defect."""
    assert check_representation(system, rep) == []
    d = system.ring.dim
    if not rep.dim:
        return Subspace.full(d)

    def flat(m):
        return [v for row in m.rows for v in row]

    sigma = mat_transpose([flat(rep.sigma(unit_vec(d, r))) for r in range(d)])
    dq, dp = system.q.dim, system.p.dim
    span = Subspace(rep.dim * rep.dim, [flat(rep.t(unit_vec(dq, a)) * rep.s(unit_vec(dp, b)))
                                        for a in range(dq) for b in range(dp)])
    return dense_preimage(sigma, span, d)


def quotient_graph(graph, h) -> FiniteGraph:
    """The graph of the quotient by the ideal of a hereditary saturated H."""
    hs = frozenset(h)
    if not is_hereditary_saturated(graph, hs):
        raise ValueError("H is not hereditary and saturated")
    return restriction_graph(graph, hs)


def tpair_le(a, b) -> bool:
    """The componentwise order (I, J) <= (I', J') of two T-pairs, by
    `Subspace.le`; `ideals.lattice_json` decides it on coordinate masks."""
    return a.i.le(b.i) and a.j.le(b.j)


def tpair_meet(a, b):
    """The componentwise meet (I meet I', J meet J') of two T-pairs."""
    from cprings.ideals import TPair

    return TPair(a.i.intersect(b.i), a.j.intersect(b.j))


def project_into_quotient(qs, space) -> Subspace:
    """The image in R/I of a subspace of R, for R/I = `qs.system`."""
    return Subspace(qs.system.ring.dim, [project(qs.quot_r, b) for b in space.basis_nz()])


def delta_pullbacks_oracle(system, i) -> tuple:
    """(K_I, D_I) computed in R/I: the Delta ideals (ker Delta,
    Delta^-1(F_P(Q))) of `quotient_system(system, I)`, lifted back to R and
    added to I.  Class t of R/I is that of e_free[t], so the vector of R
    carrying a class's coordinates at the free coordinates lifts it, and the
    preimage of a subspace of R/I is the span of its rows' lifts plus I.
    `finrank.delta_ideals(system, I)` reads the same ideals in R."""
    qs = quotient_system(system, i)
    d, at = i.ambient, {f: t for t, f in enumerate(qs.quot_r.free)}

    def pull_back(space):
        lifts = [[row[at[c]] if c in at else 0 for c in range(d)] for row in space.rows]
        return Subspace(d, lifts + i.basis())

    return tuple(pull_back(space) for space in delta_ideals(qs.system))


def delta_ideals_oracle(system, i) -> tuple:
    """(K_I, D_I) by elimination, with no appeal to (FS): the kernel of
    Delta's residuals modulo QI, and the preimage under them of the span of
    the floored theta table.  `finrank.delta_ideals` takes D_I = R whenever
    R has (FS) on Q, and must agree."""
    d, n = system.ring.dim, system.q.dim ** 2
    dmap = mat_transpose(dense_rows(_delta_columns(system, i), n))  # r |-> Delta(r) modulo QI, n x d
    thetas = Subspace(n, dense_rows(_floored_thetas(system, "Q", 1, i), n))
    return Subspace(d, dense_kernel(dmap, d)), dense_preimage(dmap, thetas, d)


def tpair_flags_oracle(system, i, j) -> dict:
    """The flags of the candidate T-pair (I, J), each computed directly:
    two-sidedness of I and of J by `is_two_sided`, psi-invariance of a
    two-sided I by testing every psi(e_a (x) x.e_b), x a basis row of I, and
    J's quotient flags as `validate_ideal` of its image in
    `quotient_system(system, I)`.  `ideals.validate_tpair` and
    `ideals.enumerate_tpairs` must give the same flags."""
    q, p = system.q, system.p
    i_two_sided = is_two_sided(system, i)
    invariant = i_two_sided and all(
        i.contains(psi_apply(system, 1, unit_vec(p.dim, a), q.act_left(x, unit_vec(q.dim, b))))
        for x in i.basis() for b in range(q.dim) for a in range(p.dim))
    flags = {"i_two_sided": i_two_sided, "i_in_j": i.le(j),
             "j_two_sided": is_two_sided(system, j), "i_psi_invariant": invariant}
    jq = None
    if invariant:
        qs = quotient_system(system, i)
        jq = validate_ideal(qs.system, project_into_quotient(qs, j))
    flags["quotient_two_sided"] = jq is not None and jq.is_two_sided
    flags["quotient_compatible"] = jq is not None and jq.is_psi_compatible
    flags["quotient_faithful"] = jq is not None and jq.is_faithful
    return flags


def tpair_quotient_flags_oracle(system, i, j) -> dict:
    """J's three quotient flags computed in R/I (`cpring.validate_ideal`
    with the floor I reads them in R): J/I is the projection of J's basis into
    `quotient_system(system, I)`; it is two-sided when J is or when
    `is_two_sided` says so over R/I, compatible when it lies in
    Delta^-1(F_P(Q)) of R/I, faithful when it meets ker Delta of R/I in 0.
    All three are false unless I is two-sided and psi-invariant."""
    if not (is_two_sided(system, i) and is_psi_invariant(system, i)):
        return dict.fromkeys(("quotient_two_sided", "quotient_compatible", "quotient_faithful"), False)
    qs = quotient_system(system, i)
    jq = project_into_quotient(qs, j)
    ker_delta, delta_inv = delta_ideals(qs.system)
    return {"quotient_two_sided": is_two_sided(system, j) or is_two_sided(qs.system, jq),
            "quotient_compatible": jq.le(delta_inv),
            "quotient_faithful": jq.intersect(ker_delta).is_zero()}


def enumerate_tpairs_oracle(system) -> list:
    """All T-pairs over a diagonal ring by exhaustive search over the 2^d
    coordinate spans: for each I in mask order, every span J containing I,
    in mask order, kept when `ideals.validate_tpair` accepts the pair (which
    raises NotInvariant when a psi-invariant I does not let R/I act on the
    quotient legs).  `ideals.enumerate_tpairs` must give the same pairs, in
    the same order, with the same flags."""
    d = system.ring.dim
    spans = [Subspace(d, [unit_vec(d, t) for t in range(d) if mask >> t & 1]) for mask in range(1 << d)]
    pairs = (validate_tpair(system, i, j) for imask, i in enumerate(spans)
             for jmask, j in enumerate(spans) if jmask & imask == imask)
    return [pair for pair in pairs if pair.ok]


def hasse_edges_oracle(le) -> list:
    """Covering pairs [a, b] of le, in index order, by the triple loop: a
    related pair is an edge unless some third c has le[a][c] and le[c][b].
    `ideals.hasse_edges` must give the same list."""
    n = len(le)
    edges = []
    for a in range(n):
        for b in range(n):
            if a == b or not le[a][b]:
                continue
            if any(c != a and c != b and le[a][c] and le[c][b] for c in range(n)):
                continue
            edges.append([a, b])
    return edges


def _compose(outer, inner) -> tuple:
    """The columns of outer . inner, both given by their columns' nonzeros."""
    return tuple(_sum_nz((v, outer[y]) for y, v in col) for col in inner)


def _fock_leg_block(system, side, level, idx, j, memo):
    """Block of T^level(e_idx) (side Q) or S^level(e_idx) (side P, level <= j)
    from Q^(x)j, as (level it lands on, columns).

    T^level(e_idx) prepends idx's word: column c is the class of
    words[idx] + words[c], and from level 0 the class of e_idx . e_c.
    S(e_p) contracts the first letter, e_w0 (x) rest |-> psi(e_p (x) e_w0) . rest.
    Basis class idx of P^level is the class of e_a (x) e_b (its basis pair), so
    S^level(e_idx) = S^(level-1)(e_a) S(e_b), with S(e_b) acting first: the
    block of each prefix of idx's word is composed with that of the next letter.
    """
    key = (side, level, idx, j)
    if key not in memo:
        if side == "Q":
            if j == 0:
                right = tensor_space(system, "Q", level).right
                blk = tuple(right[c][idx] for c in range(system.ring.dim))
            else:
                word = tensor_space(system, "Q", level).words[idx]
                blk = tuple(_word_nz(system, "Q", word + w) for w in tensor_space(system, "Q", j).words)
            memo[key] = (j + level, blk)
        elif level == 1:
            psi = system.psi._table_nz
            if j == 1:
                blk = psi[idx]  # straight into the vacuum level: S(p)(q) = psi(p (x) q)
            else:
                dst = tensor_space(system, "Q", j - 1)
                blk = tuple(_sum_nz((ri * v, dst.left[i][x]) for i, ri in psi[idx][w[0]]
                                    for x, v in _word_nz(system, "Q", w[1:]))
                            for w in tensor_space(system, "Q", j).words)
            memo[key] = (j - 1, blk)
        else:
            a, b = divmod(tensor_space(system, "P", level).quot.free[idx], system.p.dim)
            mid, last = _fock_leg_block(system, "P", 1, b, j, memo)
            out, first = _fock_leg_block(system, "P", level - 1, a, mid, memo)
            memo[key] = (out, _compose(first, last))
    return memo[key]


def fock_oracle(x, j) -> dict:
    """`toeplitz.fock_apply(x, j)` composed leg by leg instead of multiplied:
    for the basis pair (a, b) of a class of grade (m, n <= j), S^n(e_b) acts
    first, then T^m(e_a); the ring grade acts by its left action on Q^(x)j."""
    system = x.system
    src = tensor_space(system, "Q", j)
    memo: dict = {}
    acc: dict = {}  # j_out -> one {index: value} per column

    def bump(j_out, blk, c):
        for col, nz in zip(acc.setdefault(j_out, [{} for _ in range(src.dim)]), blk):
            for r, v in nz:
                col[r] = col.get(r, F(0)) + c * v

    for (m, n), v in sorted(x.comps.items()):
        if n > j:
            continue
        if m == 0 and n == 0:
            bump(j, src.left_map(list(x.component((0, 0)))), 1)
            continue
        free = component_space(system, m, n).quot.free if m and n else None
        d_p = tensor_space(system, "P", n).dim
        for idx, c in v:
            a, b = divmod(free[idx], d_p) if m and n else (idx, idx)
            js, blk = _fock_leg_block(system, "P", n, b, j, memo) if n else (j, None)
            if m:
                js, tblk = _fock_leg_block(system, "Q", m, a, js, memo)
                blk = tblk if blk is None else _compose(tblk, blk)
            bump(js, blk, c)
    blocks = {k: tuple(tuple(sorted((r, y) for r, y in col.items() if y)) for col in cols)
              for k, cols in acc.items()}
    return {k: blk for k, blk in blocks.items() if any(blk)}


class QuotientHandle:
    """The graded ideal H_(I,J) of a T-pair decided in a second system:
    project an element into the Toeplitz ring of R/I and test it against
    T(J/I) there.  `ideals.IdealHandle` decides the same membership on the
    parent's own Fock blocks; this is its oracle."""

    def __init__(self, ctx, tpair):
        self.context = ctx
        self.quotient = qs = quotient_system(ctx.system, tpair.i)
        jq = validate_ideal(qs.system, project_into_quotient(qs, tpair.j))
        self.qctx = CpContext(qs.system, jq, cap=ctx.cap)
        self._level_maps, self._comp_maps = {}, {}

    def _level_map(self, side, n) -> list:
        """Columns of the map from level n of the parent to level n of the
        quotient: column t is the quotient class of parent basis class t.

        The class of e_a (x) e_b is that of (image of e_a) (x) (image of e_b);
        maps[side][k] is the map of level k, built level by level.
        """
        qs = self.quotient
        maps = self._level_maps.setdefault(side, [])
        while len(maps) <= n:
            k = len(maps)
            if k <= 1:
                quot = qs.quot_r if k == 0 else qs.quot_q if side == "Q" else qs.quot_p
                maps.append([project(quot, [(c, ONE)]) for c in range(quot.ambient)])
            else:
                d = len(maps[1])
                maps.append([_project_kron(tensor_space(qs.system, side, k).quot, maps[-1][f // d], maps[1][f % d])
                             for f in tensor_space(self.context.system, side, k).quot.free])
        return maps[n]

    def _comp_map(self, m, n) -> list:
        """Columns of the map from grade (m, n) of the parent to grade (m, n)
        of the quotient."""
        if (m, n) not in self._comp_maps:
            src = component_space(self.context.system, m, n)
            dst = component_space(self.quotient.system, m, n)
            if n == 0:
                out = self._level_map("Q", m)
            elif m == 0:
                out = self._level_map("P", n)
            elif dst.dim == 0 or src.dim == 0:
                out = [[] for _ in range(src.dim)]
            else:
                qm, pn = self._level_map("Q", m), self._level_map("P", n)
                out = [_project_kron(dst.quot, qm[f // len(pn)], pn[f % len(pn)]) for f in src.quot.free]
            self._comp_maps[(m, n)] = out
        return self._comp_maps[(m, n)]

    def project_element(self, x) -> ToeplitzElement:
        comps = {}
        for (m, n), v in x.comps.items():
            cols = self._comp_map(m, n)
            mapped = zero_vec(component_space(self.quotient.system, m, n).dim)
            for c, coef in v:
                for t, y in _nonzeros(cols[c]):
                    mapped[t] += coef * y
            if any(mapped):
                comps[(m, n)] = mapped
        return ToeplitzElement(self.quotient.system, comps)

    def contains(self, x) -> bool:
        return in_relation_ideal(self.qctx, self.project_element(x))


class ArgparseUsage(Exception):
    """The argparse oracle refused a command line."""


class ArgparseHelp(Exception):
    """The argparse oracle answered a command line with its help text."""


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgparseUsage(message)

    def print_help(self, file=None):
        raise ArgparseHelp(self.format_help())


def _oracle_nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# each verb's EXPR operands, written out here so that the oracle does not read the table it checks
ORACLE_EXPRS = {"validate": 0, "mul": 2, "eq": 2, "nf": 1, "fs": 0, "jmax": 0, "lattice": 0, "tpair": 0,
                "quotient": 0, "compare": 0, "gauge-split": 1}


@functools.lru_cache(maxsize=None)
def argparse_oracle() -> argparse.ArgumentParser:
    """The `cpr` command line as the argparse subparsers that read it before
    the verb table did: `cli._parse_argv`'s differential oracle."""
    ap = _OracleParser(prog="cpr", add_help=True)
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, n_exprs in ORACLE_EXPRS.items():
        sp = sub.add_parser(verb)
        sp.add_argument("file", help="system or graph JSON")
        if n_exprs:
            sp.add_argument("exprs", nargs=n_exprs, metavar="EXPR")
        sp.add_argument("--cap", type=_oracle_nonnegative_int, default=DEFAULT_CAP,
                        help="highest tensor level a product or membership test may create")
        sp.add_argument("--format", choices=("json", "dot", "table"), default="json")
        if verb == "eq":
            sp.add_argument("--ring", choices=("cp", "toeplitz"), default="cp")
            sp.add_argument("--j", default="jmax", help="ideal spec: labels, zero, full, jmax")
        if verb == "nf":
            sp.add_argument("--backend", choices=("auto", "toeplitz", "lpa"), default="auto")
        if verb in ("tpair", "quotient"):
            sp.add_argument("--i", default="", help="ideal spec for I")
        if verb == "tpair":
            sp.add_argument("--j", default="", help="ideal spec for J")
        if verb == "compare":
            sp.add_argument("--words", type=_oracle_nonnegative_int, default=40,
                            help="random pairs to test")
            sp.add_argument("--seed", type=int, default=0, help="seed of the random pairs")
    return ap


def parse_argv_oracle(argv):
    """("ok", namespace dict), ("help", text) or ("usage", message): how the
    argparse oracle reads argv."""
    try:
        return "ok", vars(argparse_oracle().parse_args(list(argv)))
    except ArgparseHelp as exc:
        return "help", str(exc)
    except ArgparseUsage as exc:
        return "usage", str(exc)


@pytest.fixture
def a2():
    return a2_graph()


@pytest.fixture
def line3():
    return line_graph(3)


@pytest.fixture
def rose1():
    return rose_graph(1)


@pytest.fixture
def cyc2():
    return cycle_graph(2)


@pytest.fixture
def mixed5():
    return five_vertex_mixed()


@pytest.fixture
def a2_system():
    return build_graph_system(a2_graph())


@pytest.fixture
def line3_system():
    return build_graph_system(line_graph(3))


@pytest.fixture
def perm3():
    return perm3_system()
