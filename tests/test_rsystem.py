import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    a2_graph,
    basis_vector,
    columns,
    corner_bimodules_json,
    dense,
    dense_inverse,
    diagonal_ring,
    dual_numbers_ring,
    five_vertex_mixed,
    idempotent_plus_null_json,
    killed_vector_json,
    left_unit_json,
    matrix2_ring,
    non_diagonal_system,
    perm3_system,
    psi_zero_system,
    random_graph,
    random_permutation_system,
    right_annihilator,
    square_into_ideal_json,
    square_zero_json,
    three_vertex_two_cycle,
    mat_identity,
    mat_transpose,
)
from cprings import finrank, rsystem
from cprings.exactlin import Subspace, _nonzeros, unit_vec, zero_vec
from cprings.graphalg import cycle_graph, line_graph, rose_graph
from cprings.rsystem import (
    Pairing,
    RSystem,
    StructuredBimodule,
    StructuredRing,
    ValidationReport,
    build_automorphism_system,
    build_graph_system,
    corner_graph,
    is_two_sided,
    system_from_json,
    system_to_json,
    validate_axioms,
)
from cprings.tensorpow import psi_apply, tensor_space

F = Fraction


def test_graph_system_a2_structure():
    sys = build_graph_system(a2_graph())
    assert sys.ring.dim == 2 and sys.q.dim == 1 and sys.p.dim == 1
    u = basis_vector(sys.ring, "u")
    v = basis_vector(sys.ring, "v")
    e = basis_vector(sys.q, "e")
    ebar = basis_vector(sys.p, "e")
    # source acts on the left of an edge, range on the right
    assert sys.q.act_left(u, e) == e
    assert sys.q.act_left(v, e) == zero_vec(1)
    assert sys.q.act_right(e, v) == e
    assert sys.q.act_right(e, u) == zero_vec(1)
    # reversed edge: range acts on the left, source on the right
    assert sys.p.act_left(v, ebar) == ebar
    assert sys.p.act_left(u, ebar) == zero_vec(1)
    assert sys.p.act_right(ebar, u) == ebar
    # contraction lands on the range idempotent
    assert psi_apply(sys, 1, ebar, e) == v


def test_graph_system_axioms_pass():
    rep = validate_axioms(build_graph_system(a2_graph()))
    assert rep.ok and not rep.failures and rep.checks > 0


def test_validate_catches_broken_ring():
    ring = diagonal_ring(2)
    # break associativity: e1*e1 = e2 while everything else stays orthogonal
    bad = [list(map(list, row)) for row in ring.mult]
    bad[0][0] = unit_vec(2, 1)
    broken = StructuredRing(ring.labels, bad)
    sys = build_graph_system(a2_graph())
    from cprings.rsystem import RSystem

    tampered = RSystem(ring=broken, p=sys.p, q=sys.q, psi=sys.psi, name="broken")
    rep = validate_axioms(tampered)
    assert not rep.ok
    assert any("associativity" in f for f in rep.failures)


def test_validate_catches_unbalanced_psi():
    sys = build_graph_system(a2_graph())
    from cprings.rsystem import Pairing, RSystem

    # psi(ebar (x) e) = u instead of v: breaks balancedness/linearity
    bad = Pairing([[unit_vec(2, 0)]])
    tampered = RSystem(ring=sys.ring, p=sys.p, q=sys.q, psi=bad, name="badpsi")
    rep = validate_axioms(tampered)
    assert not rep.ok
    assert any("psi" in f for f in rep.failures)


def test_automorphism_system_perm3():
    sys = perm3_system()
    rep = validate_axioms(sys)
    assert rep.ok, rep.failures
    # psi(p_i (x) q_j) = e_i phi(e_j) = [i == pi(j)] e_i, phi: e1->e2->e3->e1
    assert psi_apply(sys, 1, unit_vec(3, 1), unit_vec(3, 0)) == unit_vec(3, 1)
    assert psi_apply(sys, 1, unit_vec(3, 0), unit_vec(3, 0)) == zero_vec(3)


def test_automorphism_rejects_non_automorphisms():
    ring = diagonal_ring(2)
    with pytest.raises(ValueError):
        build_automorphism_system(ring, [[1, 0], [0, 0]])  # singular
    with pytest.raises(ValueError):
        build_automorphism_system(ring, [[1, 0], [1, 1]])  # not multiplicative


def test_right_nondegenerate_graph_and_degenerate_ring():
    # right-nondegenerate: r R = 0 implies r = 0
    assert right_annihilator(build_graph_system(a2_graph()).ring).is_zero()
    # square-zero one-dimensional ring: x * R = 0
    ring = StructuredRing(["x"], [[zero_vec(1)]])
    sys = build_graph_system(a2_graph())
    from cprings.rsystem import RSystem, StructuredBimodule, Pairing

    dummy_mod = StructuredBimodule(["m"], [[()]], [[()]])
    degenerate = RSystem(ring=ring, p=dummy_mod, q=dummy_mod, psi=Pairing([[zero_vec(1)]]), name="sq0")
    assert not right_annihilator(degenerate.ring).is_zero()
    assert right_annihilator(ring).dim == 1


def test_ring_actions_match_mult():
    """The ring is an `_Actions` read off its table: left[i][a] is e_i e_a and
    right[i][a] is e_a e_i, and level 0 of each leg is the ring itself."""
    systems = [
        build_automorphism_system(diagonal_ring(3), mat_identity(3)),
        build_automorphism_system(dual_numbers_ring(), mat_identity(2)),
        build_automorphism_system(matrix2_ring(), mat_identity(4)),
        perm3_system(),
        psi_zero_system(),
        build_graph_system(five_vertex_mixed()),
    ]
    for sys in systems:
        ring, n = sys.ring, sys.ring.dim
        vec = lambda col: [row[0] for row in dense([col], n)]
        r = [F(k + 1, 2) for k in range(n)]
        for a in range(n):
            for i in range(n):
                assert vec(ring.left[i][a]) == list(ring.mult[i][a])
                assert vec(ring.right[i][a]) == list(ring.mult[a][i])
                assert ring.act_left(unit_vec(n, i), unit_vec(n, a)) == list(ring.mult[i][a])
                assert ring.act_right(unit_vec(n, a), unit_vec(n, i)) == list(ring.mult[a][i])
            # r e_a and e_a r, summed from the table
            assert vec(ring.left_map(r)[a]) == [sum((r[i] * ring.mult[i][a][k] for i in range(n)), F(0))
                                                for k in range(n)]
            assert vec(ring.right_map(r)[a]) == [sum((r[i] * ring.mult[a][i][k] for i in range(n)), F(0))
                                                 for k in range(n)]
        for side in ("P", "Q"):
            level0 = tensor_space(sys, side, 0)
            assert level0.left is ring.left and level0.right is ring.right


def test_bimodule_rejects_bad_column_indices():
    """The constructor takes columns and checks each index against the basis."""
    one = F(1)
    for bad in ([[((1, one),)]], [[((-1, one),)]], [[((True, one),)]], [[((0, one),), ()]], [[]]):
        with pytest.raises(ValueError):
            StructuredBimodule(["m"], bad, [[()]])
        with pytest.raises(ValueError):
            StructuredBimodule(["m"], [[()]], bad)
    mod = StructuredBimodule(["m"], [[((0, one),)]], [[()]])
    assert mod.act_left([one], [one]) == [one] and mod.act_right([one], [one]) == [F(0)]


def test_is_two_sided_needs_both_sides():
    """In M_2(Q) (basis e11, e12, e21, e22) a column is a left ideal only and a
    row a right ideal only; 0 and M_2(Q) are two-sided."""
    sys = build_automorphism_system(matrix2_ring(), mat_identity(4))
    e = lambda k: unit_vec(4, k)
    assert not is_two_sided(sys, Subspace(4, [e(0), e(2)]))  # first column: M x stays, x M leaves
    assert not is_two_sided(sys, Subspace(4, [e(0), e(1)]))  # first row
    assert is_two_sided(sys, Subspace(4)) and is_two_sided(sys, Subspace.full(4))


def test_psi_zero_system_is_valid():
    rep = validate_axioms(psi_zero_system())
    assert rep.ok


def test_json_roundtrip_graph_system():
    sys = build_graph_system(a2_graph())
    data = system_to_json(sys)
    back = system_from_json(data)
    assert back.ring.labels == sys.ring.labels
    assert back.ring.mult == sys.ring.mult
    assert back.p.left == sys.p.left and back.p.right == sys.p.right
    assert back.q.left == sys.q.left and back.q.right == sys.q.right
    assert back.psi.table == sys.psi.table


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_graph_systems_validate(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_v=4, max_e=6)
    sys = build_graph_system(g)
    rep = validate_axioms(sys)
    assert rep.ok, (g, rep.failures)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_permutation_systems_validate(seed):
    rng = random.Random(seed)
    sys = random_permutation_system(rng, max_n=4)
    rep = validate_axioms(sys)
    assert rep.ok, rep.failures


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_json_roundtrip_random(seed):
    rng = random.Random(seed)
    sys = random_permutation_system(rng, max_n=4)
    back = system_from_json(system_to_json(sys))
    assert back.psi.table == sys.psi.table
    assert back.ring.mult == sys.ring.mult


def reference_validate_axioms(system):
    """validate_axioms computed by applying the structure maps to unit vectors."""
    failures, count = [], [0]
    ring, n = system.ring, system.ring.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = ring.multiply(ring.mult[i][j], unit_vec(n, k))
                rhs = ring.multiply(unit_vec(n, i), ring.mult[j][k])
                count[0] += 1
                if lhs != rhs:
                    failures.append(
                        f"ring: associativity fails at ({ring.labels[i]},{ring.labels[j]},{ring.labels[k]})"
                    )
    for tag, mod in (("P", system.p), ("Q", system.q)):
        units = [unit_vec(mod.dim, a) for a in range(mod.dim)]
        for i in range(n):
            ei = unit_vec(n, i)
            for j in range(n):
                ej, eij = unit_vec(n, j), list(ring.mult[i][j])
                checks = (
                    ("left action not associative",
                     lambda m: mod.act_left(ei, mod.act_left(ej, m)), lambda m: mod.act_left(eij, m)),
                    ("right action not associative",
                     lambda m: mod.act_right(mod.act_right(m, ei), ej), lambda m: mod.act_right(m, eij)),
                    ("actions do not commute",
                     lambda m: mod.act_right(mod.act_left(ei, m), ej), lambda m: mod.act_left(ei, mod.act_right(m, ej))),
                )
                for what, lhs, rhs in checks:
                    count[0] += 1
                    if any(lhs(m) != rhs(m) for m in units):
                        failures.append(f"{tag}: {what} at ({ring.labels[i]},{ring.labels[j]})")
    psi, p, q = system.psi, system.p, system.q

    def pair(x, y):
        return psi_apply(system, 1, x, y)

    if len(psi.table) != p.dim or any(len(row) != q.dim for row in psi.table):
        failures.append("psi: table shape does not match module bases")
    else:
        for i in range(n):
            e = unit_vec(n, i)
            for a in range(p.dim):
                pa = unit_vec(p.dim, a)
                for b in range(q.dim):
                    qb = unit_vec(q.dim, b)
                    checks = (
                        ("not balanced", pair(p.act_right(pa, e), qb), pair(pa, q.act_left(e, qb))),
                        ("not left linear", pair(p.act_left(e, pa), qb), ring.multiply(e, pair(pa, qb))),
                        ("not right linear", pair(pa, q.act_right(qb, e)), ring.multiply(pair(pa, qb), e)),
                    )
                    for what, lhs, rhs in checks:
                        count[0] += 1
                        if lhs != rhs:
                            failures.append(f"psi: {what} at ({ring.labels[i]},p{a},q{b})")
    return ValidationReport(ok=not failures, failures=failures, checks=count[0])


def _tampered(system, rng):
    """A copy of `system` with one to three structure constants overwritten."""
    tables = {
        "mult": [[list(cell) for cell in row] for row in system.ring.mult],
        "psi": [[list(cell) for cell in row] for row in system.psi.table],
    }
    for leg in ("p", "q"):
        mod = getattr(system, leg)
        for side in ("left", "right"):
            tables[leg + side] = [dense(cols, mod.dim) for cols in getattr(mod, side)]
    for _ in range(rng.randint(1, 3)):
        cells = [row for table in tables.values() for block in table for row in block if row]
        if not cells:
            break
        row = rng.choice(cells)
        row[rng.randrange(len(row))] = rng.choice([F(0), F(1), F(-1), F(1, 2), F(2)])
    ring = StructuredRing(system.ring.labels, tables["mult"])
    cols = {key: [columns(m) for m in tables[key]] for key in ("pleft", "pright", "qleft", "qright")}
    p = StructuredBimodule(system.p.labels, cols["pleft"], cols["pright"])
    q = StructuredBimodule(system.q.labels, cols["qleft"], cols["qright"])
    return RSystem(ring=ring, p=p, q=q, psi=Pairing(tables["psi"]), name="tampered")


_REFERENCE_SYSTEMS = {
    "graph": lambda rng: build_graph_system(random_graph(rng, max_v=4, max_e=5)),
    "perm": lambda rng: random_permutation_system(rng, max_n=4),
    "dual": lambda rng: build_automorphism_system(dual_numbers_ring(), mat_identity(2)),
    "matrix2": lambda rng: build_automorphism_system(matrix2_ring(), mat_identity(4)),
    "psi-zero": lambda rng: psi_zero_system(),
    **{data()["name"]: lambda rng, data=data: system_from_json(data())
       for data in (square_zero_json, left_unit_json, square_into_ideal_json,
                    corner_bimodules_json, idempotent_plus_null_json)},
}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(_REFERENCE_SYSTEMS)))
def test_validate_axioms_matches_unit_vector_reference(seed, kind):
    rng = random.Random(seed)
    sys = _REFERENCE_SYSTEMS[kind](rng)
    for candidate in (sys, _tampered(sys, rng), _tampered(sys, rng)):
        assert validate_axioms(candidate) == reference_validate_axioms(candidate)


def _one_element_system(z_z, q_left):
    """R = Q z with z z = z_z z, Q = Q^2 with z acting on the left by the
    columns `q_left` and as 0 on the right, P = 0 and psi = 0."""
    ring = StructuredRing(["z"], [[[z_z]]])
    q = StructuredBimodule(["m0", "m1"], [q_left], [[(), ()]])
    return RSystem(ring=ring, p=StructuredBimodule([], [[]], [[]]), q=q, psi=Pairing([]))


def test_validate_axioms_cancelling_paths():
    """z z = 0 and z acting on Q by the columns (1, -1), (1, -1): z.(z.m0)
    has the paths m0 -> m0 -> m0 (weight 1) and m0 -> m1 -> m0 (weight -1),
    which cancel, so L^2 = 0 = (z z).m and Q is a bimodule.  With the
    second column tampered to (1, -2) they no longer cancel.  With z z = z
    and z swapping m0 and m1, L^2 - L has opposite columns, so the
    differences of two basis vectors m_a cancel only if read as one."""
    cols = [((0, 1), (1, -1)), ((0, 1), (1, -1))]
    rep = validate_axioms(_one_element_system(0, cols))
    assert rep == ValidationReport(ok=True, failures=[], checks=7)
    fails = ValidationReport(ok=False, failures=["Q: left action not associative at (z,z)"], checks=7)
    for tampered in (_one_element_system(0, [cols[0], ((0, 1), (1, -2))]),
                     _one_element_system(1, [((1, 1),), ((0, 1),)])):
        assert validate_axioms(tampered) == fails == reference_validate_axioms(tampered)


def _corner_system(dp, dq, p_left=None):
    """R = Q e1 + Q e2 (orthogonal idempotents); P = Q^dp and Q = Q^dq with
    e1 acting as 1 and e2 as 0 on both sides; psi = 0."""
    def module(name, d, left=None):
        one = [tuple(((a, 1),) for a in range(d)), [()] * d]
        return StructuredBimodule([f"{name}{a}" for a in range(d)], left or one, one)
    zero = [[[0, 0]] * dq for _ in range(dp)]
    return RSystem(ring=diagonal_ring(2), p=module("p", dp, p_left), q=module("q", dq),
                   psi=Pairing(zero))


def test_validate_axioms_counts_checks_with_unequal_legs():
    """checks = n^3 + 6 n^2 + 3 n dP dQ: 8 + 24 + 18 for n = 2, dP = 1, dQ = 3."""
    sys = _corner_system(1, 3)
    assert validate_axioms(sys) == ValidationReport(ok=True, failures=[], checks=50)
    assert reference_validate_axioms(sys).checks == 50


def test_validate_axioms_reports_action_shape():
    """A bimodule with more or fewer action maps than ring basis elements
    fails by name; its identities and psi's are left out of `checks`."""
    one, zero, five = ((0, 1),), (), ((0, 5),)
    for maps in ([[one], [zero], [five]], [[one]]):
        rep = validate_axioms(_corner_system(1, 1, p_left=maps))
        message = f"P: left action has {len(maps)} maps for 2 ring basis elements"
        assert rep == ValidationReport(ok=False, failures=[message], checks=8 + 12)


@pytest.mark.parametrize("cell", [[0, 1, 1], [0]], ids=["long", "short"])
def test_validate_axioms_reports_psi_cell_length(cell):
    """a2's one psi cell, replaced through the Python API by one with 3 or 1
    coordinates over its 2-dimensional ring, fails by name (it raised
    IndexError, or was read as if padded with zeros); psi's identities are
    left out of `checks` (38 with them)."""
    a2 = build_graph_system(a2_graph())
    assert validate_axioms(a2) == ValidationReport(ok=True, failures=[], checks=38)
    system = RSystem(a2.ring, a2.p, a2.q, Pairing([[cell]]))
    message = f"psi: cell (p0,q0) has {len(cell)} coordinates for a 2-dimensional ring"
    assert validate_axioms(system) == ValidationReport(ok=False, failures=[message], checks=32)


def dense_bilinear(n, table, a, b):
    """The former dense loop of multiply / apply: one full-length update per nonzero pair."""
    out = zero_vec(n)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            c = ai * bj
            out = [x + c * y for x, y in zip(out, table[i][j])]
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multiply_and_apply_match_dense_reference(data):
    """Structure tables and operands with 0-60 % nonzeros, ints mixed with Fractions."""
    rnd = data.draw(st.randoms(use_true_random=False))
    density = data.draw(st.sampled_from([0.0, 0.2, 0.6]))

    def entry():
        if rnd.random() >= density:
            return rnd.choice([0, F(0)])
        x = F(rnd.choice([-1, 1]) * rnd.randint(1, 5), rnd.choice([1, 2, 3]))
        return int(x) if x.denominator == 1 and rnd.random() < 0.5 else x

    def vector(n):
        return [entry() for _ in range(n)]

    n, dp, dq = (data.draw(st.integers(0, 4)) for _ in range(3))
    ring = StructuredRing([f"r{i}" for i in range(n)],
                          [[vector(n) for _ in range(n)] for _ in range(n)])
    a, b = vector(n), vector(n)
    assert ring.multiply(a, b) == dense_bilinear(n, ring.mult, a, b)
    psi = Pairing([[vector(n) for _ in range(dq)] for _ in range(dp)])
    p, q = vector(dp), vector(dq)

    def module(d, name):  # psi_1 reads neither action
        return StructuredBimodule([f"{name}{a}" for a in range(d)], [[()] * d] * n, [[()] * d] * n)

    system = RSystem(ring=ring, p=module(dp, "p"), q=module(dq, "q"), psi=psi)
    # the zero of R when P = 0 or Q = 0, too
    assert psi_apply(system, 1, p, q) == dense_bilinear(n, psi.table, p, q)


# ---------------------------------------------------------------------------
# cells against the dense constructors


def _dense_graph_system(graph) -> RSystem:
    """The path system of `graph` as `build_graph_system` built it through
    the dense constructors: a dense d x d x d product table and a dense
    (edges x edges) table of d-vectors for psi."""
    verts = list(graph.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    edges = graph.expand().edges
    nv, ne = len(verts), len(edges)
    ring = StructuredRing(verts, [[unit_vec(nv, i) if i == j else zero_vec(nv) for j in range(nv)]
                                  for i in range(nv)])

    def diag(flags):
        return [((a, 1),) if f else () for a, f in enumerate(flags)]

    src = [diag([e.src == v for e in edges]) for v in verts]
    tgt = [diag([e.tgt == v for e in edges]) for v in verts]
    labels = [e.name for e in edges]
    psi = Pairing([[unit_vec(nv, vidx[edges[a].tgt]) if a == b else zero_vec(nv) for b in range(ne)]
                   for a in range(ne)])
    return RSystem(ring, StructuredBimodule(labels, tgt, src), StructuredBimodule(labels, src, tgt), psi,
                   name=f"graph:{graph.name}")


def _dense_automorphism_system(system) -> RSystem:
    """An automorphism system built again through the dense constructors:
    the ring from its dense table, psi from the dense table
    psi(e_i (x) e_j) = e_i phi(e_j)."""
    ring, d = system.ring, system.ring.dim
    phi = dense(system.phi, d)  # the system keeps phi(e_k) as its nonzeros
    cols = mat_transpose(phi)
    phi_inv = dense_inverse(phi)
    p = StructuredBimodule(ring.labels, ring.left, [ring.right_map(c) for c in cols])
    q = StructuredBimodule(ring.labels, ring.left, [ring.right_map(c) for c in mat_transpose(phi_inv)])
    psi = Pairing([[ring.multiply(unit_vec(d, i), cols[j]) for j in range(d)] for i in range(d)])
    return RSystem(StructuredRing(ring.labels, ring.mult), p, q, psi, name=system.name)


def _dense_from_json(data) -> RSystem:
    """`system_from_json` as it read a file into the dense constructors:
    each list of triples [i, j, k, c] summed into a dense table."""
    def table(triples, n1, n2, n3):
        out = [[zero_vec(n3) for _ in range(n2)] for _ in range(n1)]
        for i, j, k, c in triples:
            out[i][j][k] += F(c)
        return out

    basis = data["ring"]["basis"]
    n = len(basis)
    ring = StructuredRing(basis, table(data["ring"].get("mult", []), n, n, n))
    legs = {}
    for key in ("p", "q"):
        spec, d = data[key], len(data[key]["basis"])
        left, right = ([[_nonzeros(cell) for cell in row] for row in table(spec.get(side, []), n, d, d)]
                       for side in ("left", "right"))
        legs[key] = StructuredBimodule(spec["basis"], left, right)
    psi = Pairing(table(data.get("psi", []), legs["p"].dim, legs["q"].dim, n))
    return RSystem(ring, legs["p"], legs["q"], psi, name=data.get("name", "system"))


def _from_cells(system) -> RSystem:
    """A system built through the dense constructors, built again from its cells."""
    ring = StructuredRing.from_cells(system.ring.labels, system.ring.left)
    return RSystem(ring, system.p, system.q, Pairing.from_cells(system.psi._table_nz, ring.dim), name=system.name)


def _cells(system) -> tuple:
    """Everything a system keeps: labels, the cells of its product, actions
    and pairing, and psi's coordinate count where it has cells."""
    psi = system.psi
    return (system.ring.labels, system.ring.left, system.ring.right,
            *((m.labels, m.left, m.right) for m in (system.p, system.q)),
            psi._table_nz, psi.dim if any(psi._table_nz) else None)


def _cell_and_dense_pairs():
    """(built from cells, built through the dense constructors) for every
    preset, random graph and permutation systems, the automorphism families
    of the membership crosscheck, and the reference system files."""
    graphs = [a2_graph(), line_graph(3), three_vertex_two_cycle(), cycle_graph(3), rose_graph(2), rose_graph(3),
              five_vertex_mixed()]
    rng = random.Random(2811)
    graphs += [random_graph(rng, max_v=5, max_e=9) for _ in range(20)]
    pairs = [(build_graph_system(g), _dense_graph_system(g)) for g in graphs]
    autos = [perm3_system()] + [random_permutation_system(rng, max_n=5) for _ in range(10)]
    autos += [non_diagonal_system(kind, random.Random(seed))[0]
              for seed in (1, 2) for kind in ("diagonal", "dual", "upper", "matrix2")]
    pairs += [(system, _dense_automorphism_system(system)) for system in autos]
    files = [system_to_json(perm3_system()), square_zero_json(), left_unit_json(), square_into_ideal_json(),
             corner_bimodules_json(), idempotent_plus_null_json()]
    files += [killed_vector_json(leg, fixed) for leg in ("q", "p") for fixed in (False, True)]
    pairs += [(system_from_json(data), _dense_from_json(data)) for data in files]
    pairs.append((_from_cells(psi_zero_system()), psi_zero_system()))
    return pairs


def test_cells_match_dense_constructors():
    """A system built from cells -- by the builders, the file loader and
    `from_cells` -- keeps exactly the cells of the same system built through
    `StructuredRing(labels, mult)` and `Pairing(table)`, reads back the same
    dense `mult` and `table`, writes the same file, which loads back to the
    same cells, and gets the same `validate_axioms` report, also with psi
    given one coordinate too many in every cell or one P-row too few."""
    shapes = 0
    for cells, dense_ in _cell_and_dense_pairs():
        assert _cells(cells) == _cells(dense_), cells.name
        assert cells.ring.mult == dense_.ring.mult and cells.psi.table == dense_.psi.table
        assert system_to_json(cells) == system_to_json(dense_)
        assert _cells(system_from_json(system_to_json(cells))) == _cells(cells)
        assert validate_axioms(cells) == validate_axioms(dense_)
        n, table = cells.ring.dim, cells.psi._table_nz
        if not any(table):
            continue
        long_cells = Pairing.from_cells(table, n + 1)
        long_dense = Pairing([[[*cell, 0] for cell in row] for row in dense_.psi.table])
        short_cells, short_dense = Pairing.from_cells(table[:-1], n), Pairing(dense_.psi.table[:-1])
        for a, b in ((long_cells, long_dense), (short_cells, short_dense)):
            rep = validate_axioms(RSystem(cells.ring, cells.p, cells.q, a))
            assert not rep.ok and rep == validate_axioms(RSystem(dense_.ring, dense_.p, dense_.q, b))
        assert f"coordinates for a {n}-dimensional ring" in validate_axioms(
            RSystem(cells.ring, cells.p, cells.q, long_cells)).failures[0]
        shapes += 1
    assert shapes >= 40


def test_cell_constructors_check_every_index():
    """`from_cells` refuses an index outside the ring, and the dense views
    are read-only."""
    ring = diagonal_ring(2)
    with pytest.raises(ValueError, match="not in range"):
        StructuredRing.from_cells(ring.labels, [[((2, 1),), ()], [(), ((1, 1),)]])
    with pytest.raises(ValueError, match="not in range"):
        Pairing.from_cells([[((0, 1),), ((-1, 1),)]], 2)
    with pytest.raises(ValueError, match="shape does not match"):
        StructuredRing.from_cells(ring.labels, [[((0, 1),), ()]])
    with pytest.raises(AttributeError):
        ring.mult = ()
    assert StructuredRing.from_cells(["x"], [[((0, "1/2"),)]]).left == (((((0, F(1, 2)),),),))


@pytest.mark.parametrize("make, builder, ask, calls", [
    (lambda: system_from_json(killed_vector_json("q", True)), (rsystem, "_corner_masks"), corner_graph, 2),
    (lambda: non_diagonal_system("dual", random.Random(3))[0], (rsystem, "orthogonal_idempotents"), corner_graph, 1),
    (psi_zero_system, (finrank, "_identity_in_span"), lambda system: finrank._fs_half(system, "Q"), 1),
], ids=["no-corner-graph", "non-diagonal", "psi-zero"])
def test_memo_builds_a_none_value_once(make, builder, ask, calls, monkeypatch):
    """A memo entry whose value is None is built once, like any other: the
    corner graph of a system without one (its ring diagonal or not) and the
    Q half of (FS) on psi-zero, each asked twice, are built once."""
    owner, name = builder
    built, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: built.append(a) or real(*a))
    system = make()
    for _ in range(2):
        assert ask(system) is None and len(built) == calls
