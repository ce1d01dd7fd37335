"""Toeplitz-ring arithmetic against hand values, matrix-unit and Fock oracles.

The A2 matrix-unit representation (p_u = E11, p_v = E22, x_e = E12,
y_e = E21) gives an independent multiplication oracle.  `fock_apply` is the
product itself acting on the pure-Q grades; `conftest.fock_oracle` composes
the creator and annihilator blocks leg by leg instead, and the two must agree.
"""

import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FAMILIES,
    _project_kron,
    dense,
    dual_numbers_ring,
    dual_numbers_unit_basis_ring,
    family_system,
    five_vertex_mixed,
    fock_is_zero,
    fock_oracle,
    mat_eq,
    matrix2_ring,
    perm3_system,
    random_graph_element,
    three_vertex_two_cycle,
    mat_identity,
)

from cprings.exactlin import unit_vec, zero_vec
from cprings.graphalg import rose_graph
from cprings.rsystem import build_automorphism_system, build_graph_system
from cprings.tensorpow import CapExceeded, tensor_space
from cprings.toeplitz import (
    InvalidRepresentation,
    Mat,
    Representation,
    SystemMismatch,
    ToeplitzElement,
    check_representation,
    component_space,
    embed,
    embed_n,
    evaluate,
    fock_apply,
    pair,
    semigroup_mul,
    toeplitz_mul,
    z_project,
)


def test_semigroup_examples():
    assert semigroup_mul((2, 3), (1, 4)) == (2, 6)
    assert semigroup_mul((1, 2), (3, 1)) == (2, 1)
    assert semigroup_mul((4, 1), (0, 0)) == (4, 1)
    assert semigroup_mul((0, 0), (4, 1)) == (4, 1)


def test_semigroup_associative_small():
    grades = [(m, n) for m in range(4) for n in range(4)]
    for a in grades:
        for b in grades:
            for c in grades:
                assert semigroup_mul(semigroup_mul(a, b), c) == semigroup_mul(a, semigroup_mul(b, c))


def test_embed_basics(a2_system, line3_system):
    assert embed(a2_system, "R", zero_vec(2)).is_zero()
    x = embed(a2_system, "Q", [1])
    assert x.support() == [(1, 0)]
    with pytest.raises(ValueError):
        embed(a2_system, "Q", [1, 2, 3])
    with pytest.raises(ValueError):
        embed(a2_system, "X", [1])
    for level in (1.5, F(1, 2), 1.0):  # a non-integral level is refused, not looped on
        with pytest.raises(ValueError, match="natural number"):
            embed_n(a2_system, "Q", level, [1])
    # Q and P have dimension 2 on line3: pair checks each leg's length like embed_n
    for q, p in (([1, 0, 0], [1, 0]), ([1, 0], [0, 1, 0]), ([1], [1, 0])):
        with pytest.raises(ValueError):
            pair(line3_system, 1, 1, q, p)
    with pytest.raises(ValueError):
        pair(line3_system, 0, 1, [], [1, 0, 0])
    assert pair(line3_system, 1, 1, [1, 0], [1, 0]).support() == [(1, 1)]


def test_constructor_coerces_its_coordinates(a2_system):
    """Dense coordinates are coerced by `vec`: a numeral string is a
    rational, so it scales as a number, and "0" is a zero coordinate."""
    x = ToeplitzElement(a2_system, {(1, 0): ["1/2"]})
    assert x.comps == {(1, 0): ((0, F(1, 2)),)}
    assert x.scale(2) == embed(a2_system, "Q", [1])
    y = ToeplitzElement(a2_system, {(0, 0): ["0", "3"]})
    assert y.comps == {(0, 0): ((1, 3),)} and type(y.comps[(0, 0)][0][1]) is int


@pytest.mark.parametrize("components, error", [
    ({(1, 0): [0.5]}, TypeError),  # a float is not exact
    ({(1, 0): [0.0]}, TypeError),
    ({(1, 0): [1, 0]}, ValueError),  # longer than Q (dim 1)
    ({(0, 0): [1]}, ValueError),  # shorter than R (dim 2)
    ({(-1, 0): [1]}, ValueError),  # negative grade
    ({(1, -1): [1]}, ValueError),
    ({(1.5, 0): [1]}, ValueError),  # non-integral grade
    ({(F(1, 2), 0): [1]}, ValueError),
], ids=["float", "float-zero", "too-long", "too-short", "negative-m", "negative-n", "float-grade",
        "fraction-grade"])
def test_constructor_refuses_bad_input(a2_system, components, error):
    with pytest.raises(error):
        ToeplitzElement(a2_system, components)


def _dense_sum(system, terms) -> dict:
    """sum of c * x over (c, element) `terms`, accumulated into dense
    components, as the dense constructor's input."""
    out: dict = {}
    for c, x in terms:
        for g, nz in x.comps.items():
            acc = out.setdefault(g, [0] * component_space(system, *g).dim)
            for t, y in nz:
                acc[t] += c * y
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 10_000))
def test_sparse_built_elements_match_the_dense_constructor(family, seed):
    """On the graph, permutation, rebased and non-diagonal families,
    `embed`, `embed_n` and `pair` build the element the dense constructor
    builds from the same coordinates (`pair` from the class of q (x) p read
    densely); `toeplitz_mul` is the bilinear sum, taken densely, of the
    products of the operands' unit classes; and `sub` is the difference of
    the dense components."""
    rng = random.Random(seed)
    system = family_system(family, rng)

    def coords(g):
        return [rng.choice((0, 0, 0, 1, -1, 2, F(1, 2), F(0))) for _ in range(component_space(system, *g).dim)]

    elements = []
    for kind, level in (("R", 0), ("Q", 1), ("P", 1), ("Q", 2), ("P", 2)):
        grade = {"R": (0, 0), "Q": (level, 0), "P": (0, level)}[kind]
        v = coords(grade)
        x = embed_n(system, kind, level, v)
        assert x == ToeplitzElement(system, {grade: v}) and x.comps == ToeplitzElement(system, {grade: v}).comps
        if level < 2:
            assert embed(system, kind, v) == x
        elements.append(x)
    for m, n in ((1, 1), (2, 1), (1, 2)):
        q, p = coords((m, 0)), coords((0, n))
        comp = component_space(system, m, n)
        klass = _project_kron(comp.quot, q, p) if comp.dim else []
        x = pair(system, m, n, q, p)
        assert x == ToeplitzElement(system, {(m, n): klass})
        elements.append(x)
    elements.append(elements[rng.randrange(len(elements))].add(elements[rng.randrange(len(elements))]))

    def unit(g, t):
        return ToeplitzElement(system, {g: unit_vec(component_space(system, *g).dim, t)})

    for _ in range(6):
        a, b = rng.choice(elements), rng.choice(elements)
        terms = [(x * y, toeplitz_mul(unit(g1, i), unit(g2, j)))
                 for g1 in a.support() for i, x in enumerate(a.component(g1)) if x
                 for g2 in b.support() for j, y in enumerate(b.component(g2)) if y]
        assert toeplitz_mul(a, b) == ToeplitzElement(system, _dense_sum(system, terms))
        assert a.sub(b) == ToeplitzElement(system, _dense_sum(system, [(1, a), (-1, b)]))
        assert a.sub(b) == a.add(b.neg()) and a.sub(a).is_zero()


def test_embed_n_rose(rose1):
    system = build_graph_system(rose1)
    x = embed_n(system, "Q", 2, [1])
    assert x.support() == [(2, 0)]
    assert component_space(system, 2, 0).dim == 1


def test_pair_and_full_contraction(a2_system):
    # [p][q] = [psi(p (x) q)] : the defining covariance relation holds exactly
    lhs = toeplitz_mul(embed(a2_system, "P", [1]), embed(a2_system, "Q", [1]))
    assert lhs == embed(a2_system, "R", [0, 1])  # 1_v
    assert lhs.sub(embed(a2_system, "R", [0, 1])).is_zero()


def test_qp_idempotent(a2_system):
    x = toeplitz_mul(embed(a2_system, "Q", [1]), embed(a2_system, "P", [1]))
    assert x.support() == [(1, 1)]
    assert toeplitz_mul(x, x) == x  # x_e y_e is an idempotent
    assert x == pair(a2_system, 1, 1, [1], [1])


def test_line3_full_path_contraction(line3_system):
    yw = toeplitz_mul(embed(line3_system, "P", unit_vec(2, 1)),
                      embed(line3_system, "P", unit_vec(2, 0)))
    assert yw.support() == [(0, 2)]
    xw = toeplitz_mul(embed(line3_system, "Q", unit_vec(2, 0)),
                      embed(line3_system, "Q", unit_vec(2, 1)))
    assert xw.support() == [(2, 0)]
    prod = toeplitz_mul(yw, xw)
    assert prod == embed(line3_system, "R", [0, 0, 1])  # lands on 1_{v3}
    back = toeplitz_mul(xw, yw)
    assert back.support() == [(2, 2)]


def test_grade_and_z_projection(a2_system):
    r = embed(a2_system, "R", [1, 2])
    qp = toeplitz_mul(embed(a2_system, "Q", [1]), embed(a2_system, "P", [1]))
    assert z_project(qp, 0) == qp
    assert z_project(qp, 1).is_zero()
    # z-projections decompose any element
    mix = r.add(qp).add(embed(a2_system, "Q", [3]))
    total = ToeplitzElement(a2_system)
    for k in mix.z_degrees():
        total = total.add(z_project(mix, k))
    assert total == mix


@pytest.mark.parametrize("make", [
    lambda: build_graph_system(rose_graph(2)),
    perm3_system,
    lambda: build_graph_system(five_vertex_mixed()),
], ids=["rose2", "perm3", "5v-mixed"])
def test_basis_classes_are_pure_tensors(make):
    """With (a, b) = divmod(quot.free[t], d_right), basis vector t is the
    class of e_a (x) e_b."""
    system = make()
    cases = [(tensor_space(system, side, n), tensor_space(system, side, n - 1).dim,
              tensor_space(system, side, 1).dim) for side in "QP" for n in (2, 3)]
    cases += [(component_space(system, m, n), tensor_space(system, "Q", m).dim,
               tensor_space(system, "P", n).dim) for m in (1, 2) for n in (1, 2)]
    for space, d_left, d_right in cases:
        assert len(space.quot.free) == space.dim > 0
        for t, (a, b) in enumerate(divmod(f, d_right) for f in space.quot.free):
            assert _project_kron(space.quot, unit_vec(d_left, a), unit_vec(d_right, b)) == unit_vec(space.dim, t)


def test_rose3_44_component_fits_in_memory():
    """Rose3's (4,4) component has 6561 Kronecker coordinates and no nonzero
    balancing relation; its classes are a lookup table over those coordinates,
    not a dense 6561 x 6561 projection matrix (330 MiB), and the unit element
    stores its one nonzero, not a 6561-entry tuple."""
    system = build_graph_system(rose_graph(3))
    tracemalloc.start()
    try:
        comp = component_space(system, 4, 4)
        x = pair(system, 4, 4, unit_vec(81, 5), unit_vec(81, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.dim == 6561
    assert x.comps == {(4, 4): ((5 * 81 + 7, 1),)}
    assert x.component((4, 4)) == tuple(unit_vec(6561, 5 * 81 + 7))
    assert peak < 16 * 2**20, peak


def test_a_component_with_its_only_nonzero_at_index_0_is_kept(a2_system):
    """Components are kept as their nonzeros; one whose only nonzero sits at
    coordinate 0 is not empty, although a dict {0: 1} of it reads False
    under `any`, which reads the keys."""
    x = ToeplitzElement(a2_system, {(0, 0): [1, 0]})  # e_u, an idempotent
    assert x.comps == {(0, 0): ((0, 1),)}
    assert not x.is_zero()
    assert x.component((0, 0)) == (1, 0)
    assert toeplitz_mul(x, x) == x and not (x + x).is_zero() and (x - x).is_zero()
    assert (x + x).component((0, 0)) == (2, 0)


def test_rose3_creation_block_fits_in_memory():
    """T^3(e_4) from rose3's Q^3 lands on Q^6 (729 classes) as 27 columns of
    one nonzero; no level action or block is a dense matrix (at 729 x 729,
    23 MiB traced)."""
    system = build_graph_system(rose_graph(3))
    x = embed_n(system, "Q", 3, unit_vec(27, 4))
    tracemalloc.start()
    try:
        blocks = fock_apply(x, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert list(blocks) == [6]
    assert blocks[6] == tuple(((4 * 27 + c, 1),) for c in range(27))


@pytest.mark.parametrize("ring, d", [(dual_numbers_ring, 2), (matrix2_ring, 4), (dual_numbers_unit_basis_ring, 2)],
                         ids=["dual", "matrix2", "dual-1u"])
def test_products_over_non_diagonal_rings(ring, d):
    """Associativity, and a Fock representation that multiplies.  Over these
    rings the class of a word need not be a basis vector (over dual-1u, not
    even a multiple of one), so contractions and annihilators meet sums of
    classes."""
    system = build_automorphism_system(ring(), mat_identity(d))
    rng = random.Random(5)

    def letter():
        return embed(system, rng.choice("RQP"), [rng.randint(-2, 2) for _ in range(d)])

    def word():
        out = letter()
        for _ in range(rng.randint(0, 2)):
            out = toeplitz_mul(out, letter())
        return out

    for _ in range(100):
        a, b, c = word(), word(), word()
        assert toeplitz_mul(toeplitz_mul(a, b), c) == toeplitz_mul(a, toeplitz_mul(b, c))
        for j in range(3):
            via = _compose_blocks(system, a, _fock_dense(b, j))
            direct = _fock_dense(toeplitz_mul(a, b), j)
            assert set(via) == set(direct) and all(mat_eq(via[k], direct[k]) for k in via)


FOCK_SYSTEMS = {
    "3v2c": lambda: build_graph_system(three_vertex_two_cycle()),
    "perm3": perm3_system,
    "dual": lambda: build_automorphism_system(dual_numbers_ring(), mat_identity(2)),
    "dual-1u": lambda: build_automorphism_system(dual_numbers_unit_basis_ring(), mat_identity(2)),
    "matrix2": lambda: build_automorphism_system(matrix2_ring(), mat_identity(4)),
}


@pytest.mark.parametrize("name", list(FOCK_SYSTEMS))
def test_fock_apply_matches_leg_composition(name):
    """The Fock action as left multiplication agrees, block by block on levels
    0-3, with the blocks composed leg by leg, on random elements of one grade
    of each type (ring, Q, P, mixed, legs up to 3) and on random sums of three."""
    system = FOCK_SYSTEMS[name]()
    rng = random.Random(name)
    grades = [(0, 0), (1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (2, 1), (1, 2), (2, 3)]

    def coords(g):
        return [rng.choice([0, 0, 1, -1, 2, F(1, 2)]) for _ in range(component_space(system, *g).dim)]

    elements = [ToeplitzElement(system, {g: coords(g)}) for g in grades for _ in range(2)]
    elements += [ToeplitzElement(system, {g: coords(g) for g in rng.sample(grades, 3)}) for _ in range(6)]
    for x in elements:
        for j in range(4):
            assert fock_apply(x, j) == fock_oracle(x, j), (x, j)


def test_product_multiplies_only_the_operands_classes():
    """One Q^3 class times one P^3 class builds one product column, not one
    per pair of basis classes of the two grades (64 on rose2)."""
    system = build_graph_system(rose_graph(2))
    d3 = tensor_space(system, "Q", 3).dim
    q, p = unit_vec(d3, 5), unit_vec(d3, 2)
    x, y = embed_n(system, "Q", 3, q), embed_n(system, "P", 3, p)
    before = set(system._store)
    prod = toeplitz_mul(x, y)
    assert {k for k in set(system._store) - before if k[0] == "prodcol"} == {("prodcol", (3, 0), 5, (0, 3), 2)}
    assert prod == pair(system, 3, 3, q, p)


def test_system_mismatch(a2_system, line3_system):
    with pytest.raises(SystemMismatch):
        embed(a2_system, "Q", [1]).add(embed(line3_system, "Q", [1, 0]))
    with pytest.raises(SystemMismatch):
        toeplitz_mul(embed(a2_system, "Q", [1]), embed(line3_system, "Q", [1, 0]))


def test_cap_exceeded(rose1):
    system = build_graph_system(rose1)
    q3 = embed_n(system, "Q", 3, [1])
    q4 = embed_n(system, "Q", 4, [1])
    with pytest.raises(CapExceeded):
        toeplitz_mul(q3, q4)


def test_cap_independent_of_cache(rose1):
    """Whether the cap is enforced does not depend on what ran before."""
    system = build_graph_system(rose1)
    q3 = embed_n(system, "Q", 3, [1])
    q4 = embed_n(system, "Q", 4, [1])
    assert toeplitz_mul(q3, q4, cap=12).support() == [(7, 0)]
    with pytest.raises(CapExceeded):
        toeplitz_mul(q3, q4)
    assert list(fock_apply(q4, 3, cap=7)) == [7]
    with pytest.raises(CapExceeded):
        fock_apply(q4, 3)
    with pytest.raises(CapExceeded):
        fock_is_zero(q4.add(embed_n(system, "P", 3, [1])))  # P^3 then Q^4 from level 3


def test_cap_bounds_legs_not_total_grade(rose1):
    system = build_graph_system(rose1)
    q4 = embed_n(system, "Q", 4, [1])
    p4 = embed_n(system, "P", 4, [1])
    assert toeplitz_mul(q4, p4).support() == [(4, 4)]
    with pytest.raises(CapExceeded):
        toeplitz_mul(q4, p4, cap=3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_mul_associative_random(seed):
    rng = random.Random(seed)
    system = build_graph_system(three_vertex_two_cycle())
    a = random_graph_element(rng, system)
    b = random_graph_element(rng, system)
    c = random_graph_element(rng, system)
    assert toeplitz_mul(toeplitz_mul(a, b), c) == toeplitz_mul(a, toeplitz_mul(b, c))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_mul_distributive_and_graded(seed):
    rng = random.Random(seed)
    system = build_graph_system(three_vertex_two_cycle())
    a = random_graph_element(rng, system)
    b = random_graph_element(rng, system)
    c = random_graph_element(rng, system)
    left = toeplitz_mul(a, b.add(c))
    assert left == toeplitz_mul(a, b).add(toeplitz_mul(a, c))
    allowed = {semigroup_mul(g1, g2) for g1 in a.support() for g2 in b.support()}
    assert set(toeplitz_mul(a, b).support()) <= allowed


def test_z_degree_multiplicativity(a2_system):
    q = embed(a2_system, "Q", [1])
    p = embed(a2_system, "P", [1])
    prod = toeplitz_mul(q, toeplitz_mul(q, p))  # degrees +1, +1, -1
    for (m, n) in prod.support():
        assert m - n == 1


def _a2_matrix_rep():
    e11 = Mat([[1, 0], [0, 0]])
    e12 = Mat([[0, 1], [0, 0]])
    e21 = Mat([[0, 0], [1, 0]])
    e22 = Mat([[0, 0], [0, 1]])
    return Representation(Mat.zero(2), r_images=[e11, e22], q_images=[e12], p_images=[e21])


def test_a2_matrix_rep_valid(a2_system):
    rep = _a2_matrix_rep()
    assert check_representation(a2_system, rep) == []
    bad = Representation(rep.zero, r_images=rep.r_images, q_images=rep.p_images, p_images=rep.q_images)
    assert check_representation(a2_system, bad)


def test_evaluate_is_homomorphism(a2_system):
    rep = _a2_matrix_rep()
    assert evaluate(embed(a2_system, "R", [3, 5]), rep) == Mat([[3, 0], [0, 5]])
    rng = random.Random(7)
    for _ in range(25):
        a = random_graph_element(rng, a2_system)
        b = random_graph_element(rng, a2_system)
        assert evaluate(toeplitz_mul(a, b), rep) == evaluate(a, rep) * evaluate(b, rep)
        assert evaluate(a.add(b), rep) == evaluate(a, rep) + evaluate(b, rep)


def test_evaluate_rejects_junk(a2_system):
    with pytest.raises(InvalidRepresentation):
        evaluate(embed(a2_system, "Q", [1]), object())


def test_fock_diagonal_of_ring_element(line3_system):
    r = [1, 0, 2]
    x = embed(line3_system, "R", r)
    blocks = _fock_dense(x, 0)
    assert list(blocks) == [0]
    assert mat_eq(blocks[0], dense(line3_system.ring.left_map(r), 3))
    blocks1 = _fock_dense(x, 1)
    # Delta(r) on Q: e1 scaled by r_{s(e1)} = 1, e2 by r_{s(e2)} = 0
    assert mat_eq(blocks1[1], [[1, 0], [0, 0]])


def test_fock_shift_rose(rose1):
    system = build_graph_system(rose1)
    x = embed(system, "Q", [1])
    for j in range(4):
        blocks = _fock_dense(x, j)
        assert list(blocks) == [j + 1]
        assert mat_eq(blocks[j + 1], [[1]])


def _fock_dense(x, j, cap=6):
    """fock_apply(x, j) with each block as a dense matrix."""
    return {k: dense(cols, tensor_space(x.system, "Q", k).dim)
            for k, cols in fock_apply(x, j, cap=cap).items()}


def _compose_blocks(system, x, blocks_in, cap=6):
    """Apply x to an existing {level: matrix} family of blocks."""
    out = {}
    for j_mid, mat in blocks_in.items():
        for j_out, blk in _fock_dense(x, j_mid, cap=cap).items():
            from cprings.exactlin import matmul, vec_add
            prod = matmul(blk, mat)
            if j_out in out:
                out[j_out] = [vec_add(a, b) for a, b in zip(out[j_out], prod)]
            else:
                out[j_out] = prod
    return {k: v for k, v in out.items() if any(any(e != 0 for e in row) for row in v)}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_fock_functorial(seed):
    rng = random.Random(seed)
    system = build_graph_system(three_vertex_two_cycle())
    a = random_graph_element(rng, system)
    b = random_graph_element(rng, system)
    ab = toeplitz_mul(a, b)
    for j in range(3):
        first = _fock_dense(b, j)
        via = _compose_blocks(system, a, first)
        direct = _fock_dense(ab, j)
        assert set(via) == set(direct)
        for k in via:
            assert mat_eq(via[k], direct[k])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_fock_zero_oracle_agrees(seed):
    rng = random.Random(seed)
    system = build_graph_system(three_vertex_two_cycle())
    a = random_graph_element(rng, system)
    b = random_graph_element(rng, system)
    # difference of the two association orders must be zero both ways
    d = toeplitz_mul(toeplitz_mul(a, b), a).sub(toeplitz_mul(a, toeplitz_mul(b, a)))
    assert d.is_zero() and fock_is_zero(d)
    if not a.is_zero():
        assert not fock_is_zero(a)


def test_covariance_defect_is_nonzero_in_toeplitz(a2_system):
    # iota_R(1_u) - x_e y_e: the Toeplitz ring does NOT impose the CK relation
    defect = embed(a2_system, "R", [1, 0]).sub(
        toeplitz_mul(embed(a2_system, "Q", [1]), embed(a2_system, "P", [1])))
    assert not defect.is_zero() and not fock_is_zero(defect)
