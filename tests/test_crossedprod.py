"""Crossed-product backend: the skew Laurent rule and the CP-ring collapse.

Two independent routes from Toeplitz words into R x_phi Z exist: the direct
component collapse in `toeplitz_to_crossed`, and the generic representation
evaluator fed the [r,0]/[q,-1]/[p,1] triple.  Their agreement — plus the
agreement of crossed-product equality with the structural membership test —
is the correctness argument for the automorphism side of the engine.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    concat_class,
    dense,
    dense_inverse,
    diagonal_ring,
    non_diagonal_automorphism,
    non_diagonal_system,
    perm3_system,
    relation_generators,
    rose_graph,
)

from cprings.cpring import CpContext, ContextMismatch, validate_ideal
from cprings.crossedprod import (
    CrossedElement,
    cp_to_crossed,
    cross_mul,
    crossed_representation,
    permutation_matrix,
    phi_power,
    toeplitz_to_crossed,
)
from cprings.exactlin import Subspace, matmul, matvec, unit_vec, zero_vec
from cprings.rsystem import build_automorphism_system, build_graph_system
from cprings.tensorpow import psi_n
from cprings.toeplitz import (
    SystemMismatch,
    check_representation,
    embed,
    evaluate,
    toeplitz_mul,
)


@pytest.fixture(scope="module")
def sys3():
    return perm3_system()


@pytest.fixture(scope="module")
def ctx3(sys3):
    return CpContext(sys3, validate_ideal(sys3, Subspace.full(3)))


def e(i, n=3):
    return unit_vec(n, i)


def _phi(system, k, v):
    """phi^k(v), through the matrix whose columns are `phi_power`'s images."""
    return matvec(dense(phi_power(system, k), system.ring.dim), v)


def test_permutation_matrix_matches_handwritten(sys3):
    # conftest's perm3 sends e1 -> e2 -> e3 -> e1; the system keeps phi(e_k) as its nonzeros
    assert permutation_matrix([1, 2, 0]) == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert sys3.phi == (((1, 1),), ((2, 1),), ((0, 1),))
    with pytest.raises(ValueError):
        permutation_matrix([0, 0, 1])


# the automorphism systems whose phi images have several nonzeros
NON_DIAGONAL_KINDS = ("diagonal", "dual", "upper", "matrix2")


def _dense_power(phi, k):
    """phi^k by dense matrix products, through `dense_inverse` for k < 0."""
    base = phi if k >= 0 else dense_inverse(phi)
    out = [unit_vec(len(phi), i) for i in range(len(phi))]
    for _ in range(abs(k)):
        out = matmul(base, out)
    return out


def test_phi_power_matches_dense_powers():
    """phi_power keeps phi^k as the nonzeros of its images phi^k(e_i), the
    columns of the matrix power of the input matrix."""
    inputs = [(diagonal_ring(3), permutation_matrix([1, 2, 0]))]
    for seed in (1, 2):
        rng = random.Random(seed)
        inputs += [non_diagonal_automorphism(kind, rng)[:2] for kind in NON_DIAGONAL_KINDS]
    for ring, phi in inputs:
        system = build_automorphism_system(ring, phi)
        for k in range(-3, 4):
            assert dense(phi_power(system, k), ring.dim) == _dense_power(phi, k), (ring, k)


def test_non_integral_degrees_are_refused(sys3):
    """A Laurent degree is an int: 1.5 is refused, not truncated to 1."""
    x = CrossedElement(sys3, {1: e(0)})
    for bad in (lambda: phi_power(sys3, 1.5), lambda: CrossedElement(sys3, {1.5: e(0)}),
                lambda: CrossedElement(sys3, {1.5: zero_vec(3)}), lambda: x.coefficient(1.9)):
        with pytest.raises(ValueError, match="Laurent degree is an integer"):
            bad()
    assert phi_power(sys3, 1) == sys3.phi and x.coefficient(1) == e(0)


def test_phi_power_cycles(sys3):
    assert phi_power(sys3, 3) == phi_power(sys3, 0)
    assert phi_power(sys3, -1) == phi_power(sys3, 2)
    assert _phi(sys3, 1, e(1)) == list(e(2))


def test_degree_zero_subring(sys3):
    rng = random.Random(3)
    for _ in range(10):
        r = [F(rng.randint(-2, 2)) for _ in range(3)]
        s = [F(rng.randint(-2, 2)) for _ in range(3)]
        prod = cross_mul(CrossedElement(sys3, {0: r}), CrossedElement(sys3, {0: s}))
        assert prod == CrossedElement(sys3, {0: sys3.ring.multiply(r, s)})


def test_twist_rule_on_units(sys3):
    # [e1, 1][e2, -1] = [e1 phi(e2), 0] = [e1 e3, 0] = 0
    a = CrossedElement(sys3, {1: e(0)})
    assert (a * CrossedElement(sys3, {-1: e(1)})).is_zero()
    # [e1, 1][e3, -1] = [e1 phi(e3), 0] = [e1, 0]
    assert a * CrossedElement(sys3, {-1: e(2)}) == CrossedElement(sys3, {0: e(0)})
    # negative shift acts through phi^{-1}
    b = CrossedElement(sys3, {-1: e(0)})
    assert b * CrossedElement(sys3, {1: e(1)}) == CrossedElement(sys3, {0: e(0)})


def test_zero_coefficients_never_stored(sys3):
    z = CrossedElement(sys3, {2: zero_vec(3), -1: e(0)})
    assert z.support() == [-1]
    assert (z - z).is_zero()
    assert cross_mul(z, CrossedElement.zero(sys3)).is_zero()
    x = CrossedElement(sys3, {0: e(0)})
    assert (x + (-x)).terms == {}


def test_element_arithmetic(sys3):
    a = CrossedElement(sys3, {0: e(0), 2: e(1)})
    b = CrossedElement(sys3, {2: e(1)})
    assert (a - b).support() == [0]
    assert (F(3) * a).coefficient(2) == [F(0), F(3), F(0)]
    assert a.coefficient(5) == list(zero_vec(3))
    assert a != b and hash(a) != hash(CrossedElement.zero(sys3))
    with pytest.raises(ValueError):
        CrossedElement(sys3, {0: [F(1)]})


def test_system_mismatch():
    s1 = perm3_system()
    s2 = perm3_system()
    x = CrossedElement(s1, {0: e(0)})
    y = CrossedElement(s2, {0: e(0)})
    with pytest.raises(SystemMismatch):
        cross_mul(x, y)
    with pytest.raises(SystemMismatch):
        x + y
    with pytest.raises(SystemMismatch):
        CrossedElement(build_graph_system(rose_graph(1)), {0: [F(1)]})


def _rand_elem(sys, rng, max_shift=2):
    terms = {}
    for k in range(-max_shift, max_shift + 1):
        if rng.random() < 0.5:
            terms[k] = [F(rng.randint(-2, 2)) for _ in range(sys.ring.dim)]
    return CrossedElement(sys, terms)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cross_mul_associative_distributive(seed):
    sys = perm3_system() if seed % 2 else build_automorphism_system(
        diagonal_ring(4), permutation_matrix([1, 0, 3, 2])
    )
    rng = random.Random(seed)
    a, b, c = (_rand_elem(sys, rng) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_degree_additivity(sys3):
    rng = random.Random(11)
    for _ in range(20):
        a, b = _rand_elem(sys3, rng), _rand_elem(sys3, rng)
        sums = {k1 + k2 for k1 in a.support() for k2 in b.support()}
        assert set((a * b).support()) <= sums


def test_crossed_representation_is_covariant(sys3):
    assert check_representation(sys3, crossed_representation(sys3)) == []
    with pytest.raises(SystemMismatch):
        crossed_representation(build_graph_system(rose_graph(1)))


def test_psi2_closed_form(sys3):
    # Psi_2(p_a (x) p_b, q_c (x) q_d) = e_a phi(e_b) phi^2(e_c) phi(e_d)
    table = psi_n(sys3, 2)
    mul = sys3.ring.multiply
    for a in range(3):
        for b in range(3):
            pc = concat_class(sys3, "P", 1, e(a), 1, e(b))
            for c in range(3):
                for d in range(3):
                    qc = concat_class(sys3, "Q", 1, e(c), 1, e(d))
                    got = zero_vec(3)
                    for s_i, ps in enumerate(pc):
                        if ps == 0:
                            continue
                        for t_i, qt in enumerate(qc):
                            if qt == 0:
                                continue
                            for k, w in table[s_i][t_i]:
                                got[k] += ps * qt * w
                    want = mul(
                        mul(list(e(a)), _phi(sys3, 1, e(b))),
                        mul(
                            _phi(sys3, 2, e(c)),
                            _phi(sys3, 1, e(d)),
                        ),
                    )
                    assert got == want


def _generator_words(sys):
    d = sys.ring.dim
    return [embed(sys, kind, e(i, d)) for kind in ("R", "Q", "P") for i in range(d)]


def test_collapse_agrees_with_generic_evaluator(sys3):
    """The collapse and the evaluator agree on perm3 and on every
    non-diagonal kind, whose phi images have several nonzeros."""
    built = random.Random(1)
    systems = [sys3] + [non_diagonal_system(kind, built)[0] for kind in NON_DIAGONAL_KINDS]
    rng = random.Random(23)
    for system in systems:
        rep = crossed_representation(system)
        gens = _generator_words(system)
        for _ in range(80):
            w = rng.choice(gens)
            for _ in range(rng.randrange(0, 3)):
                w = toeplitz_mul(w, rng.choice(gens))
            if rng.random() < 0.4:
                w = w + rng.choice(gens)
            assert toeplitz_to_crossed(w) == evaluate(w, rep), system.name


def test_collapse_is_multiplicative_on_short_words(sys3):
    gens = _generator_words(sys3)
    # all pairs, then all triples grouped as (g1 g2) g3
    for g1 in gens:
        for g2 in gens:
            lhs = toeplitz_to_crossed(toeplitz_mul(g1, g2))
            assert lhs == cross_mul(toeplitz_to_crossed(g1), toeplitz_to_crossed(g2))
    rng = random.Random(5)
    for _ in range(120):
        g1, g2, g3 = (rng.choice(gens) for _ in range(3))
        w = toeplitz_mul(toeplitz_mul(g1, g2), g3)
        rhs = cross_mul(
            cross_mul(toeplitz_to_crossed(g1), toeplitz_to_crossed(g2)),
            toeplitz_to_crossed(g3),
        )
        assert toeplitz_to_crossed(w) == rhs


def test_cp_to_crossed_generator_images(sys3, ctx3):
    r = [F(2), F(-1), F(0)]
    assert cp_to_crossed(ctx3, embed(sys3, "R", r)) == CrossedElement(sys3, {0: r})
    assert cp_to_crossed(ctx3, embed(sys3, "Q", e(1))) == CrossedElement(sys3, {-1: e(1)})
    assert cp_to_crossed(ctx3, embed(sys3, "P", e(2))) == CrossedElement(sys3, {1: e(2)})
    assert cp_to_crossed(ctx3, ctx3.element(embed(sys3, "R", zero_vec(3)))).is_zero()


def test_covariance_becomes_total(sys3, ctx3):
    # T(q) S(p) stays at grade (1,1) in the Toeplitz ring but equals
    # iota_R(q phi^{-1}(p)) in the CP quotient; the collapse sees that.
    for b in range(3):
        for a in range(3):
            tq_sp = toeplitz_mul(embed(sys3, "Q", e(b)), embed(sys3, "P", e(a)))
            w = sys3.ring.multiply(list(e(b)), _phi(sys3, -1, e(a)))
            image = embed(sys3, "R", w)
            assert tq_sp.support() in ([], [(1, 1)])
            assert tq_sp != image or not any(w)
            assert cp_to_crossed(ctx3, tq_sp) == CrossedElement(sys3, {0: w})
            assert ctx3.element(tq_sp) == ctx3.element(image)


def test_relation_generators_collapse_to_zero(sys3, ctx3):
    gens = []
    for k in range(2):
        for l in range(2):
            gens.extend(relation_generators(ctx3, k, l))
    assert gens
    for g in gens:
        assert cp_to_crossed(ctx3, g).is_zero()
    # products with generators stay in the kernel
    probe = embed(sys3, "P", e(0))
    for g in gens[:6]:
        assert cp_to_crossed(ctx3, toeplitz_mul(probe, g)).is_zero()


def test_cp_equal_iff_crossed_equal(sys3, ctx3):
    rng = random.Random(41)
    gens = _generator_words(sys3)
    words = list(gens)
    for _ in range(10):
        w = rng.choice(gens)
        for _ in range(rng.randrange(1, 3)):
            w = toeplitz_mul(w, rng.choice(gens))
        words.append(w)
    seen_equal = seen_diff = 0
    for _ in range(30):
        a, b = rng.choice(words), rng.choice(words)
        structural = ctx3.element(a) == ctx3.element(b)
        closed_form = toeplitz_to_crossed(a) == toeplitz_to_crossed(b)
        assert structural == closed_form
        seen_equal += closed_form
        seen_diff += not closed_form
    assert seen_equal and seen_diff  # the battery exercised both verdicts


def test_cp_to_crossed_rejects_bad_contexts(sys3, ctx3):
    graph_sys = build_graph_system(rose_graph(1))
    gctx = CpContext(graph_sys, validate_ideal(graph_sys, Subspace.full(1)))
    with pytest.raises(ContextMismatch):
        cp_to_crossed(gctx, embed(graph_sys, "R", [F(1)]))
    small = CpContext(sys3, validate_ideal(sys3, Subspace(3, [])))
    with pytest.raises(ContextMismatch):
        cp_to_crossed(small, embed(sys3, "R", e(0)))
    other = CpContext(sys3, validate_ideal(sys3, Subspace.full(3)))
    with pytest.raises(ContextMismatch):
        cp_to_crossed(ctx3, other.element(embed(sys3, "R", e(0))))
    with pytest.raises(TypeError):
        cp_to_crossed(ctx3, object())
