import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    infinite_emitter_graph,
    is_acyclic,
    lpa_dim_total,
    lpa_dim_upto,
    quotient_graph,
    random_graph,
    three_vertex_two_cycle,
)
from cprings.rsystem import build_graph_system
from cprings.graphalg import (
    Edge,
    FiniteGraph,
    LpaElement,
    breaking_vertices,
    enumerate_hs,
    enumerate_ideal_pairs,
    graph_from_json,
    graph_to_json,
    hereditary_saturated_closure,
    is_hereditary_saturated,
    line_graph,
    lpa_mul,
    lpa_vertex,
    lpa_x,
    lpa_y,
    monomial,
    pair_order,
    rose_graph,
    special_edge,
    _normalize,
)

F = Fraction


def test_graph_basics():
    g = three_vertex_two_cycle()
    assert g.sinks() == ["c"]
    assert g.out_degree("a") == 2
    assert not is_acyclic(g)
    assert is_acyclic(line_graph(4))


def test_expand_multiplicities():
    g = FiniteGraph(["u", "v"], [Edge("e", "u", "v", 3)])
    ex = g.expand()
    assert [e.name for e in ex.edges] == ["e", "e#2", "e#3"]
    with pytest.raises(ValueError):
        infinite_emitter_graph().expand()


def test_infinite_multiplicity_is_refused_as_infinite():
    """`cpr` prints this message, so it is pinned byte for byte."""
    g = FiniteGraph(["u", "v"], [Edge("e", "u", "v", math.inf)])
    with pytest.raises(ValueError) as err:
        build_graph_system(g)
    assert str(err.value) == "edge e: infinite multiplicity is not supported algebraically"


def test_non_integral_multiplicity_is_refused_as_non_integral():
    g = FiniteGraph(["u", "v"], [Edge("e", "u", "v", 2.5)])
    with pytest.raises(ValueError) as err:
        build_graph_system(g)
    assert str(err.value) == "edge e: multiplicity 2.5 is not an integer"


def test_graph_json_roundtrip():
    g = infinite_emitter_graph()
    back = graph_from_json(graph_to_json(g))
    assert back.vertices == g.vertices
    assert [e.mult for e in back.edges] == [math.inf, 1]


def test_special_edge():
    g = line_graph(3)
    assert special_edge(g, "v1") == "e1"
    assert special_edge(g, "v3") is None
    assert special_edge(rose_graph(2), "v") == "l1"


def test_monomial_validation():
    g = line_graph(3)
    with pytest.raises(ValueError):
        monomial(g, ("e2", "e1"), ())  # not composable in that order
    with pytest.raises(ValueError):
        monomial(g, ("e1",), ("e1", "e2"))  # ranges differ
    with pytest.raises(ValueError):
        monomial(g, (), ())  # needs a vertex
    m = monomial(g, ("e1", "e2"), ())
    assert m.vertex == "v3"


# --- hand-checked rewriting -------------------------------------------------


def test_xe_ye_star_rewrites_to_vertex():
    # in line2, e1 is the only (hence special) edge at v1: x_e y_e^* = p_v1
    g = line_graph(2)
    prod = lpa_mul(lpa_x(g, "e1"), lpa_y(g, "e1"))
    assert prod == lpa_vertex(g, "v1")


def test_ye_star_xe_contracts_to_range():
    g = line_graph(2)
    prod = lpa_mul(lpa_y(g, "e1"), lpa_x(g, "e1"))
    assert prod == lpa_vertex(g, "v2")


def test_ck_relations_rose2():
    g = rose_graph(2)
    pv = lpa_vertex(g, "v")
    assert lpa_mul(lpa_y(g, "l1"), lpa_x(g, "l2")).is_zero()
    assert lpa_mul(lpa_y(g, "l1"), lpa_x(g, "l1")) == pv
    total = lpa_mul(lpa_x(g, "l1"), lpa_y(g, "l1")) + lpa_mul(lpa_x(g, "l2"), lpa_y(g, "l2"))
    assert total == pv  # the vertex relation itself


def test_vertex_relations():
    g = line_graph(3)
    x = lpa_x(g, "e1")
    assert lpa_mul(lpa_vertex(g, "v1"), x) == x
    assert lpa_mul(x, lpa_vertex(g, "v2")) == x
    assert lpa_mul(lpa_vertex(g, "v2"), x).is_zero()
    assert lpa_mul(lpa_vertex(g, "v1"), lpa_vertex(g, "v1")) == lpa_vertex(g, "v1")
    assert lpa_mul(lpa_vertex(g, "v1"), lpa_vertex(g, "v2")).is_zero()


def test_longer_word_reduces():
    # f(ef)^* in line3: x_(e2) y_(e1 e2)^* stays normal (ends e2 with distinct prefix),
    # while x_(e1 e2) y_(e1 e2)^* collapses to x_e1 y_e1^* collapses to p_v1
    g = line_graph(3)
    w = lpa_mul(lpa_x(g, "e1", "e2"), lpa_y(g, "e1", "e2"))
    assert w == lpa_vertex(g, "v1")


def test_dimension_line_graphs():
    # the Leavitt path algebra of the n-line is the n x n matrix algebra
    for n in (2, 3, 4):
        assert lpa_dim_total(line_graph(n)) == n * n


def test_dimension_rose():
    assert lpa_dim_total(rose_graph(1)) == math.inf
    # Laurent polynomials: 1, x^a, (x^*)^b: 2L+1 monomials up to total length L
    assert lpa_dim_upto(rose_graph(1), 3) == 7


def test_line3_basis_monomial_count_by_hand():
    # ending at v_j: 1 empty pair + 2(j-1) one-sided pairs
    assert lpa_dim_upto(line_graph(3), 100) == 9


# --- randomized algebra laws -------------------------------------------------


def _random_element(rng, g, max_terms=3, max_len=2):
    paths = [((), v) for v in g.vertices]
    for _ in range(max_len):
        paths += [
            (p + (e.name,), e.tgt)
            for (p, v) in paths
            for e in g.out_edges(v)
        ]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha, va = rng.choice(paths)
        betas = [(p, v) for (p, v) in paths if v == va]
        beta, _ = rng.choice(betas)
        m = monomial(g, alpha, beta, va)
        terms[m] = terms.get(m, F(0)) + F(rng.randint(-3, 3))
    return LpaElement(g, terms)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lpa_associativity_random(seed):
    rng = random.Random(seed)
    g = three_vertex_two_cycle()
    a, b, c = (_random_element(rng, g) for _ in range(3))
    assert lpa_mul(lpa_mul(a, b), c) == lpa_mul(a, lpa_mul(b, c))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lpa_distributivity_random(seed):
    rng = random.Random(seed)
    g = rose_graph(2)
    a, b, c = (_random_element(rng, g) for _ in range(3))
    assert lpa_mul(a, b + c) == lpa_mul(a, b) + lpa_mul(a, c)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_normalization_confluence_random(seed):
    # rewriting order must not matter
    rng = random.Random(seed)
    g = three_vertex_two_cycle()
    e = _random_element(rng, g, max_terms=4, max_len=3)
    raw = dict(e.terms)
    assert _normalize(g, raw, order="min") == _normalize(g, raw, order="max")


# --- hereditary / saturated machinery ----------------------------------------


def test_closure_line3():
    g = line_graph(3)
    # v2 pulls in v3 (hereditary), then v1 is saturated in
    assert hereditary_saturated_closure(g, {"v2"}) == frozenset({"v1", "v2", "v3"})
    assert enumerate_hs(g) == [frozenset(), frozenset({"v1", "v2", "v3"})]


def test_enumerate_hs_vs_bruteforce_random():
    rng = random.Random(20260815)
    for _ in range(25):
        g = random_graph(rng, max_v=6, max_e=8)
        fast = set(enumerate_hs(g))
        brute = {
            frozenset(sub)
            for r in range(len(g.vertices) + 1)
            for sub in itertools.combinations(g.vertices, r)
            if is_hereditary_saturated(g, frozenset(sub))
        }
        assert fast == brute


def test_infinite_emitter_fixture_counts():
    g = infinite_emitter_graph()
    hs = enumerate_hs(g)
    # hand count: {}, {h0}, {w}, {h0,w}, {v,w,h0}; v is not regular, so no saturation
    assert len(hs) == 5
    assert breaking_vertices(g, frozenset({"h0"})) == frozenset({"v"})
    assert breaking_vertices(g, frozenset()) == frozenset()
    pairs = enumerate_ideal_pairs(g)
    assert len(pairs) == 6


def test_pair_order_is_partial_order():
    g = infinite_emitter_graph()
    pairs = enumerate_ideal_pairs(g)
    for p in pairs:
        assert pair_order(p, p)
    for p, q in itertools.product(pairs, repeat=2):
        if pair_order(p, q) and pair_order(q, p):
            assert p == q
    for p, q, r in itertools.product(pairs, repeat=3):
        if pair_order(p, q) and pair_order(q, r):
            assert pair_order(p, r)


def test_quotient_graph():
    g = line_graph(3)
    q = quotient_graph(g, frozenset({"v1", "v2", "v3"}))
    assert q.vertices == ()
    with pytest.raises(ValueError):
        quotient_graph(g, frozenset({"v3"}))  # not saturated
    g2 = three_vertex_two_cycle()
    h = hereditary_saturated_closure(g2, {"c"})
    assert h == frozenset({"c"})
    q2 = quotient_graph(g2, h)
    assert set(q2.vertices) == {"a", "b"}
    assert {e.name for e in q2.edges} == {"e_ab", "e_ba"}
