"""Tensor power construction, concatenation maps, iterated pairing.

The closed forms used as oracles:

* A2 (single edge u -> v): no two edges compose, so both legs die at level 2.
* line3: exactly one composable pair, Q^2 and P^2 are one-dimensional, and
  psi_2(y-word (x) x-word) for the full path is the far vertex.
* perm3 (ring automorphism from a 3-cycle): all levels stay 3-dimensional and
  psi_2(e_a (x) e_b, e_c (x) e_d) = e_a phi(e_b) phi^2(e_c) phi(e_d),
  computed here against the permutation directly.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    _project_kron,
    dual_numbers_ring,
    dual_numbers_unit_basis_ring,
    basis_element,
    concat_class,
    dense,
    dense_balanced_quotient,
    five_vertex_mixed,
    matrix2_ring,
    module_tensor,
    non_diagonal_system,
    path_element,
    perm3_system,
    project,
    psi_zero_system,
    random_graph,
    random_permutation_system,
    rebased_legs,
    three_vertex_two_cycle,
    word_class,
    mat_identity,
)

from cprings import exactlin, tensorpow, toeplitz
from cprings.exactlin import (
    unit_vec,
    zero_vec,
    is_zero_vec,
)
from cprings.rsystem import build_automorphism_system, build_graph_system
from cprings.graphalg import cycle_graph, rose_graph
from cprings.tensorpow import (
    CapExceeded,
    balanced_quotient,
    psi_apply,
    psi_n,
    tensor_space,
)
from cprings.toeplitz import component_space, embed_n, fock_apply, toeplitz_mul


def test_a2_level2_vanishes(a2_system):
    assert tensor_space(a2_system, "Q", 2).dim == 0
    assert tensor_space(a2_system, "P", 2).dim == 0
    assert psi_n(a2_system, 2) == ()


def test_level0_is_ring(line3_system):
    sp = tensor_space(line3_system, "Q", 0)
    assert sp.dim == 3
    # left action at level 0 is ring multiplication
    v1 = unit_vec(3, 0)
    assert sp.act_left(v1, v1) == v1
    assert sp.act_left(v1, unit_vec(3, 1)) == zero_vec(3)


def test_line3_level2_classes(line3_system):
    q2 = tensor_space(line3_system, "Q", 2)
    p2 = tensor_space(line3_system, "P", 2)
    assert q2.dim == 1 and p2.dim == 1
    e1, e2 = unit_vec(2, 0), unit_vec(2, 1)
    # only the composable word e1e2 survives on the Q side
    assert not is_zero_vec(_project_kron(q2.quot, e1, e2))
    assert is_zero_vec(_project_kron(q2.quot, e2, e1))
    assert is_zero_vec(_project_kron(q2.quot, e1, e1))
    assert is_zero_vec(_project_kron(q2.quot, e2, e2))
    # reversed-edge side composes the other way around
    assert not is_zero_vec(_project_kron(p2.quot, e2, e1))
    assert is_zero_vec(_project_kron(p2.quot, e1, e2))


def test_line3_psi2_full_path(line3_system):
    p = path_element(line3_system, "P", ["e2", "e1"])
    q = path_element(line3_system, "Q", ["e1", "e2"])
    # y(e1 e2) x(e1 e2) collapses to the vertex the path ends at
    assert psi_apply(line3_system, 2, p.coords, q.coords) == unit_vec(3, 2)


def test_psi0_and_psi1(perm3):
    """psi_0(e_i (x) e_j) = e_i e_j, in that order: the matrix units do not commute."""
    for system in (perm3, build_automorphism_system(matrix2_ring(), mat_identity(4))):
        n = system.ring.dim
        t0 = psi_n(system, 0)
        for i in range(n):
            for j in range(n):
                assert dense([t0[i][j]], n) == [[x] for x in system.ring.mult[i][j]]
                assert psi_apply(system, 0, unit_vec(n, i), unit_vec(n, j)) == list(system.ring.mult[i][j])
        assert psi_n(system, 1) is system.psi._table_nz


def test_perm3_dims_stable(perm3):
    for side in ("P", "Q"):
        for n in range(5):
            assert tensor_space(perm3, side, n).dim == 3


def test_perm3_psi2_closed_form(perm3):
    s = lambda j: (j + 1) % 3  # phi permutes basis indices by +1
    lab = lambda i: f"v{i + 1}"
    for a in range(3):
        for b in range(3):
            p = path_element(perm3, "P", [lab(a), lab(b)])
            for c in range(3):
                for d in range(3):
                    q = path_element(perm3, "Q", [lab(c), lab(d)])
                    got = psi_apply(perm3, 2, p.coords, q.coords)
                    if s(b) == a and s(s(c)) == a and s(d) == a:
                        assert got == unit_vec(3, a), (a, b, c, d)
                    else:
                        assert is_zero_vec(got), (a, b, c, d)


def _check_concat_associative(system, triples):
    """(x y) z == x (y z) under concat_class, on all basis vectors x, y, z of levels k, l, m."""
    for (k, l, m) in triples:
        for side in ("P", "Q"):
            dims = [tensor_space(system, side, n).dim for n in (k, l, m)]
            for x, y, z in itertools.product(*(range(d) for d in dims)):
                ux, uy, uz = (unit_vec(d, i) for d, i in zip(dims, (x, y, z)))
                lhs = concat_class(system, side, k + l, concat_class(system, side, k, ux, l, uy), m, uz)
                rhs = concat_class(system, side, k, ux, l + m, concat_class(system, side, l, uy, m, uz))
                assert lhs == rhs, (side, k, l, m, x, y, z)


def test_embed_associativity_perm3(perm3):
    _check_concat_associative(perm3, [(1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 1, 1), (1, 2, 1), (1, 1, 2)])


def test_embed_associativity_line3(line3_system):
    _check_concat_associative(line3_system, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])


def test_embed_concatenates_words_rose2():
    """rose2 levels have dimensions 2, 4, 8, 16, so embed(k, l) with k != l - 1
    meets factors of different sizes; on words it must be concatenation."""
    system = build_graph_system(rose_graph(2))
    for side, mod in (("Q", system.q), ("P", system.p)):
        for n in range(2, 5):
            for word in itertools.product(mod.labels, repeat=n):
                full = list(path_element(system, side, word).coords)
                for k in range(1, n):
                    left = path_element(system, side, word[:k]).coords
                    right = path_element(system, side, word[k:]).coords
                    got = concat_class(system, side, k, left, n - k, right)
                    assert got == full, (side, word, k)


SYSTEMS = {
    "rose2": lambda: build_graph_system(rose_graph(2)),
    "perm3": perm3_system,
    "5v-mixed": lambda: build_graph_system(five_vertex_mixed()),
    "dual": lambda: build_automorphism_system(dual_numbers_ring(), mat_identity(2)),
    "matrix2": lambda: build_automorphism_system(matrix2_ring(), mat_identity(4)),
    "dual-1u": lambda: build_automorphism_system(dual_numbers_unit_basis_ring(), mat_identity(2)),
}


@pytest.mark.parametrize("name", ["rose2", "perm3", "5v-mixed", "dual", "matrix2", "dual-1u"])
def test_words_name_their_classes(name):
    """Basis class t is the class of the pure tensor of words[t], and the words
    of a level extend those of the level below by one letter."""
    system = SYSTEMS[name]()
    for side in ("Q", "P"):
        for n in range(1, 5):
            sp = tensor_space(system, side, n)
            assert len(sp.words) == sp.dim and all(len(w) == n for w in sp.words)
            for t, word in enumerate(sp.words):
                assert list(word_class(system, side, word)) == unit_vec(sp.dim, t), (side, n, word)
            if n > 1:
                assert {w[:-1] for w in sp.words} <= set(tensor_space(system, side, n - 1).words)


def _psi_fold(system, pword, qword):
    """psi_n on the pure tensors of two words, from level-1 psi and the P action:
    psi_n(p1 p' (x) q' qn) = psi(p1 . psi_(n-1)(p' (x) q') (x) qn)."""
    e_p = unit_vec(system.p.dim, pword[0])
    e_q = unit_vec(system.q.dim, qword[-1])
    if len(pword) == 1:
        return psi_apply(system, 1, e_p, e_q)
    inner = _psi_fold(system, pword[1:], qword[:-1])
    return psi_apply(system, 1, system.p.act_right(e_p, inner), e_q)


@pytest.mark.parametrize("name", ["perm3", "5v-mixed", "dual", "matrix2", "dual-1u"])
def test_psi_n_is_the_fold_of_psi(name):
    """On every pair of words, including those whose class is not a basis vector."""
    system = SYSTEMS[name]()
    for n in (2, 3):
        pwords = list(itertools.product(range(system.p.dim), repeat=n))
        qwords = list(itertools.product(range(system.q.dim), repeat=n))
        for pw in pwords:
            p = word_class(system, "P", pw)
            for qw in qwords:
                got = psi_apply(system, n, p, word_class(system, "Q", qw))
                assert got == _psi_fold(system, pw, qw), (n, pw, qw)


def test_concatenation_is_balanced(mixed5):
    system = build_graph_system(mixed5)
    d_r = system.ring.dim
    for side in ("P", "Q"):
        sp1 = tensor_space(system, side, 1)
        for i in range(d_r):
            r = unit_vec(d_r, i)
            for a in range(sp1.dim):
                xa = unit_vec(sp1.dim, a)
                for b in range(sp1.dim):
                    yb = unit_vec(sp1.dim, b)
                    lhs = concat_class(system, side, 1, sp1.act_right(xa, r), 1, yb)
                    rhs = concat_class(system, side, 1, xa, 1, sp1.act_left(r, yb))
                    assert lhs == rhs


def test_rose4_level5_fits_in_memory():
    """Rose4's Q^5 has 1024 basis classes; each action is 1024 columns of one
    nonzero, not a dense 1024 x 1024 matrix (26 MiB traced for the two)."""
    system = build_graph_system(rose_graph(4))
    tracemalloc.start()
    try:
        sp = tensor_space(system, "Q", 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert sp.dim == 1024
    assert sp.left[0][5] == sp.right[0][5] == ((5, 1),)


def test_rose1_stays_one_dimensional(rose1):
    system = build_graph_system(rose1)
    for n in range(1, 6):
        assert tensor_space(system, "Q", n).dim == 1
        assert tensor_space(system, "P", n).dim == 1
        assert psi_apply(system, n, unit_vec(1, 0), unit_vec(1, 0)) == unit_vec(1, 0)


def test_deep_pairing_needs_no_stack_per_level(rose1):
    """psi_n and the tensor levels are built bottom-up in loops, so level
    1500 (above the interpreter's recursion limit) is reached."""
    system = build_graph_system(rose1)
    assert psi_apply(system, 1500, unit_vec(1, 0), unit_vec(1, 0)) == unit_vec(1, 0)


def test_zero_pairing_iterates_to_zero():
    system = psi_zero_system()
    assert tensor_space(system, "Q", 2).dim == 2
    table = psi_n(system, 2)
    assert len(table) == 2
    for row in table:
        assert row == ((), ())


def test_cap_enforced(line3_system):
    # the builders make any level they are named (it happens to be zero here)
    assert tensor_space(line3_system, "Q", 4).dim == 0
    assert psi_n(line3_system, 7) == ()
    # the cap binds where an operation creates a level: products and Fock blocks
    rose1 = build_graph_system(rose_graph(1))
    q3 = embed_n(rose1, "Q", 3, [1])
    with pytest.raises(CapExceeded):
        toeplitz_mul(q3, q3, cap=5)
    assert toeplitz_mul(q3, q3).support() == [(6, 0)]
    with pytest.raises(CapExceeded):
        fock_apply(q3, 4)
    assert list(fock_apply(q3, 3)) == [6]


def test_module_element_ops(perm3):
    x = basis_element(perm3, "Q", 1, 0)
    y = basis_element(perm3, "Q", 1, 1)
    z = basis_element(perm3, "Q", 1, 2)
    left = module_tensor(module_tensor(x, y), z)
    right = module_tensor(x, module_tensor(y, z))
    assert left.coords == right.coords and left.level == 3
    w = x.add(y.scale(3))
    assert w.coords == (1, 3, 0)
    with pytest.raises(ValueError):
        x.add(basis_element(perm3, "P", 1, 0))


def test_path_element_matches_embed(line3_system):
    manual = concat_class(line3_system, "Q", 1, unit_vec(2, 0), 1, unit_vec(2, 1))
    assert list(path_element(line3_system, "Q", ["e1", "e2"]).coords) == manual


def _family(name):
    """Fresh systems of one family: graph systems, permutation systems, graph
    and permutation systems with their legs re-presented (`rebased_legs`,
    relations with several entries), and automorphism systems of
    non-diagonal algebras in random bases."""
    rng = random.Random(f"balanced/{name}")
    graphs = [three_vertex_two_cycle(), five_vertex_mixed(), rose_graph(2), cycle_graph(3)]
    graphs += [random_graph(rng, max_v=4, max_e=5) for _ in range(4)]
    if name == "graph":
        return [build_graph_system(g) for g in graphs]
    perms = [perm3_system()] + [random_permutation_system(rng, max_n=4) for _ in range(3)]
    if name == "permutation":
        return perms
    if name == "rebased":
        return [rebased_legs(build_graph_system(g), rng) for g in graphs] + [rebased_legs(s, rng) for s in perms]
    fixed = [build_automorphism_system(ring(), mat_identity(ring().dim))
             for ring in (dual_numbers_ring, dual_numbers_unit_basis_ring, matrix2_ring)]
    return fixed + [non_diagonal_system(kind, random.Random(seed))[0]
                    for seed in (1, 2) for kind in ("diagonal", "dual", "upper", "matrix2")]


def _quotient_cases(system):
    """(where, arguments of `balanced_quotient`, the quotient stored there)
    for levels 2 and 3 of both legs (level 1 is the module itself) and the
    mixed components up to (3, 3)."""
    for side in "QP":
        mod = tensor_space(system, side, 1)
        for n in (2, 3):
            prev = tensor_space(system, side, n - 1)
            yield (side, n), (prev.right, prev.dim, mod.left, mod.dim), tensor_space(system, side, n).quot
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            qm, pn = tensor_space(system, "Q", m), tensor_space(system, "P", n)
            yield (m, n), (qm.right, qm.dim, pn.left, pn.dim), component_space(system, m, n).quot


FAMILIES = ("graph", "permutation", "rebased", "non-diagonal")


@pytest.mark.parametrize("family", FAMILIES)
def test_balanced_quotient_matches_dense_elimination(family):
    """The sparse construction keeps the free coordinates of the dense
    elimination of every relation row and gives every coordinate, and random
    vectors, the same class."""
    rng = random.Random(family)
    for system in _family(family):
        for where, args, stored in _quotient_cases(system):
            new, old = balanced_quotient(*args), dense_balanced_quotient(*args)
            label = (system.name, where)
            assert tuple(new.free) == tuple(old.free), label
            if stored is not None:
                assert tuple(stored.free) == tuple(old.free), label
            n = new.ambient
            for j in range(n):
                assert new.project_nz(((j, 1),)) == old.project_nz(((j, 1),)), (label, j)
            for _ in range(4):
                support = sorted(rng.sample(range(n), min(n, rng.randint(1, 6)))) if n else []
                pairs = [(j, Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))) for j in support]
                assert new.project_nz(pairs) == old.project_nz(pairs), label


def test_balanced_quotient_matches_dense_elimination_on_random_columns():
    """The same on random action columns, which need not come from a system:
    empty, c e_k at their own index k (with several c), one entry elsewhere,
    or several entries."""
    rng = random.Random(3131)

    def column(k, d):
        kind = rng.randrange(4)
        if kind == 0 or d == 0:
            return ()
        if kind == 1:
            return ((k, rng.choice((1, 1, -1, 2))),)
        if kind == 2:
            return ((rng.randrange(d), rng.choice((1, -1, 3))),)
        return tuple((j, rng.choice((1, -2, Fraction(1, 2)))) for j in sorted(rng.sample(range(d), min(d, 2))))

    for _ in range(150):
        d_r, a_dim, b_dim = rng.randint(1, 3), rng.randint(0, 4), rng.randint(0, 4)
        a_right = [[column(a, a_dim) for a in range(a_dim)] for _ in range(d_r)]
        b_left = [[column(b, b_dim) for b in range(b_dim)] for _ in range(d_r)]
        args = (a_right, a_dim, b_left, b_dim)
        new, old = balanced_quotient(*args), dense_balanced_quotient(*args)
        assert tuple(new.free) == tuple(old.free), (a_right, b_left)
        for j in range(new.ambient):
            assert new.project_nz(((j, 1),)) == old.project_nz(((j, 1),)), (a_right, b_left, j)


@pytest.mark.parametrize("family, eliminates", [("graph", False), ("permutation", False),
                                                ("rebased", True), ("non-diagonal", True)])
def test_corner_bases_build_levels_without_elimination(family, eliminates, monkeypatch):
    """Over a diagonal ring with a corner basis every balancing relation is
    0 or +-1 times one coordinate, so the levels up to 3 and the components
    up to (3, 3) are built with no `rref` call; with the legs re-presented,
    or over a non-diagonal ring, some relation has several entries and is
    eliminated (which shows the count sees the calls)."""
    systems = _family(family)  # built before counting: building a system may eliminate
    calls, quotients = [], []
    real_rref, real_quotient = exactlin.rref, tensorpow.balanced_quotient
    monkeypatch.setattr(exactlin, "rref", lambda rows: calls.append(len(rows)) or real_rref(rows))

    def counting(*args):
        quotients.append(args)
        return real_quotient(*args)

    monkeypatch.setattr(tensorpow, "balanced_quotient", counting)
    monkeypatch.setattr(toeplitz, "balanced_quotient", counting)
    for system in systems:
        for side in "QP":
            tensor_space(system, side, 3)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                component_space(system, m, n)
    assert quotients
    assert bool(calls) == eliminates, calls


def test_no_relation_is_the_identity():
    """A rose has one vertex, so every balancing relation is 0: each level and
    component is the identity quotient and holds no class table."""
    system = build_graph_system(rose_graph(3))
    quotients = [tensor_space(system, side, n).quot for side in "QP" for n in (2, 3)]
    quotients += [component_space(system, m, n).quot for m in (1, 2) for n in (1, 2)]
    for quot in quotients:
        assert quot.free == range(quot.ambient) and quot._classes is None
        assert quot.project_nz([(5, 2), (1, 1), (5, -2)]) == ((1, 1),)
        assert project(quot, [(3, 1)]) == unit_vec(quot.ambient, 3)
