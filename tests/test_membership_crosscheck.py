"""The exact Fock membership test against exact oracles.

On seeded random graph and permutation systems, at J = j_max, at a proper
sub-ideal of j_max and at J = 0, `in_relation_ideal` is run on random
elements, on the members built for each of the three ideals and on perturbed
members, each at every one of the system's contexts.  Its verdicts must agree
with four facts that do not go through the Fock representation:

* T(0) = 0, so at J = 0 an element is a member exactly when it is zero;
* T(J') <= T(J) for J' <= J, so a member at J' is a member at J;
* a graph system's O(j_max) is its Leavitt path algebra, so at j_max an
  element is a member exactly when its Leavitt normal form is zero;
* a permutation system's O(R) is the crossed product R x_phi Z (j_max is R
  there), so an element is a member exactly when `cp_to_crossed` sends it to 0.

Every product a g b with g from `relation_generators` must be accepted.  The
graphs avoid vertices on two cycles (roses); C08 checks roses against the
Leavitt closed form.

The same facts are checked over rings that are not diagonal: automorphism
systems of random changes of basis of Q^n, the dual numbers, the upper
triangular 2x2 matrices and M_2(Q), with random automorphisms.  There a
balancing relation has several nonzero entries, so the class of a word is in
general a combination of several basis classes, and the RREF rows that
`QuotientSpace.project` reads have support.  Members are built as x - y, where
y rewrites x through the covariance relation
iota_R(r) = sum c_ab iota_Q(e_a) iota_P(e_b), r in J.
"""

import random
from fractions import Fraction as F

from conftest import (
    non_diagonal_system,
    random_graph,
    random_graph_element,
    random_permutation_system,
    relation_generators,
)

from cprings.cpring import CpContext, in_relation_ideal, validate_ideal
from cprings.crossedprod import cp_to_crossed
from cprings.exactlin import Subspace, unit_vec
from cprings.finrank import canonical_ideals, theta_decomposition
from cprings.graphalg import LpaElement, LpaTarget
from cprings.rsystem import build_graph_system
from cprings.toeplitz import ToeplitzElement, embed, evaluate, toeplitz_mul


def _on_two_cycles(graph) -> bool:
    """Does some vertex lie on two distinct cycles (so paths grow exponentially, as in a rose)?"""
    verts = list(graph.vertices)
    reach = {(u, v): u == v for u in verts for v in verts}
    for e in graph.edges:
        reach[(e.src, e.tgt)] = True
    for w in verts:
        for u in verts:
            for v in verts:
                reach[(u, v)] = reach[(u, v)] or (reach[(u, w)] and reach[(w, v)])
    returning = [e.src for e in graph.edges if reach[(e.tgt, e.src)]]
    return len(returning) != len(set(returning))


def _systems(seed):
    """(system, closed-form test at j_max) pairs: four graph systems, two permutation systems."""
    rng = random.Random(seed)
    out = []
    while len(out) < 4:
        graph = random_graph(rng, max_v=4, max_e=5)
        if graph.edges and not _on_two_cycles(graph):
            system = build_graph_system(graph)
            zero, rep = LpaElement(graph, {}), LpaTarget(graph, system)
            out.append((system, lambda ctx, x, rep=rep, zero=zero: evaluate(x, rep) == zero))
    for _ in range(2):
        out.append((random_permutation_system(rng, max_n=4),
                    lambda ctx, x: cp_to_crossed(ctx, x).is_zero()))
    return rng, out


def _contexts(rng, system):
    """Contexts at j_max, at a proper sub-ideal of it (when there is one) and at 0."""
    d = system.ring.dim
    jmax = canonical_ideals(system)["j_max"]
    ideals = [jmax, Subspace(d)]
    if jmax.dim > 1:
        # over a diagonal ring every subset of the basis idempotents spans an ideal
        keep = rng.sample(jmax.basis(), rng.randint(1, jmax.dim - 1))
        ideals.insert(1, Subspace(d, keep))
    out = []
    for ideal in ideals:
        j = validate_ideal(system, ideal)
        assert j.ok
        out.append(CpContext(system, j))
    return out


def _members(rng, ctx, count):
    """Products a g b of random degree-1 elements with relation generators."""
    gens = [g for k in range(2) for l in range(2) for g in relation_generators(ctx, k, l)]
    out = []
    if not gens:
        return out
    for _ in range(count):
        a = random_graph_element(rng, ctx.system, ctx_free_degree=1)
        b = random_graph_element(rng, ctx.system, ctx_free_degree=1)
        out.append(toeplitz_mul(toeplitz_mul(a, rng.choice(gens)), b))
    return out


def test_fock_membership_matches_exact_oracles():
    checked = accepted = 0
    verdicts = set()
    for seed in (1, 2, 3, 4):
        rng, systems = _systems(seed)
        for system, closed_form in systems:
            contexts = _contexts(rng, system)  # j_max, (a sub-ideal,) 0
            members = [_members(rng, ctx, 4) for ctx in contexts]
            for ctx, own in zip(contexts, members):
                for m in own:
                    assert in_relation_ideal(ctx, m)
                    accepted += 1
            # a member for a larger J is a case for a smaller one
            everyone = [m for own in members for m in own]
            for _ in contexts:
                cases = [random_graph_element(rng, system) for _ in range(6)] + everyone
                cases += [m.add(random_graph_element(rng, system, ctx_free_degree=1)) for m in everyone]
                for x in cases:
                    got = [in_relation_ideal(ctx, x) for ctx in contexts]
                    where = (system.name, x)
                    assert got[0] == closed_form(contexts[0], x), where
                    assert got[-1] == x.is_zero(), where
                    assert all(big or not small for big, small in zip(got, got[1:])), where
                    checked += 1
                    verdicts.update(got)
    assert verdicts == {True, False}
    assert checked >= 400 and accepted >= 150, (checked, accepted)


# ---------------------------------------------------------------------------
# rings that are not diagonal


def _word(rng, system, kinds):
    """A product of generators of the given kinds, with small random coordinates."""
    out = None
    for kind in kinds:
        d = {"R": system.ring, "Q": system.q, "P": system.p}[kind].dim
        g = embed(system, kind, [F(rng.randint(-2, 2)) for _ in range(d)])
        out = g if out is None else toeplitz_mul(out, g)
    return out


def _random_word(rng, system, low, high):
    return _word(rng, system, rng.choices("RQP", k=rng.randint(low, high)))


def _covariance_rhs(system, r):
    """sum c_ab iota_Q(e_a) iota_P(e_b) for Delta(r) = sum c_ab theta_{e_a, e_b}."""
    dq, dp = system.q.dim, system.p.dim
    c = theta_decomposition(system, r)
    out = ToeplitzElement(system)
    for a in range(dq):
        for b in range(dp):
            if c[a * dp + b]:
                qp = toeplitz_mul(embed(system, "Q", unit_vec(dq, a)), embed(system, "P", unit_vec(dp, b)))
                out = out.add(qp.scale(c[a * dp + b]))
    return out


def _rewrites(rng, ctx, count):
    """x - y with y the word x = u iota_R(r) v, r in J, in which iota_R(r) is
    rewritten by the covariance relation."""
    system = ctx.system
    basis = ctx.j.ideal.basis()
    out = []
    for _ in range(count if basis else 0):
        coeffs = [F(rng.randint(-2, 2)) for _ in basis]
        r = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(system.ring.dim)]
        u, v = _random_word(rng, system, 1, 2), _random_word(rng, system, 1, 2)
        x = toeplitz_mul(toeplitz_mul(u, embed(system, "R", r)), v)
        y = toeplitz_mul(toeplitz_mul(u, _covariance_rhs(system, r)), v)
        out.append(x.sub(y))
    return out


def test_membership_over_non_diagonal_rings():
    checked = 0
    verdicts = set()
    for seed in (1, 2):
        rng = random.Random(seed)
        for kind in ("diagonal", "dual", "upper", "matrix2"):
            system, proper = non_diagonal_system(kind, rng)
            d = system.ring.dim
            assert canonical_ideals(system)["j_max"] == Subspace.full(d)
            ideals = [Subspace.full(d)] + ([rng.choice(proper)] if proper else []) + [Subspace(d)]
            contexts = []
            for ideal in ideals:
                j = validate_ideal(system, ideal)
                assert j.ok
                contexts.append(CpContext(system, j))
            members = [_rewrites(rng, ctx, 5) for ctx in contexts]
            for ctx, own in zip(contexts, members):
                for m in own:
                    assert in_relation_ideal(ctx, m), (system.name, m)
            everyone = [m for own in members for m in own]
            cases = everyone + [m.add(_random_word(rng, system, 1, 2)) for m in everyone]
            cases += [_random_word(rng, system, 1, 3) for _ in range(8)]
            for x in cases:
                got = [in_relation_ideal(ctx, x) for ctx in contexts]
                where = (system.name, x)
                assert got[0] == cp_to_crossed(contexts[0], x).is_zero(), where
                assert got[-1] == x.is_zero(), where
                assert all(big or not small for big, small in zip(got, got[1:])), where
                checked += 1
                verdicts.add(got[0])
    assert verdicts == {True, False}
    assert checked >= 150, checked


def test_deep_words_over_non_diagonal_rings():
    """Contractions and annihilators cut a basis word into a head and a tail.
    Products that cut words of three letters must collapse like the crossed
    product, and members of degree 3 must be accepted."""
    rng = random.Random(11)
    for kind in ("diagonal", "dual", "upper", "matrix2"):
        system, _ = non_diagonal_system(kind, rng)
        ctx = CpContext(system, validate_ideal(system, Subspace.full(system.ring.dim)))
        for left, right in (("PPP", "QQ"), ("PP", "QQQ"), ("QPPP", "QQ"), ("PP", "QQQP")):
            a, b = _word(rng, system, left), _word(rng, system, right)
            ab = toeplitz_mul(a, b)
            assert cp_to_crossed(ctx, ab) == cp_to_crossed(ctx, a) * cp_to_crossed(ctx, b), (system.name, left, right)
        for _ in range(3):
            u, v = _word(rng, system, "QQQ"), _word(rng, system, "PPP")
            r = [F(rng.randint(-2, 2)) for _ in range(system.ring.dim)]
            core = embed(system, "R", r).sub(_covariance_rhs(system, r))
            member = toeplitz_mul(toeplitz_mul(u, core), v)
            assert in_relation_ideal(ctx, member), system.name
            for x in (member, member.add(toeplitz_mul(u, v))):
                assert in_relation_ideal(ctx, x) == cp_to_crossed(ctx, x).is_zero(), system.name
