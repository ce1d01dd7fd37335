"""The exact Fock membership test against the stabilization search it replaced.

On seeded random graph and permutation systems, at J = j_max, at a proper
sub-ideal of j_max and at J = 0, `in_relation_ideal` must give the verdict of
the old windowed search (`stabilized_search.py`) on random elements, on the
members built for each of the three ideals and on perturbed members, except
where the search hits its cap.  Every product
a g b with g from `relation_generators` must be accepted.  Roses stay out of
the comparison because the search takes seconds on them; C08 checks roses
against the Leavitt closed form instead.
"""

import random

from conftest import random_graph, random_graph_element, random_permutation_system
from stabilized_search import search_in_relation_ideal

from cprings.cpring import CpContext, in_relation_ideal, relation_generators, validate_ideal
from cprings.exactlin import Subspace
from cprings.finrank import canonical_ideals
from cprings.rsystem import build_graph_system
from cprings.tensorpow import CapExceeded
from cprings.toeplitz import toeplitz_mul


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
    rng = random.Random(seed)
    out = []
    while len(out) < 4:
        graph = random_graph(rng, max_v=4, max_e=5)
        if graph.edges and not _on_two_cycles(graph):
            out.append(build_graph_system(graph))
    for _ in range(2):
        out.append(random_permutation_system(rng, max_n=4))
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


def test_fock_membership_matches_search():
    compared = capped = accepted = 0
    verdicts = set()
    for seed in (1, 2, 3, 4):
        rng, systems = _systems(seed)
        for system in systems:
            contexts = _contexts(rng, system)
            members = [_members(rng, ctx, 4) for ctx in contexts]
            for ctx, own in zip(contexts, members):
                for m in own:
                    assert in_relation_ideal(ctx, m)
                    accepted += 1
            # a member for a larger J is a case for a smaller one
            everyone = [m for own in members for m in own]
            for ctx in contexts:
                cases = [random_graph_element(rng, system) for _ in range(6)] + everyone
                cases += [m.add(random_graph_element(rng, system, ctx_free_degree=1)) for m in everyone]
                for x in cases:
                    try:
                        old = search_in_relation_ideal(ctx, x)
                    except CapExceeded:
                        capped += 1
                        continue
                    new = in_relation_ideal(ctx, x)
                    assert new == old, (system.name, ctx.j.ideal.basis(), x)
                    compared += 1
                    verdicts.add(new)
    assert verdicts == {True, False}
    assert compared >= 400 and accepted >= 150, (compared, capped, accepted)
