"""Acceptance gate: eleven end-to-end criteria, one test per criterion.

Each test prints a single "[C##] ... PASS/FAIL" line to the real terminal
(bypassing pytest capture) and asserts the same condition, so a plain
`pytest -v` run shows every verdict and failures stay loud.

Oracles are independent of the code under test wherever a criterion is about
cross-validation: brute-force subset filters for vertex-set lattices, the
Leavitt path algebra and crossed-product closed forms for CP equality, the
truncated Fock action for Toeplitz zero-detection, and hand-counted dimension
formulas for the matrix/Laurent presets.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from conftest import (
    a2_graph,
    five_vertex_mixed,
    fock_is_zero,
    gauge,
    homogeneous_components,
    infinite_emitter_graph,
    lpa_dim_total,
    lpa_dim_upto,
    perm3_system,
    random_graph,
    random_graph_element,
    random_permutation_system,
    relation_generators,
    three_vertex_two_cycle,
)

from cprings.cpring import (
    CpContext,
    cp_equal,
    graded_uniqueness_check,
    in_relation_ideal,
    validate_ideal,
)
from cprings.crossedprod import toeplitz_to_crossed
from cprings.exactlin import Subspace, unit_vec
from cprings.finrank import canonical_ideals, check_fs
from cprings.graphalg import (
    LpaElement,
    _normalize,
    _raw_product,
    cycle_graph,
    enumerate_hs,
    enumerate_ideal_pairs,
    line_graph,
    lpa_mul,
    lpa_vertex,
    lpa_x,
    lpa_y,
    rose_graph,
)
from cprings.ideals import (
    enumerate_tpairs,
    extract_tpair_from_handle,
    graded_ideal_correspondence,
    validate_tpair,
)
from cprings.rsystem import build_graph_system, validate_axioms
from cprings.toeplitz import (
    ToeplitzElement,
    component_space,
    embed,
    evaluate,
    semigroup_mul,
    toeplitz_mul,
    z_project,
)

MUL_CAP = 12  # triple products of degree-3 elements reach total degree 9


@pytest.fixture
def report(capsys):
    def _report(cid, desc, passed, extra=""):
        with capsys.disabled():
            tag = "PASS" if passed else "FAIL"
            suffix = f"  ({extra})" if extra else ""
            print(f"[C{cid:02d}] {desc}: {tag}{suffix}")
        assert passed, f"criterion C{cid:02d} failed: {desc} {extra}"

    return _report


def _generators(system):
    gens = []
    for kind, dim in (("R", system.ring.dim), ("Q", system.q.dim), ("P", system.p.dim)):
        gens.extend(embed(system, kind, unit_vec(dim, i)) for i in range(dim))
    return gens


def _words_upto(system, max_len, cap=MUL_CAP):
    """All nonzero products of <= max_len generators, deduplicated."""
    gens = _generators(system)
    seen = set()
    out = []
    for length in range(1, max_len + 1):
        for combo in itertools.product(gens, repeat=length):
            w = combo[0]
            for g in combo[1:]:
                w = toeplitz_mul(w, g, cap=cap)
            if not w.is_zero() and w not in seen:
                seen.add(w)
                out.append(w)
    return out


class _LpaTarget:
    """sigma/T/S into the Leavitt path algebra (coordinates -> normal forms)."""

    def __init__(self, graph, system):
        self.graph = graph
        self.system = system

    def _comb(self, coords, gens):
        acc = LpaElement(self.graph, {})
        for c, g in zip(coords, gens):
            if c != 0:
                acc = acc + F(c) * g
        return acc

    def sigma(self, r):
        return self._comb(r, [lpa_vertex(self.graph, v) for v in self.system.ring.labels])

    def t(self, q):
        return self._comb(q, [lpa_x(self.graph, e) for e in self.system.q.labels])

    def s(self, p):
        return self._comb(p, [lpa_y(self.graph, e) for e in self.system.p.labels])


# ---------------------------------------------------------------------------
# C1 -- axiom suite over randomized presets


def test_c01_axiom_suite(report):
    t0 = time.monotonic()
    rng = random.Random(101)
    failures = 0
    for _ in range(100):
        g = random_graph(rng, 6, 10)
        if not validate_axioms(build_graph_system(g)).ok:
            failures += 1
    for _ in range(50):
        if not validate_axioms(random_permutation_system(rng, 5)).ok:
            failures += 1
    dt = time.monotonic() - t0
    report(
        1,
        "axiom suite: 100 random graphs + 50 permutation systems",
        failures == 0 and dt < 10.0,
        f"{failures} failures, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# C2 -- grading semigroup associativity, exhaustive


def test_c02_semigroup_associativity(report):
    t0 = time.monotonic()
    entries = [(m, n) for m in range(7) for n in range(7)]
    bad = sum(
        1
        for a in entries
        for b in entries
        for c in entries
        if semigroup_mul(a, semigroup_mul(b, c)) != semigroup_mul(semigroup_mul(a, b), c)
    )
    dt = time.monotonic() - t0
    report(
        2,
        f"semigroup associativity on {len(entries) ** 3} triples",
        bad == 0 and dt < 1.0,
        f"{bad} violations, {dt:.2f}s",
    )


# ---------------------------------------------------------------------------
# C3 -- Toeplitz ring laws and grading containment


def test_c03_toeplitz_ring_laws(report):
    t0 = time.monotonic()
    systems = [
        build_graph_system(a2_graph()),
        build_graph_system(three_vertex_two_cycle()),
        perm3_system(),
    ]
    rng = random.Random(303)
    bad = 0
    for sy in systems:
        for _ in range(200):
            x = random_graph_element(rng, sy, 3)
            y = random_graph_element(rng, sy, 3)
            z = random_graph_element(rng, sy, 3)
            xy = toeplitz_mul(x, y, cap=MUL_CAP)
            yz = toeplitz_mul(y, z, cap=MUL_CAP)
            if toeplitz_mul(xy, z, cap=MUL_CAP) != toeplitz_mul(x, yz, cap=MUL_CAP):
                bad += 1
            if toeplitz_mul(x.add(y), z, cap=MUL_CAP) != toeplitz_mul(
                x, z, cap=MUL_CAP
            ).add(toeplitz_mul(y, z, cap=MUL_CAP)):
                bad += 1
            if toeplitz_mul(z, x.add(y), cap=MUL_CAP) != toeplitz_mul(
                z, x, cap=MUL_CAP
            ).add(toeplitz_mul(z, y, cap=MUL_CAP)):
                bad += 1
        # grading: a product of homogeneous elements is homogeneous of the
        # semigroup-product grade (or zero)
        for _ in range(100):
            gx = (rng.randint(0, 2), rng.randint(0, 1))
            gy = (rng.randint(0, 2), rng.randint(0, 1))
            dx = component_space(sy, *gx).dim
            dy = component_space(sy, *gy).dim
            if dx == 0 or dy == 0:
                continue
            x = ToeplitzElement(sy, {gx: [F(rng.randint(-2, 2)) for _ in range(dx)]})
            y = ToeplitzElement(sy, {gy: [F(rng.randint(-2, 2)) for _ in range(dy)]})
            prod = toeplitz_mul(x, y, cap=MUL_CAP)
            if not set(prod.support()) <= {semigroup_mul(gx, gy)}:
                bad += 1
    dt = time.monotonic() - t0
    report(
        3,
        "Toeplitz assoc/distrib (600 triples) + grading containment",
        bad == 0 and dt < 60.0,
        f"{bad} violations, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# C4 -- Fock oracle equivalence on short words


def test_c04_fock_oracle(report):
    t0 = time.monotonic()
    systems = [
        build_graph_system(a2_graph()),
        build_graph_system(line_graph(3)),
        build_graph_system(three_vertex_two_cycle()),
        perm3_system(),
    ]
    rng = random.Random(404)
    bad = 0
    checked = 0
    for sy in systems:
        assert check_fs(sy).ok, f"{sy.name} should satisfy (FS)"
        words = _words_upto(sy, 3, cap=6)
        for w in words:
            checked += 1
            if fock_is_zero(w) != w.is_zero():
                bad += 1
        # signed combinations exercise cancellation in the oracle
        for _ in range(50):
            x = ToeplitzElement(sy)
            for _ in range(rng.randint(1, 3)):
                x = x.add(rng.choice(words).scale(F(rng.randint(-2, 2))))
            checked += 1
            if fock_is_zero(x) != x.is_zero():
                bad += 1
    dt = time.monotonic() - t0
    report(
        4,
        f"Fock oracle == component zero test on {checked} elements",
        bad == 0 and dt < 60.0,
        f"{bad} mismatches, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# C5 -- canonical ideals on the mixed 5-vertex graph


def test_c05_canonical_ideals(report):
    g = five_vertex_mixed()
    sy = build_graph_system(g)
    ids = canonical_ideals(sy)
    labels = sy.ring.labels
    d = sy.ring.dim

    def span(*names):
        return Subspace(d, [unit_vec(d, labels.index(n)) for n in names])

    sinks = [v for v in g.vertices if not g.out_edges(v)]
    regular = [v for v in g.vertices if g.out_edges(v)]  # finite graph: all finite
    ok = (
        sorted(sinks) == ["t", "w"]
        and ids["ker_delta"] == span(*sinks)
        and ids["delta_inv_F"] == Subspace.full(d)
        and ids["j_max"] == span(*regular)
        and ids["hypothesis_ok"]
    )
    report(
        5,
        "canonical ideals on 5-vertex sink/source/2-cycle graph",
        ok,
        f"dims {ids['ker_delta'].dim}/{ids['delta_inv_F'].dim}/{ids['j_max'].dim}",
    )


# ---------------------------------------------------------------------------
# C6 -- Leavitt dimension formulas


def test_c06_leavitt_dimensions(report):
    ok = all(lpa_dim_total(line_graph(n)) == n * n for n in (2, 3, 4))
    # rose-1 is the Laurent ring: one normal monomial per signed degree
    g = rose_graph(1)
    x, y, v = lpa_x(g, "l1"), lpa_y(g, "l1"), lpa_vertex(g, "v")
    xp, yp = v, v
    for k in range(1, 6):
        xp = lpa_mul(xp, x)
        yp = lpa_mul(yp, y)
        ok = ok and len(xp.terms) == 1 and len(yp.terms) == 1
        ok = ok and lpa_mul(xp, yp) == v and lpa_mul(yp, xp) == v
    counts = [lpa_dim_upto(g, L) for L in range(6)]
    ok = ok and counts[0] == 1
    ok = ok and all(counts[L] - counts[L - 1] == 2 for L in range(1, 6))
    report(
        6,
        "dim L(line_n) = n^2 (n=2,3,4); rose-1 = Laurent monomial counts",
        ok,
        f"upto-counts {counts}",
    )


# ---------------------------------------------------------------------------
# C7 -- rewriting confluence under two reduction strategies


def test_c07_confluence(report):
    t0 = time.monotonic()
    rng = random.Random(707)
    bad = 0
    for g in (rose_graph(2), three_vertex_two_cycle(), five_vertex_mixed()):
        atoms = [lpa_vertex(g, v) for v in g.vertices]
        atoms += [lpa_x(g, e.name) for e in g.edges]
        atoms += [lpa_y(g, e.name) for e in g.edges]

        def rand_elem():
            acc = LpaElement(g, {})
            for _ in range(rng.randint(1, 3)):
                t = rng.choice(atoms)
                for _ in range(rng.randint(0, 2)):
                    t = lpa_mul(t, rng.choice(atoms))
                acc = acc + F(rng.randint(-3, 3)) * t
            return acc

        for _ in range(500):
            a, b = rand_elem(), rand_elem()
            raw = _raw_product(a, b)
            if _normalize(g, raw, order="min") != _normalize(g, raw, order="max"):
                bad += 1
    dt = time.monotonic() - t0
    report(
        7,
        "rewriting confluence, 1500 products under min/max strategies",
        bad == 0,
        f"{bad} divergences, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# C8 -- backend cross-check (the core correctness gate)
#
# Equality verdicts factor through differences, and relation-ideal membership
# is a per-degree subspace condition; checking every word against its
# closed-form class representative plus every pair of representatives
# therefore covers all pairs of words exactly.


def _crosscheck(words, ctx, value_of):
    classes = {}
    for w in words:
        classes.setdefault(value_of(w), []).append(w)
    bad = 0
    checks = 0
    for val, members in classes.items():
        head = ctx.element(members[0])
        if val_is_zero(val):
            checks += 1
            if not head.is_zero():
                bad += 1
        for other in members[1:]:
            checks += 1
            if not cp_equal(ctx.element(other), head):
                bad += 1
    reps = [members[0] for members in classes.values()]
    for a, b in itertools.combinations(reps, 2):
        checks += 1
        if cp_equal(ctx.element(a), ctx.element(b)):
            bad += 1
    return bad, checks, len(classes)


def val_is_zero(val):
    return val.is_zero()


def test_c08_backend_crosscheck(report):
    t0 = time.monotonic()
    bad = 0
    checks = 0
    details = []
    for g in (a2_graph(), line_graph(3), rose_graph(1), three_vertex_two_cycle()):
        sy = build_graph_system(g)
        jmax = canonical_ideals(sy)["j_max"]
        ctx = CpContext(sy, validate_ideal(sy, jmax))
        rep = _LpaTarget(g, sy)
        words = _words_upto(sy, 3)
        b, c, k = _crosscheck(words, ctx, lambda w: evaluate(w, rep))
        bad += b
        checks += c
        details.append(f"{g.name}:{len(words)}w/{k}cls")
    sy = perm3_system()
    jmax = canonical_ideals(sy)["j_max"]
    ctx = CpContext(sy, validate_ideal(sy, jmax))
    words = _words_upto(sy, 3)
    b, c, k = _crosscheck(words, ctx, toeplitz_to_crossed)
    bad += b
    checks += c
    details.append(f"perm3:{len(words)}w/{k}cls")
    dt = time.monotonic() - t0
    report(
        8,
        f"cp_equal vs closed forms, {checks} verdicts",
        bad == 0 and dt < 300.0,
        f"{bad} disagreements; {' '.join(details)}; {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# C9 -- ideal lattices against brute force; T-pair bijection round-trip


def _brute_hs(g):
    """Hereditary saturated subsets straight from the definitions."""
    vs = list(g.vertices)
    found = set()
    for mask in range(1 << len(vs)):
        h = {v for i, v in enumerate(vs) if mask >> i & 1}
        hereditary = all(e.tgt in h for e in g.edges if e.src in h)
        saturated = all(
            v in h
            for v in vs
            if 0 < sum(e.mult for e in g.out_edges(v)) < math.inf
            and all(e.tgt in h for e in g.out_edges(v))
        )
        if hereditary and saturated:
            found.add(frozenset(h))
    return found


def _brute_breaking(g, h):
    out = set()
    for v in g.vertices:
        if v in h or sum(e.mult for e in g.out_edges(v)) != math.inf:
            continue
        escaping = sum(e.mult for e in g.out_edges(v) if e.tgt not in h)
        if 0 < escaping < math.inf:
            out.add(v)
    return frozenset(out)


def test_c09_ideal_lattices(report):
    t0 = time.monotonic()
    rng = random.Random(909)
    corpus = [
        a2_graph(),
        line_graph(3),
        line_graph(8),
        rose_graph(1),
        rose_graph(2),
        cycle_graph(3),
        three_vertex_two_cycle(),
        five_vertex_mixed(),
    ] + [random_graph(rng, 8, 12) for _ in range(20)]
    bad = 0
    for g in corpus:
        if set(enumerate_hs(g)) != _brute_hs(g):
            bad += 1

    # infinite-emitter fixture: admissible (H,S) pairs against brute force
    g = infinite_emitter_graph()
    brute_pairs = {
        (h, frozenset(s))
        for h in _brute_hs(g)
        for r in range(len(_brute_breaking(g, h)) + 1)
        for s in itertools.combinations(sorted(_brute_breaking(g, h)), r)
    }
    pairs = set(enumerate_ideal_pairs(g))
    by_formula = sum(2 ** len(_brute_breaking(g, h)) for h in _brute_hs(g))
    pairs_ok = pairs == brute_pairs and len(pairs) == by_formula == 6

    # T-pair <-> graded ideal bijection round-trips on L3, over J = 0 and j_max
    sy = build_graph_system(line_graph(3))
    tpairs = enumerate_tpairs(sy)
    jmax = canonical_ideals(sy)["j_max"]
    roundtrip_ok = len(tpairs) == 8
    ctx0 = CpContext(sy, validate_ideal(sy, Subspace(sy.ring.dim)))
    ctx_max = CpContext(sy, validate_ideal(sy, jmax))
    for ctx in (ctx0, ctx_max):
        eligible = [p for p in tpairs if ctx.j.ideal.le(p.j)]
        if ctx is ctx_max:
            roundtrip_ok = roundtrip_ok and len(eligible) == 2
        for p in eligible:
            back = extract_tpair_from_handle(graded_ideal_correspondence(ctx, p))
            roundtrip_ok = roundtrip_ok and back.i == p.i and back.j == p.j
    dt = time.monotonic() - t0
    report(
        9,
        f"hs lattices vs brute force ({len(corpus)} graphs); (H,S) fixture; L3 bijection",
        bad == 0 and pairs_ok and roundtrip_ok,
        f"{bad} lattice mismatches, {len(pairs)} pairs, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# C10 -- graded uniqueness at desk scale


def test_c10_graded_uniqueness(report):
    t0 = time.monotonic()
    ok = True
    notes = []
    for g in (a2_graph(), line_graph(3)):
        sy = build_graph_system(g)
        d = sy.ring.dim
        jmax = canonical_ideals(sy)["j_max"]
        j = validate_ideal(sy, jmax)

        # maximality certificate behind the uniqueness theorem
        ok = ok and graded_uniqueness_check(sy, j).maximal

        # over J = j_max every nonzero graded ideal meets iota_R(R): through
        # the lattice dictionary, the ideal of the T-pair (I, J') meets the
        # coefficient ring in exactly I, so only the zero pair may have I = 0
        ctx_max = CpContext(sy, j)
        over = [p for p in enumerate_tpairs(sy) if jmax.le(p.j)]
        zero_pairs = [p for p in over if p.i.is_zero()]
        ok = ok and len(zero_pairs) == 1 and zero_pairs[0].j == jmax
        for p in over:
            back = extract_tpair_from_handle(graded_ideal_correspondence(ctx_max, p))
            ok = ok and back.i == p.i
            if not p.i.is_zero():
                ok = ok and back.i.dim > 0

        # conversely in the Toeplitz ring (J = 0) the relation ideal of j_max
        # is nonzero yet meets iota_R(R) trivially
        ctx_t = CpContext(sy, validate_ideal(sy, Subspace(d)))
        ctx_rel = CpContext(sy, j)
        gens = relation_generators(ctx_rel, 0, 0)
        ok = ok and len(gens) > 0 and all(not x.is_zero() for x in gens)
        ok = ok and all(in_relation_ideal(ctx_rel, x) for x in gens)
        for i in range(d):
            ok = ok and not in_relation_ideal(ctx_rel, embed(sy, "R", unit_vec(d, i)))
        # exact intersection with iota_R(R) via the correspondence at (0, j_max)
        pair = validate_tpair(sy, Subspace(d), jmax)
        back = extract_tpair_from_handle(graded_ideal_correspondence(ctx_t, pair))
        ok = ok and back.i.is_zero() and back.j == jmax
        notes.append(f"{g.name}:{len(over)} ideals")
    dt = time.monotonic() - t0
    report(
        10,
        "graded uniqueness: CP ideals meet R; Toeplitz relation ideal misses R",
        ok,
        f"{'; '.join(notes)}; {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# C11 -- gauge action / Vandermonde recovery of homogeneous parts


def test_c11_gauge_vandermonde(report):
    t0 = time.monotonic()
    rng = random.Random(1111)
    systems = [
        build_graph_system(a2_graph()),
        build_graph_system(three_vertex_two_cycle()),
    ]
    bad = 0
    produced = 0
    while produced < 100:
        sy = systems[produced % len(systems)]
        comps = {}
        for _ in range(rng.randint(1, 4)):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            dim = component_space(sy, m, n).dim
            if dim == 0:
                continue
            comps[(m, n)] = [F(rng.randint(-3, 3)) for _ in range(dim)]
        x = ToeplitzElement(sy, comps)
        if x.is_zero():
            continue
        produced += 1
        degrees = x.z_degrees()
        evals = [(F(t), gauge(F(t), x)) for t in range(1, len(degrees) + 1)]
        parts = homogeneous_components(evals, degrees)
        total = None
        for k in degrees:
            if parts[k] != z_project(x, k):
                bad += 1
            total = parts[k] if total is None else total.add(parts[k])
        if total != x:
            bad += 1
    dt = time.monotonic() - t0
    report(
        11,
        "gauge/Vandermonde recovery on 100 random elements",
        bad == 0,
        f"{bad} mismatches, {dt:.1f}s",
    )
