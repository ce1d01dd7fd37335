"""T-pairs, quotient systems, and the graded-ideal correspondence.

Graph oracles: psi-invariance of a vertex-set ideal is heredity of the set;
quotienting by a hereditary set gives the system of the restricted graph; the
3-vertex line has exactly 8 T-pairs (Toeplitz) of which 2 sit over j_max (its
CP ring is simple 3x3 matrices).
"""

import gc
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from cprings import cli, cpring, exactlin, finrank, ideals, rsystem, toeplitz
from cprings.cli import _graph_pair_lattice
from cprings.exactlin import Subspace, mat_identity, unit_vec
from cprings.graphalg import cycle_graph, enumerate_ideal_pairs, line_graph, pair_order, rose_graph
from cprings.rsystem import build_automorphism_system, build_graph_system, system_from_json
from cprings.finrank import FsViolation, canonical_ideals, check_fs, delta_ideals, left_annihilator
from cprings.cpring import CpContext, in_relation_ideal, validate_ideal
from cprings.toeplitz import ToeplitzElement, embed, toeplitz_mul
from cprings.ideals import (
    HypothesisViolated,
    NotInvariant,
    NotTwoSided,
    TPair,
    enumerate_tpairs,
    extract_tpair_from_handle,
    graded_ideal_correspondence,
    hasse_edges,
    is_psi_invariant,
    lattice_dot,
    lattice_json,
    quotient_system,
    validate_tpair,
)

from conftest import (
    ORACLE_SYSTEMS,
    QuotientHandle,
    a2_graph,
    corner_bimodules_json,
    delta_ideals_oracle,
    delta_pullbacks_oracle,
    dual_numbers_ring,
    dual_numbers_unit_basis_ring,
    enumerate_tpairs_oracle,
    five_vertex_mixed,
    hasse_edges_oracle,
    infinite_emitter_graph,
    killed_vector_json,
    left_unit_json,
    matrix2_ring,
    perm3_system,
    project_into_quotient,
    psi_zero_system,
    quotient_graph,
    random_graph,
    random_graph_element,
    random_permutation_system,
    rebased_legs,
    square_into_ideal_json,
    three_vertex_two_cycle,
    tpair_flags_oracle,
    tpair_quotient_flags_oracle,
    tpair_le,
    tpair_meet,
)


def _coord_ideal(system, *labels):
    d = system.ring.dim
    idx = {lab: i for i, lab in enumerate(system.ring.labels)}
    return Subspace(d, [unit_vec(d, idx[lab]) for lab in labels])


# ---------------------------------------------------------------------------
# invariance


def test_invariance_is_heredity(a2_system):
    assert not is_psi_invariant(a2_system, _coord_ideal(a2_system, "u"))
    assert is_psi_invariant(a2_system, _coord_ideal(a2_system, "v"))
    assert is_psi_invariant(a2_system, Subspace(2))


def test_invariance_mixed_graph():
    system = build_graph_system(five_vertex_mixed())
    assert is_psi_invariant(system, _coord_ideal(system, "t"))
    assert is_psi_invariant(system, _coord_ideal(system, "t", "w"))
    assert not is_psi_invariant(system, _coord_ideal(system, "a"))
    with pytest.raises(NotTwoSided):
        is_psi_invariant(system, Subspace(5, [[1, 1, 0, 0, 0]]))


# ---------------------------------------------------------------------------
# quotient systems


def test_quotient_by_zero(line3_system):
    qs = quotient_system(line3_system, Subspace(3))
    assert qs.system.ring.mult == line3_system.ring.mult
    assert qs.system.q.left == line3_system.q.left
    assert qs.system.psi.table == line3_system.psi.table


def test_quotient_is_restricted_graph(line3_system):
    qs = quotient_system(line3_system, _coord_ideal(line3_system, "v3"))
    ref = build_graph_system(line_graph(2))
    assert qs.system.ring.labels == ref.ring.labels
    assert qs.system.q.labels == ref.q.labels == ("e1",)
    assert qs.system.ring.mult == ref.ring.mult
    assert qs.system.q.left == ref.q.left
    assert qs.system.q.right == ref.q.right
    assert qs.system.p.left == ref.p.left
    assert qs.system.psi.table == ref.psi.table


def test_quotient_mixed_graph_matches_subgraph():
    graph = five_vertex_mixed()
    system = build_graph_system(graph)
    qs = quotient_system(system, _coord_ideal(system, "t", "w"))
    ref = build_graph_system(quotient_graph(graph, {"t", "w"}))
    assert qs.system.ring.labels == ref.ring.labels
    assert qs.system.q.labels == ref.q.labels
    assert qs.system.psi.table == ref.psi.table


def test_quotient_by_full(a2_system):
    qs = quotient_system(a2_system, Subspace.full(2))
    assert qs.system.ring.dim == 0
    assert qs.system.q.dim == 0 and qs.system.p.dim == 0


def test_quotient_needs_invariance(a2_system):
    with pytest.raises(NotInvariant):
        quotient_system(a2_system, _coord_ideal(a2_system, "u"))


@pytest.mark.parametrize("label, message", [
    ("e1", "IQ is not contained in QI: left action does not descend"),
    ("e2", "PI is not contained in IP: right action does not descend"),
])
def test_descent_failure_is_reported(label, message, tmp_path):
    """A psi-invariant I under which R/I does not act on Q/QI or P/IP is
    refused with the same message by `quotient_system`, by `validate_tpair`
    and by `cpr tpair`, which exits 1."""
    data = corner_bimodules_json()
    system = system_from_json(data)
    i = _coord_ideal(system, label)
    assert is_psi_invariant(system, i)
    for ask in (lambda: quotient_system(system, i), lambda: validate_tpair(system, i, i)):
        with pytest.raises(NotInvariant, match=message):
            ask()
    path = tmp_path / "corners.json"
    path.write_text(json.dumps(data))
    code, body = cli.run(["tpair", str(path), "--i", label, "--j", label])
    assert code == 1 and json.loads(body)["diagnostics"] == [f"NotInvariant: {message}"]


# ---------------------------------------------------------------------------
# T-pairs


def test_validate_tpair_basics(line3_system):
    jmax = canonical_ideals(line3_system)["j_max"]
    assert validate_tpair(line3_system, Subspace(3), jmax).ok
    i = _coord_ideal(line3_system, "v3")
    assert validate_tpair(line3_system, i, i).ok
    full = validate_tpair(line3_system, Subspace(3), Subspace.full(3))
    assert not full.ok and not full.flags["quotient_faithful"]


def test_tpair_needs_two_sided_j():
    """Over M_2(Q) the column span{e11, e21} is a left ideal only: (0, it) is
    no T-pair, and the correspondence refuses it."""
    from conftest import matrix2_ring
    from cprings.rsystem import build_automorphism_system
    from cprings.exactlin import mat_identity

    system = build_automorphism_system(matrix2_ring(), mat_identity(4))
    column = _coord_ideal(system, "e11", "e21")
    pair = validate_tpair(system, Subspace(4), column)
    assert not pair.flags["j_two_sided"] and not pair.ok
    assert validate_tpair(system, Subspace(4), Subspace.full(4)).ok
    ctx = CpContext(system, validate_ideal(system, Subspace(4)))
    with pytest.raises(ValueError, match="j_two_sided"):
        graded_ideal_correspondence(ctx, TPair(Subspace(4), column))


def test_enumerate_line3(line3_system):
    pairs = enumerate_tpairs(line3_system)
    assert len(pairs) == 8
    jmax = canonical_ideals(line3_system)["j_max"]
    over_jmax = [p for p in pairs if jmax.le(p.j)]
    assert len(over_jmax) == 2  # the CP ring is simple 3x3 matrices


def test_enumerate_a2(a2_system):
    pairs = enumerate_tpairs(a2_system)
    assert len(pairs) == 4
    data = lattice_json(a2_system, pairs)
    assert len(data["nodes"]) == 4
    assert len(data["hasse_edges"]) == 4
    dot = lattice_dot(data)
    assert dot.startswith("digraph") and "n0" in dot


def test_lattice_json_needs_coordinate_spans(a2_system):
    """The order is read off coordinate masks, so a pair whose ideal is not
    a coordinate span is refused."""
    with pytest.raises(ValueError, match="not a coordinate span"):
        lattice_json(a2_system, [TPair(Subspace(2, [[1, 1]]), Subspace.full(2))])


def _count_quotients(monkeypatch):
    built = []
    real = ideals._quotient_system

    def counting(system, i):
        built.append(i)
        return real(system, i)

    monkeypatch.setattr(ideals, "_quotient_system", counting)
    return built


def _floors(system, name="delta_ideals"):
    """The floor ideals I (None for I = 0) at which `name` of finrank is
    memoized on the system: each is one R/I question asked in R modulo I."""
    return [key[-1] for key in system._store if key[0] == name]


@pytest.mark.parametrize("make", [
    lambda: build_graph_system(five_vertex_mixed()),
    lambda: build_graph_system(line_graph(3)),
    perm3_system,
], ids=["5v-mixed", "line3", "perm3"])
def test_enumerate_matches_brute_force(make):
    system = make()
    d = system.ring.dim

    def coord(mask):
        return Subspace(d, [unit_vec(d, t) for t in range(d) if mask >> t & 1])

    brute = [validate_tpair(system, coord(im), coord(jm))
             for im in range(1 << d) for jm in range(1 << d) if jm & im == im]
    want = [(p.i, p.j, list(p.flags.items())) for p in brute if p.ok]
    assert [(p.i, p.j, list(p.flags.items())) for p in enumerate_tpairs(system)] == want


def _coordinate_spans(system):
    d = system.ring.dim
    return [Subspace(d, [unit_vec(d, t) for t in range(d) if mask >> t & 1]) for mask in range(1 << d)]


def _enumeration(enumerate_, system):
    """The pairs of `enumerate_(system)` with their flags, or the message of
    the NotInvariant it raises."""
    try:
        return [(p.i, p.j, list(p.flags.items())) for p in enumerate_(system)]
    except NotInvariant as exc:
        return str(exc)


@pytest.mark.parametrize("name", list(ORACLE_SYSTEMS))
def test_enumeration_matches_oracle(name):
    """The closure-system enumeration against the exhaustive search of
    `enumerate_tpairs_oracle`, pair for pair, in order, with the flags."""
    system = ORACLE_SYSTEMS[name]()
    found = _enumeration(enumerate_tpairs, system)
    assert found and found == _enumeration(enumerate_tpairs_oracle, system)


def test_enumeration_matches_oracle_on_random_systems():
    rng = random.Random(2111)
    systems = ([build_graph_system(random_graph(rng, max_v=5, max_e=9)) for _ in range(60)]
               + [random_permutation_system(rng, max_n=5) for _ in range(30)])
    for system in systems:
        assert _enumeration(enumerate_tpairs, system) == _enumeration(enumerate_tpairs_oracle, system)


@pytest.mark.parametrize("data, want", [
    (corner_bimodules_json(), "IQ is not contained in QI: left action does not descend"),
    (killed_vector_json("q", True), "IQ is not contained in QI: left action does not descend"),
    (killed_vector_json("p", True), "PI is not contained in IP: right action does not descend"),
    (killed_vector_json("q", False), 4),
    (killed_vector_json("p", False), 4),
], ids=["corners", "killed-q-fixed", "killed-p-fixed", "killed-q", "killed-p"])
def test_enumeration_matches_oracle_on_descent(data, want):
    """Systems on which no unit of R acts on a leg: both enumerations raise
    the same NotInvariant at the same least I, or give the same pairs (here
    the four (I, I), since Delta = 0).  On the killed-vector systems e1 . m
    (m . e1) is the one vector of IQ (PI), and it lies in no e_t Q e_s
    (e_s P e_t)."""
    system = system_from_json(data)
    assert rsystem.validate_axioms(system).ok
    found = _enumeration(enumerate_tpairs, system)
    assert found == _enumeration(enumerate_tpairs_oracle, system)
    assert found == want if isinstance(want, str) else len(found) == want


def _descent(check, system, i):
    """None when `check` lets R/I act on the quotient legs, else its message."""
    try:
        check(system, i)
    except NotInvariant as exc:
        return str(exc)
    return None


def _assert_corners_match_elimination(system):
    """At every coordinate floor I of a system with a corner graph, the
    answers read off its bitmasks equal the general path: descent (whether
    `_require_descent` raises, and its message) against `_check_descent`,
    `delta_ideals` against the elimination of `delta_ideals_oracle`, and
    `is_two_sided` and `annihilator` against their column and kernel
    readings.  Returns the number of floors that descend."""
    assert rsystem.corner_graph(system) is not None
    descending = 0
    for i in _coordinate_spans(system):
        failure = _descent(ideals._require_descent, system, i)
        assert failure == _descent(ideals._check_descent, system, i), i.basis()
        descending += failure is None
        assert delta_ideals(system, i) == delta_ideals_oracle(system, i), i.basis()
        assert rsystem.is_two_sided(system, i) and rsystem._two_sided_by_columns(system.ring, i)
        assert finrank.annihilator(system, i) == finrank._annihilator_by_kernel(system, i), i.basis()
    return descending


def test_corner_graph_matches_elimination():
    """The corner-graph answers against the general path on 60 random
    graphs (at most 5 vertices and 9 edges), 20 random permutation systems,
    perm3, psi-zero (no (FS), so D_I still eliminates), 5v-mixed and the
    corner bimodules (where descent fails), and on each of them again with
    Q and P in random bases whose vectors span several corners: the corner
    graph does not depend on the legs' bases."""
    rng = random.Random(2609)
    systems = ([build_graph_system(random_graph(rng, max_v=5, max_e=9)) for _ in range(60)]
               + [random_permutation_system(rng, max_n=5) for _ in range(20)]
               + [perm3_system(), psi_zero_system(), build_graph_system(five_vertex_mixed()),
                  system_from_json(corner_bimodules_json())])
    descending = failing = mixed = 0
    for system in systems:
        rebased = rebased_legs(system, rng)
        assert rsystem.validate_axioms(rebased).ok
        assert rsystem.corner_graph(rebased) == rsystem.corner_graph(system)
        # some e_t . m_a is not m_a or 0: m_a lies in no one corner
        mixed += any(col not in ((), ((a, 1),)) for cols in rebased.q.left for a, col in enumerate(cols))
        for each in (system, rebased):
            floors = _assert_corners_match_elimination(each)
            descending, failing = descending + floors, failing + (1 << each.ring.dim) - floors
    assert descending and failing and mixed >= 40


@pytest.mark.parametrize("data", [killed_vector_json(leg, fixed) for leg in "qp" for fixed in (True, False)],
                         ids=["killed-q-fixed", "killed-q", "killed-p-fixed", "killed-p"])
def test_killed_vectors_have_no_corner_graph(data):
    """On a leg with a vector that every e_t kills from one side, e_1 + e_2
    is not the identity, so the system has no corner graph, and its
    questions keep the general path: `is_two_sided` reads the columns."""
    system = system_from_json(data)
    assert rsystem.orthogonal_idempotents(system.ring) and rsystem.corner_graph(system) is None
    assert rsystem.is_two_sided(system, Subspace.full(2))


def test_corner_graph_is_the_graph():
    """On a graph system both corner masks are the graph: bit s of q[t] and
    of p[t] for each edge t -> s; over M_2(Q) there is no corner graph, and
    off a coordinate span the general paths answer."""
    graph = five_vertex_mixed()
    system = build_graph_system(graph)
    index = {v: k for k, v in enumerate(graph.vertices)}
    succ = [0] * len(index)
    for e in graph.edges:
        succ[index[e.src]] |= 1 << index[e.tgt]
    corners = rsystem.corner_graph(system)
    assert corners.q == corners.p == tuple(succ)
    diagonal = Subspace(5, [[1, 1, 0, 0, 0]])  # e_s + e_a, no ideal
    assert not rsystem.is_two_sided(system, diagonal)
    assert finrank.annihilator(system, diagonal) == finrank._annihilator_by_kernel(system, diagonal)
    assert rsystem.corner_graph(build_automorphism_system(matrix2_ring(), mat_identity(4))) is None


def _assert_flags_match_oracle(system):
    """enumerate_tpairs and validate_tpair against `tpair_flags_oracle` on
    every pair I <= J of coordinate spans."""
    found = [(p.i, p.j, list(p.flags.items())) for p in enumerate_tpairs(system)]
    want = []
    spans = _coordinate_spans(system)
    for i in spans:
        for j in spans:
            if i.le(j):
                flags = tpair_flags_oracle(system, i, j)
                assert list(validate_tpair(system, i, j).flags.items()) == list(flags.items())
                if TPair(i, j, flags).ok:
                    want.append((i, j, list(flags.items())))
    assert found == want


def _assert_quotient_flags_match_projection(system, spaces):
    """validate_tpair's three quotient flags, read in R off the pulled-back
    Delta ideals, against `tpair_quotient_flags_oracle`, which computes them
    in R/I, on every pair (I, J) of `spaces`, I <= J or not; some pair is a
    T-pair."""
    accepted = 0
    for i in spaces:
        for j in spaces:
            pair = validate_tpair(system, i, j)
            want = tpair_quotient_flags_oracle(system, i, j)
            assert {k: pair.flags[k] for k in want} == want, (i.basis(), j.basis())
            accepted += pair.ok
    assert accepted


@pytest.mark.parametrize("name", list(ORACLE_SYSTEMS))
def test_tpair_flags_match_oracle(name):
    system = ORACLE_SYSTEMS[name]()
    _assert_flags_match_oracle(system)
    _assert_quotient_flags_match_projection(system, _coordinate_spans(system))


@pytest.mark.parametrize("name", ["5v-mixed", "perm3", "psi-zero"])
def test_unfloored_pair_flags_are_validate_ideal(name):
    """At I = 0, J/I is J: the pair's three quotient flags are
    `validate_ideal`'s verdicts on J, on every coordinate ideal."""
    system = ORACLE_SYSTEMS[name]()
    for j in _coordinate_spans(system):
        flags = validate_tpair(system, Subspace(system.ring.dim), j).flags
        ideal = validate_ideal(system, j)
        assert ((flags["quotient_two_sided"], flags["quotient_compatible"], flags["quotient_faithful"])
                == (ideal.is_two_sided, ideal.is_psi_compatible, ideal.is_faithful))


def test_tpair_flags_match_oracle_on_random_graphs():
    rng = random.Random(1807)
    for _ in range(60):
        _assert_flags_match_oracle(build_graph_system(random_graph(rng, max_v=4, max_e=6)))


def _random_systems(seed, count):
    """`count` seeded random graph systems (1-4 vertices) and as many random
    permutation systems (1-4 points)."""
    rng = random.Random(seed)
    return ([build_graph_system(random_graph(rng, max_v=4, max_e=6)) for _ in range(count)]
            + [random_permutation_system(rng, max_n=4) for _ in range(count)])


def test_quotient_flags_match_projection_oracle_on_random_systems():
    for system in _random_systems(1913, 15):
        _assert_quotient_flags_match_projection(system, _coordinate_spans(system))


def test_validate_tpair_matches_oracle_over_matrix_ring():
    """Over M_2(Q) a one-sided J has a two-sided image in R/R = 0 and a
    one-sided one in R/0: `quotient_two_sided` is computed, not implied.
    Every pair is tried, I <= J or not."""
    system = build_automorphism_system(matrix2_ring(), mat_identity(4))

    def span(*idx):  # basis e11, e12, e21, e22
        return Subspace(4, [unit_vec(4, t) for t in idx])

    spaces = [span(), span(0), span(0, 2), span(0, 1), span(0, 1, 2, 3)]
    computed = 0
    for i in spaces:
        for j in spaces:
            flags = tpair_flags_oracle(system, i, j)
            assert list(validate_tpair(system, i, j).flags.items()) == list(flags.items())
            computed += not flags["j_two_sided"] and flags["quotient_two_sided"]
    assert computed == 3  # span(0), span(0, 2), span(0, 1) over I = R
    _assert_quotient_flags_match_projection(system, spaces)


def test_quotient_flags_match_projection_oracle_over_dual_numbers():
    """The ideals 0, (x) and R of Q[x]/(x^2), with the identity automorphism."""
    system = build_automorphism_system(dual_numbers_ring(), mat_identity(2))
    _assert_quotient_flags_match_projection(system, [Subspace(2), Subspace(2, [[0, 1]]), Subspace.full(2)])


def _assert_floors_match_quotient(system, spaces):
    """At every psi-invariant I among `spaces`, the R/I questions read in R
    modulo I agree with the same questions asked of R/I built by
    `quotient_system`: the floored Delta ideals with R/I's lifted back
    (`delta_pullbacks_oracle`) and with the elimination that reads D_I
    without (FS) (`delta_ideals_oracle`), J's three conditions by `validate_ideal`
    with the floor I against `validate_ideal` of J's image in R/I, for J
    among `spaces` and the spans of single basis elements, (FS), and the
    guard's {r : rR <= I} <= I with R/I having no nonzero r with
    r (R/I) = 0.  Returns the (FS) and guard verdicts."""
    d, verdicts = system.ring.dim, []
    js = spaces + [Subspace(d, [unit_vec(d, t)]) for t in range(d)]
    for i in spaces:
        if not is_psi_invariant(system, i):
            continue
        qs = quotient_system(system, i)
        quotient = qs.system
        assert delta_ideals(system, i) == delta_pullbacks_oracle(system, i), i.basis()
        assert delta_ideals(system, i) == delta_ideals_oracle(system, i), i.basis()
        for j in js:
            floored, image = validate_ideal(system, j, i), validate_ideal(quotient, project_into_quotient(qs, j))
            assert floored.failed() == image.failed(), (i.basis(), j.basis())
        fs, faithful = check_fs(system, i).ok, left_annihilator(system, i).le(i)
        assert fs == check_fs(quotient).ok, i.basis()
        assert faithful == left_annihilator(quotient).is_zero(), i.basis()
        verdicts.append((fs, faithful))
    assert verdicts
    return verdicts


@pytest.mark.parametrize("name", list(ORACLE_SYSTEMS))
def test_floors_match_quotient_oracle(name):
    system = ORACLE_SYSTEMS[name]()
    verdicts = _assert_floors_match_quotient(system, _coordinate_spans(system))
    if name == "psi-zero":  # (FS) fails for R, and holds for R/R = 0
        assert {fs for fs, _ in verdicts} == {True, False}


def test_floors_match_quotient_oracle_on_random_systems():
    for system in _random_systems(2203, 15):
        _assert_floors_match_quotient(system, _coordinate_spans(system))


@pytest.mark.parametrize("make, ideals_, faithful", [
    (lambda: build_automorphism_system(matrix2_ring(), mat_identity(4)), [[], None], [True, True]),
    (lambda: build_automorphism_system(dual_numbers_ring(), mat_identity(2)),
     [[], [[0, 1]], None], [True, True, True]),
    (lambda: build_automorphism_system(dual_numbers_unit_basis_ring(), mat_identity(2)),
     [[], [[-1, 1]], None], [True, True, True]),
    (lambda: system_from_json(left_unit_json()), [[], [[0, 1]], None], [False, True, True]),
    (lambda: system_from_json(square_into_ideal_json()), [[], [[0, 1]], None], [False, False, True]),
], ids=["matrix2", "dual", "dual-unit-basis", "left-unit", "square-into-ideal"])
def test_floors_match_quotient_oracle_nondiagonal(make, ideals_, faithful):
    """The same over M_2(Q), the dual numbers in both bases ((x) is spanned
    by u - 1 in the second), and two rings with P = Q = 0 where the guard's
    verdict depends on I (None: all of R)."""
    system = make()
    d = system.ring.dim
    spans = [Subspace.full(d) if rows is None else Subspace(d, rows) for rows in ideals_]
    assert [f for _, f in _assert_floors_match_quotient(system, spans)] == faithful


def _assert_quotients_valid(system):
    """R/I by `quotient_system`, for every psi-invariant I, passes
    `validate_axioms`, the check `_quotient_system` leaves to the theorem."""
    built = [quotient_system(system, i) for i in _coordinate_spans(system) if is_psi_invariant(system, i)]
    assert built
    for qs in built:
        report = rsystem.validate_axioms(qs.system)
        assert report.ok, report.failures


@pytest.mark.parametrize("name", list(ORACLE_SYSTEMS))
def test_quotients_satisfy_axioms(name):
    _assert_quotients_valid(ORACLE_SYSTEMS[name]())


def test_quotients_satisfy_axioms_on_random_systems():
    for system in _random_systems(2029, 15):
        _assert_quotients_valid(system)


def test_enumerate_builds_one_quotient_per_invariant_ideal(monkeypatch):
    """No R/I is built: the Delta ideals of R/I are read in R modulo I, once
    per hereditary vertex set."""
    built = _count_quotients(monkeypatch)
    system = build_graph_system(five_vertex_mixed())
    enumerate_tpairs(system)
    assert built == []
    floors = _floors(system)
    assert len(floors) == 6  # one per hereditary vertex set
    assert all(a != b for k, a in enumerate(floors) for b in floors[:k])


def test_enumeration_checks_each_ideal_once(monkeypatch):
    """On 5v-mixed (32 coordinate ideals): no two-sidedness check, since
    coordinate spans over orthogonal idempotents are ideals; one psi image
    psi(P (x) v.Q) per vertex v, i.e. dim P contractions for each nonzero
    v.q_b, one per edge q_b leaving v; one set of floored Delta ideals per
    psi-invariant ideal, and no R/I.  5v-mixed has (FS), so no D_I takes a
    preimage or floors the theta table.  Descent and K_I are read off the
    corner graph: no `_check_descent`, `ideal_image`, `kernel` or Delta
    matrix; on the killed-vector system, which has no corner graph, the
    same counters count."""
    two_sided, contractions = [], []
    real_two_sided, real_psi_images = rsystem.is_two_sided, ideals._psi_images

    def count_two_sided(system, x):
        two_sided.append(x)
        return real_two_sided(system, x)

    def count_psi_images(system, x):
        for image in real_psi_images(system, x):
            contractions.append(image)
            yield image

    for module in (rsystem, finrank, ideals):
        monkeypatch.setattr(module, "is_two_sided", count_two_sided)
    monkeypatch.setattr(ideals, "_psi_images", count_psi_images)
    built = _count_quotients(monkeypatch)
    subspace_ops = []  # no inclusion test, sum of ideals, J-flag check or preimage
    for owner, name in ((Subspace, "le"), (Subspace, "add"), (ideals, "validate_ideal"), (finrank, "preimage")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: subspace_ops.append(name) or real(*a))
    eliminations = []  # no descent by elimination, QI, kernel or Delta matrix
    for owner, name in ((ideals, "_check_descent"), (ideals, "ideal_image"), (finrank, "ideal_image"),
                        (finrank, "kernel"), (exactlin, "kernel"), (finrank, "_delta_columns")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: eliminations.append(name) or real(*a))
    system = build_graph_system(five_vertex_mixed())
    enumerate_tpairs(system)
    assert two_sided == []
    q, d = system.q, system.ring.dim
    nonzero = sum(any(q.act_left(unit_vec(d, t), unit_vec(q.dim, b))) for t in range(d) for b in range(q.dim))
    assert len(contractions) == nonzero * system.p.dim == 25
    assert built == [] and len(_floors(system)) == 6
    assert subspace_ops == [] and eliminations == []
    assert set(_floors(system, "theta_floored")) <= {None}  # (FS): D_I = R, no theta table floored
    validate_tpair(system, Subspace(5), Subspace.full(5))
    assert {"le", "validate_ideal"} <= set(subspace_ops)  # the counters count
    enumerate_tpairs(system_from_json(killed_vector_json("q", False)))
    assert {"_check_descent", "ideal_image", "kernel", "_delta_columns"} <= set(eliminations)


def test_coordinate_questions_read_the_corner_graph(monkeypatch):
    """On coordinate specs over a corner graph, `validate_tpair` and the
    checks of `quotient_system` decide descent without `_check_descent`
    (5v-mixed at every pair I <= J, and the corner bimodules, where
    descent fails), and `canonical_ideals` calls no `kernel`, so none
    inside `annihilator` (5v-mixed, perm3).  Without a corner graph both
    counters count."""
    descents, kernels = [], []
    real_descent, real_kernel = ideals._check_descent, exactlin.kernel
    monkeypatch.setattr(ideals, "_check_descent", lambda *a: descents.append(a) or real_descent(*a))
    for module in (finrank, exactlin):
        monkeypatch.setattr(module, "kernel", lambda *a: kernels.append(a) or real_kernel(*a))
    system = build_graph_system(five_vertex_mixed())
    spans = _coordinate_spans(system)
    for i in spans:
        for j in spans:
            if i.le(j):
                validate_tpair(system, i, j)
        if is_psi_invariant(system, i):
            quotient_system(system, i)
    corners = system_from_json(corner_bimodules_json())
    for i in _coordinate_spans(corners)[1:3]:
        with pytest.raises(NotInvariant):
            quotient_system(corners, i)
    assert descents == []
    for each in (build_graph_system(five_vertex_mixed()), perm3_system()):
        canonical_ideals(each)
    assert kernels == []
    killed = system_from_json(killed_vector_json("q", True))
    with pytest.raises(NotInvariant):
        validate_tpair(killed, Subspace(2, [[1, 0]]), Subspace.full(2))
    finrank.annihilator(system, Subspace(5, [[1, 1, 0, 0, 0]]))
    assert len(descents) == 1 and kernels  # the counters count


def test_enumeration_frees_the_system():
    system = build_graph_system(line_graph(3))
    ref = weakref.ref(system)
    canonical_ideals(system)
    enumerate_tpairs(system)
    del system
    gc.collect()
    assert ref() is None  # its memo (tensor levels, theta tables) goes with it


def test_enumerate_refuses_nondiagonal():
    from conftest import matrix2_ring
    from cprings.rsystem import build_automorphism_system
    from cprings.exactlin import mat_identity

    ring = matrix2_ring()
    system = build_automorphism_system(ring, mat_identity(4))
    with pytest.raises(NotImplementedError):
        enumerate_tpairs(system)


def test_meet_and_join_against_lattice(line3_system):
    pairs = enumerate_tpairs(line3_system)
    for a in pairs:
        for b in pairs:
            m = tpair_meet(a, b)
            matches = [p for p in pairs if p.i == m.i and p.j == m.j]
            assert len(matches) == 1  # meet stays in the lattice


@st.composite
def _posets(draw):
    """A random partial order on 0..n-1: the reflexive transitive closure of
    random relations along a random linear order."""
    n = draw(st.integers(0, 12))
    rank = draw(st.permutations(range(n)))
    le = [[a == b or (rank[a] < rank[b] and draw(st.booleans())) for b in range(n)] for a in range(n)]
    for c in sorted(range(n), key=rank.__getitem__):
        for a in range(n):
            if le[a][c]:
                for b in range(n):
                    le[a][b] = le[a][b] or le[c][b]
    return le


@given(_posets())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_hasse_edges_match_triple_loop(le):
    above = [sum(1 << b for b, x in enumerate(row) if x and b != a) for a, row in enumerate(le)]
    assert hasse_edges(above) == hasse_edges_oracle(le)


@pytest.mark.parametrize("graph", [
    a2_graph(), line_graph(3), three_vertex_two_cycle(), cycle_graph(3), rose_graph(2),
    five_vertex_mixed(), infinite_emitter_graph(),
    *(random_graph(random.Random(seed), max_v=5, max_e=8) for seed in range(6)),
], ids=lambda g: g.name)
def test_hasse_edges_match_triple_loop_on_lattices(graph):
    """The Hasse diagrams of the graph-pair lattice (`cli._graph_pair_lattice`)
    and of the T-pair lattice (`lattice_json`) are the triple loop's."""
    pairs = enumerate_ideal_pairs(graph)
    le = [[pair_order(a, b) for b in pairs] for a in pairs]
    assert _graph_pair_lattice(graph)["hasse_edges"] == hasse_edges_oracle(le)
    if not graph.infinite_emitters():
        system = build_graph_system(graph)
        tpairs = enumerate_tpairs(system)
        le = [[tpair_le(a, b) for b in tpairs] for a in tpairs]
        assert lattice_json(system, tpairs)["hasse_edges"] == hasse_edges_oracle(le)


# ---------------------------------------------------------------------------
# graded-ideal correspondence


def _toeplitz_ctx(system):
    return CpContext(system, validate_ideal(system, Subspace(system.ring.dim)))


def test_correspondence_round_trip(line3_system):
    ctx = _toeplitz_ctx(line3_system)
    for pair in enumerate_tpairs(line3_system):
        handle = graded_ideal_correspondence(ctx, pair)
        back = extract_tpair_from_handle(handle)
        assert back.i == pair.i, f"I mismatch for {pair}"
        assert back.j == pair.j, f"J mismatch for {pair}"


def test_correspondence_membership(line3_system):
    ctx = _toeplitz_ctx(line3_system)
    i = _coord_ideal(line3_system, "v3")
    handle = graded_ideal_correspondence(ctx, validate_tpair(line3_system, i, i))
    assert handle.contains(embed(line3_system, "R", [0, 0, 1]))
    assert not handle.contains(embed(line3_system, "R", [1, 0, 0]))
    # x_{e2} ends at v3, so it lies in the ideal generated by p_{v3}
    assert handle.contains(embed(line3_system, "Q", [0, 1]))
    assert not handle.contains(embed(line3_system, "Q", [1, 0]))
    for g in handle.generators():
        assert handle.contains(g)


def test_correspondence_zero_pair(a2_system):
    ctx = _toeplitz_ctx(a2_system)
    handle = graded_ideal_correspondence(
        ctx, validate_tpair(a2_system, Subspace(2), Subspace(2)))
    assert handle.generators() == []
    assert handle.contains(ToeplitzElement(a2_system))
    assert not handle.contains(embed(a2_system, "R", [1, 0]))
    assert not handle.contains(embed(a2_system, "Q", [1]))


def test_correspondence_order_preserving(line3_system):
    ctx = _toeplitz_ctx(line3_system)
    pairs = enumerate_tpairs(line3_system)
    handles = [graded_ideal_correspondence(ctx, p) for p in pairs]
    for a, ha in zip(pairs, handles):
        gens_a = ha.generators()
        for b, hb in zip(pairs, handles):
            included = all(hb.contains(g) for g in gens_a)
            assert included == tpair_le(a, b)


def test_correspondence_hypothesis(line3_system):
    jmax = canonical_ideals(line3_system)["j_max"]
    ctx = CpContext(line3_system, validate_ideal(line3_system, jmax))
    small = validate_tpair(line3_system, Subspace(3),
                           Subspace(3, [unit_vec(3, 0)]))
    assert small.ok
    with pytest.raises(HypothesisViolated):
        graded_ideal_correspondence(ctx, small)


def test_correspondence_builds_one_quotient(line3_system, monkeypatch):
    """The correspondence, membership and extraction build no R/I: the
    pair's flags and the walk's guard read R/I in R modulo I."""
    built = _count_quotients(monkeypatch)
    ctx = _toeplitz_ctx(line3_system)
    i = _coord_ideal(line3_system, "v3")
    handle = graded_ideal_correspondence(ctx, TPair(i, i))
    assert built == [] and handle.tpair.ok
    assert i in _floors(line3_system)
    assert handle.contains(embed(line3_system, "R", [0, 0, 1]))
    # the guard asked (FS) and the annihilator of R/I, modulo I
    assert i in _floors(line3_system, "fs") and i in _floors(line3_system, "left_annihilator")
    assert extract_tpair_from_handle(handle).j == i
    assert built == []


def test_enumeration_and_handles_share_quotients(line3_system, monkeypatch):
    """One set of floored Delta ideals per psi-invariant I, and no R/I: the
    handles reuse what the enumeration read."""
    built = _count_quotients(monkeypatch)
    ctx = _toeplitz_ctx(line3_system)
    pairs = enumerate_tpairs(line3_system)
    floors = _floors(line3_system)
    handles = [graded_ideal_correspondence(ctx, p) for p in pairs]
    assert len(pairs) == 8 and built == [] and len(floors) == 4
    assert _floors(line3_system) == floors
    for p, h in zip(pairs, handles):
        assert h.tpair.i == p.i
        assert all(h.contains(embed(line3_system, "R", v)) for v in p.i.basis())


def test_handle_guard_reads_the_quotient():
    """The handle's guard asks whether R/I, not R, has a faithful Fock
    representation.  R = <e, z> (e e = e, e z = z) fails it, since z R = 0,
    but over I = J = <z> R/I = Q e passes, and the handle answers as the
    quotient oracle does.  R = <x, y> (x x = y) over I = J = <y> fails it in
    R/I, where the class of x kills R/I, and the handle refuses."""
    ez = system_from_json(left_unit_json())
    ctx = _toeplitz_ctx(ez)
    with pytest.raises(FsViolation, match="rR = 0"):
        in_relation_ideal(ctx, embed(ez, "R", [0, 1]))
    z = Subspace(2, [[0, 1]])
    handle = graded_ideal_correspondence(ctx, TPair(z, z))
    elements = [embed(ez, "R", v) for v in ([0, 1], [1, 0], [1, 1], [0, 0])]
    got = [handle.contains(x) for x in elements]
    assert got == [True, False, False, True]
    assert got == [QuotientHandle(ctx, handle.tpair).contains(x) for x in elements]

    xy = system_from_json(square_into_ideal_json())
    y = Subspace(2, [[0, 1]])
    handle = graded_ideal_correspondence(_toeplitz_ctx(xy), TPair(y, y))
    with pytest.raises(FsViolation, match="rR = 0"):
        handle.contains(embed(xy, "R", [1, 0]))

    # (FS) likewise: psi-zero fails it, and R/R = 0 satisfies it
    psi0 = psi_zero_system()
    full = Subspace.full(2)
    handle = graded_ideal_correspondence(_toeplitz_ctx(psi0), TPair(full, full))
    assert handle.contains(embed(psi0, "R", [1, 2]))


def test_correspondence_rejects_invalid(a2_system):
    ctx = _toeplitz_ctx(a2_system)
    bad = validate_tpair(a2_system, Subspace(2), Subspace.full(2))
    assert not bad.ok
    with pytest.raises(ValueError):
        graded_ideal_correspondence(ctx, bad)


def test_cp_level_correspondence(line3_system):
    """Over K = j_max the CP ring is simple: only the trivial pairs remain."""
    jmax = canonical_ideals(line3_system)["j_max"]
    ctx = CpContext(line3_system, validate_ideal(line3_system, jmax))
    pairs = [p for p in enumerate_tpairs(line3_system) if jmax.le(p.j)]
    handles = [graded_ideal_correspondence(ctx, p) for p in pairs]
    probe = embed(line3_system, "R", [1, 0, 0])
    values = sorted(h.contains(probe) for h in handles)
    assert values == [False, True]  # the zero ideal and the whole ring


# ---------------------------------------------------------------------------
# the membership walk against the quotient-system oracle


def _contexts(system):
    """The contexts K = 0 and, where it is admissible, K = j_max."""
    d = system.ring.dim
    out = [CpContext(system, validate_ideal(system, Subspace(d)))]
    jmax = validate_ideal(system, canonical_ideals(system)["j_max"])
    if jmax.ok and not jmax.ideal.is_zero():
        out.append(CpContext(system, jmax))
    return out


def _check_against_oracle(system, pairs, rng):
    """Every pair's handle agrees with `QuotientHandle` on members x g y
    (g a generator of H) and on random elements, and extracts its own pair;
    returns the verdicts."""
    verdicts = []
    for ctx in _contexts(system):
        for pair in pairs:
            if not ctx.j.ideal.le(pair.j):
                continue
            handle = graded_ideal_correspondence(ctx, pair)
            oracle = QuotientHandle(ctx, pair)
            back = extract_tpair_from_handle(handle)
            assert (back.i, back.j) == (pair.i, pair.j)
            members = [toeplitz_mul(toeplitz_mul(random_graph_element(rng, system, 1), g),
                                    random_graph_element(rng, system, 1))
                       for g in handle.generators()[:3]]
            elements = members + [random_graph_element(rng, system) for _ in range(3)]
            got = [handle.contains(x) for x in elements]
            assert got == [oracle.contains(x) for x in elements], pair
            assert all(got[:len(members)])
            verdicts += got
    return verdicts


@pytest.mark.parametrize("make", [
    lambda: build_graph_system(line_graph(3)),
    lambda: build_graph_system(three_vertex_two_cycle()),
    lambda: build_graph_system(five_vertex_mixed()),
    perm3_system,
    lambda: build_graph_system(random_graph(random.Random(3), max_v=4, max_e=5)),
    lambda: build_graph_system(random_graph(random.Random(7), max_v=4, max_e=5)),
    lambda: build_graph_system(random_graph(random.Random(11), max_v=4, max_e=5)),
], ids=["line3", "3v2c", "5v-mixed", "perm3", "rand3", "rand7", "rand11"])
def test_handle_matches_quotient_oracle(make):
    """H_(I,J) decided on the parent's Fock blocks read modulo Q^(x)k . I
    agrees with projecting into R/I and deciding T(J/I) there, on every
    T-pair at K = 0 and K = j_max."""
    system = make()
    verdicts = _check_against_oracle(system, enumerate_tpairs(system), random.Random(5))
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("ring, ideals_", [
    (matrix2_ring, [[], None]),
    (dual_numbers_ring, [[], [[0, 1]], None]),
], ids=["matrix2", "dual"])
def test_handle_matches_quotient_oracle_nondiagonal(ring, ideals_):
    """The same comparison over M_2(Q) and the dual numbers with the identity
    automorphism, on the hand-given pairs among their ideals (None: all of R)."""
    r = ring()
    system = build_automorphism_system(r, mat_identity(r.dim))
    spans = [Subspace.full(r.dim) if rows is None else Subspace(r.dim, rows) for rows in ideals_]
    pairs = [p for p in (validate_tpair(system, i, j) for i in spans for j in spans) if p.ok]
    assert pairs
    verdicts = _check_against_oracle(system, pairs, random.Random(5))
    assert True in verdicts and False in verdicts


def test_handle_builds_nothing_over_the_quotient(line3_system, monkeypatch):
    """`contains` and `extract_tpair_from_handle` run on the parent: no
    ToeplitzElement and no CpContext over R/I.  Elements built from their
    nonzeros go through `_from_nz`, which every module that binds it sees
    counted too."""
    ctx = _toeplitz_ctx(line3_system)
    i = _coord_ideal(line3_system, "v3")
    handle = graded_ideal_correspondence(ctx, validate_tpair(line3_system, i, i))
    made = []
    for cls in (ToeplitzElement, CpContext):
        real = cls.__init__

        def counting(self, system, *args, _real=real, **kw):
            made.append(system)
            _real(self, system, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    for module in (toeplitz, cpring, ideals):
        monkeypatch.setattr(module, "_from_nz", lambda system, comps, _real=module._from_nz:
                            made.append(system) or _real(system, comps))
    assert handle.contains(embed(line3_system, "Q", [0, 1]))
    assert not handle.contains(embed(line3_system, "Q", [1, 0]))
    assert extract_tpair_from_handle(handle).i == i
    assert made and all(system is line3_system for system in made)


def test_correspondence_ignores_forged_flags(a2_system):
    """Flags on the given pair are not trusted: an invalid pair claiming every
    flag is refused."""
    ctx = _toeplitz_ctx(a2_system)
    forged = dict(validate_tpair(a2_system, Subspace(2), Subspace(2)).flags)
    assert all(forged.values())
    # (0, R): J/I is not faithful; (u, u): I is not psi-invariant
    for i, j in [(Subspace(2), Subspace.full(2)),
                 (_coord_ideal(a2_system, "u"), _coord_ideal(a2_system, "u"))]:
        assert not validate_tpair(a2_system, i, j).ok
        with pytest.raises(ValueError, match="not a T-pair"):
            graded_ideal_correspondence(ctx, TPair(i, j, dict(forged)))
