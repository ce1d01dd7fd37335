"""Independent answers to every benchmark question.

Nothing here consults an earlier run of the code under test.

- Equalities on graph presets are decided in the Leavitt path algebra closed
  form (`cprings.graphalg` normal forms).
- Equalities on permutation presets are decided in the crossed product
  closed form (`cprings.crossedprod.cp_to_crossed`; j_max is all of R there).
- Ideal-lattice answers come from brute force over vertex subsets, written
  here from the definitions, and the counts it gives are cross-checked
  against expected_lattice.json, which also carries the counts frozen in
  the package's test suite (4 T-pairs for a2, 8 for line3, 3 for rose2).
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction

from workloads import GRAPHS, PERMUTATIONS

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_lattice.json")


# ---------------------------------------------------------------------------
# closed forms on canonical graphs


def _subsets(items):
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def sinks(name):
    verts, edges = GRAPHS[name]
    return frozenset(v for v in verts if not any(s == v for _, s, _ in edges))


def hereditary(name, h) -> bool:
    return all(t in h for _, s, t in GRAPHS[name][1] if s in h)


def saturated(name, h) -> bool:
    verts, edges = GRAPHS[name]
    for v in verts:
        targets = [t for _, s, t in edges if s == v]
        if targets and v not in h and all(t in h for t in targets):
            return False
    return True


def hs_sets(name):
    return {h for h in _subsets(GRAPHS[name][0]) if hereditary(name, h) and saturated(name, h)}


def tpair_ok(name, i, j) -> bool:
    """(I, J) is a T-pair of the preset's system (coordinate ideals).

    Graphs: I hereditary, and J \\ I made of vertices outside I that still
    emit an edge outside I (Delta is faithful on them in the quotient).
    Permutations: I invariant under the permutation; Delta is injective on
    every quotient, so any J containing I works.
    """
    if not i <= j:
        return False
    if name in PERMUTATIONS:
        perm = PERMUTATIONS[name]
        return all(perm[v] in i for v in i)
    if not hereditary(name, i):
        return False
    edges = GRAPHS[name][1]
    return all(any(s == v and t not in i for _, s, t in edges) for v in j - i)


def tpairs(name):
    labels = list(PERMUTATIONS[name]) if name in PERMUTATIONS else GRAPHS[name][0]
    return {(i, j) for i in _subsets(labels) for j in _subsets(labels) if tpair_ok(name, i, j)}


def hasse_count(elements, le) -> int:
    elements = list(elements)
    count = 0
    for a in elements:
        for b in elements:
            if a != b and le(a, b) and not any(
                c not in (a, b) and le(a, c) and le(c, b) for c in elements
            ):
                count += 1
    return count


def lattice_counts(name) -> dict:
    pairs = tpairs(name)
    out = {
        "tpairs": len(pairs),
        "tpair_hasse_edges": hasse_count(pairs, lambda a, b: a[0] <= b[0] and a[1] <= b[1]),
    }
    if name in GRAPHS:
        hs = hs_sets(name)
        out["hs_sets"] = len(hs)
        out["hs_hasse_edges"] = hasse_count(hs, lambda a, b: a <= b)
    return out


def check_expected_counts(names):
    """The brute force must reproduce the checked-in counts."""
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    for name in names:
        got = lattice_counts(name)
        if got != expected[name]:
            raise AssertionError(f"brute force for {name} gives {got}, expected {expected[name]}")


# ---------------------------------------------------------------------------
# equality oracles


def _lpa(preset, graph, word_or_expr):
    from cprings.graphalg import LpaElement, lpa_vertex, lpa_x, lpa_y

    acc = LpaElement(graph, {})
    for c, factors in word_or_expr:
        term = None
        for kind, arg in factors:
            if kind in ("p", "R"):
                f = lpa_vertex(graph, preset.rename[arg])
            elif kind in ("x", "Q"):
                path = arg if kind == "x" else (arg,)
                f = lpa_x(graph, *(preset.rename[e] for e in path))
            else:
                path = arg if kind == "y" else (arg,)
                f = lpa_y(graph, *(preset.rename[e] for e in path))
            term = f if term is None else term * f
        acc = acc + Fraction(c) * term
    return acc


def _toeplitz(preset, system, expr):
    from cprings.exactlin import unit_vec
    from cprings.toeplitz import ToeplitzElement, embed, toeplitz_mul

    acc = ToeplitzElement(system, {})
    for c, factors in expr:
        term = None
        for kind, label in factors:
            mod = {"R": system.ring, "Q": system.q, "P": system.p}[kind]
            f = embed(system, kind, unit_vec(mod.dim, mod.labels.index(preset.rename[label])))
            term = f if term is None else toeplitz_mul(term, f)
        acc = acc + Fraction(c) * term
    return acc


class EqualityOracle:
    """Decides equalities in O(j_max) for one preset by its closed form."""

    def __init__(self, preset):
        self.preset = preset
        if preset.is_graph:
            self.graph = preset.graph()
        else:
            from cprings.cpring import CpContext, validate_ideal
            from cprings.exactlin import Subspace

            system = preset.automorphism_system()
            self.ctx = CpContext(system, validate_ideal(system, Subspace.full(system.ring.dim)))

    def equal(self, lhs, rhs) -> bool:
        if self.preset.is_graph:
            return _lpa(self.preset, self.graph, lhs) == _lpa(self.preset, self.graph, rhs)
        from cprings.crossedprod import cp_to_crossed

        system = self.ctx.system
        a = _toeplitz(self.preset, system, lhs)
        b = _toeplitz(self.preset, system, rhs)
        return cp_to_crossed(self.ctx, a) == cp_to_crossed(self.ctx, b)


def word_expr(word):
    """A session word (tuple of letters) as a one-term expression."""
    return ((1, tuple(word)),)


# ---------------------------------------------------------------------------
# checking `cpr` answers


def _labels_of_rows(rows, order):
    """Coordinate-ideal basis rows (as printed by `cpr lattice`) -> label set."""
    out = set()
    for row in rows:
        hot = [k for k, c in enumerate(row) if Fraction(c) != 0]
        if len(hot) != 1 or Fraction(row[hot[0]]) != 1:
            raise AssertionError(f"basis row {row} is not a coordinate vector")
        out.add(order[hot[0]])
    return frozenset(out)


def _canon(preset, labels):
    back = {v: k for k, v in preset.rename.items()}
    return frozenset(back[x] for x in labels)


def check_cli(query, preset, code, payload, equal=None) -> str | None:
    """None if the answer is right, else a one-line reason."""
    name = query.preset
    result = payload.get("result")
    verb = query.verb
    if verb == "eq":
        got = result["equal"]
        return None if got == equal and code == (0 if equal else 1) else f"equal={got}, expected {equal}"
    if verb == "validate":
        return None if payload["ok"] and code == 0 and not result["failures"] else "axioms reported failing"
    if verb == "fs":
        return None if result["fs"] and code == 0 else "(FS) reported failing"
    if verb == "jmax":
        if name in PERMUTATIONS:
            labels = frozenset(PERMUTATIONS[name])
            want = {"ker_delta": frozenset(), "delta_inv_F": labels, "j_max": labels}
        else:
            verts = frozenset(GRAPHS[name][0])
            want = {"ker_delta": sinks(name), "delta_inv_F": verts, "j_max": verts - sinks(name)}
        for key, labels in want.items():
            if _canon(preset, result[key]) != labels:
                return f"{key} = {result[key]}"
        return None if result["hypothesis_ok"] else "hypothesis_ok is false"
    if verb == "lattice":
        got = {
            (_labels_of_rows(n["i_basis"], preset.vertices), _labels_of_rows(n["j_basis"], preset.vertices))
            for n in result["tpairs"]["nodes"]
        }
        got = {(_canon(preset, i), _canon(preset, j)) for i, j in got}
        if got != tpairs(name):
            return f"{len(got)} T-pairs, expected {len(tpairs(name))}"
        counts = lattice_counts(name)
        if len(result["tpairs"]["hasse_edges"]) != counts["tpair_hasse_edges"]:
            return "T-pair Hasse diagram differs"
        if name in GRAPHS:
            hs = {_canon(preset, n["h"]) for n in result["graph_pairs"]["nodes"]}
            if hs != hs_sets(name) or any(n["s"] for n in result["graph_pairs"]["nodes"]):
                return "hereditary saturated pairs differ"
            if len(result["graph_pairs"]["hasse_edges"]) != counts["hs_hasse_edges"]:
                return "(H,S) Hasse diagram differs"
        return None
    if verb == "tpair":
        want = tpair_ok(name, query.spec["i"], query.spec["j"])
        return None if result["ok"] == want and code == (0 if want else 1) else f"ok={result['ok']}, expected {want}"
    if verb == "quotient":
        h = query.spec["i"]
        labels = list(PERMUTATIONS[name]) if name in PERMUTATIONS else GRAPHS[name][0]
        if _canon(preset, result["system"]["ring"]["basis"]) != frozenset(labels) - h:
            return "quotient ring basis differs"
        if name in GRAPHS:
            kept = frozenset(e for e, _, t in GRAPHS[name][1] if t not in h)
            if _canon(preset, result["system"]["q"]["basis"]) != kept:
                return "quotient Q basis differs"
            graph = result["graph"]
            if _canon(preset, graph["vertices"]) != frozenset(labels) - h:
                return "restriction graph vertices differ"
            if _canon(preset, [e["name"] for e in graph["edges"]]) != kept:
                return "restriction graph edges differ"
            flagged = any("not saturated" in d for d in payload["diagnostics"])
            if flagged == saturated(name, h):
                return "saturation diagnostic is wrong"
        return None
    raise ValueError(f"no oracle for verb {verb!r}")
