"""Inputs of the three benchmark workloads: presets, questions and seeds.

The seed changes how each question is presented, never which questions are
asked.  Each `cpr` question gets an input file of its own (eq-session one
system per preset), in which vertex, edge and ring labels get fresh random
names and the order of vertices, edges and ring basis elements is shuffled;
the order of the questions is shuffled (except within an eq-session preset,
see build_eq_session) and the two sides of an equality may swap.  The
questions themselves are fixed, so runs at different seeds ask the same
mathematical questions, while each seed still feeds the program inputs it has
not seen before.  How a question is presented still moves its cost (by up to
some 10 %), so the worker draws fresh presentations for every pass from the
run's seed (worker.Workload) and takes medians over them.

Questions are written against canonical preset names in a small fragment of
the `cpr` expression grammar (integer coefficients, `+`/`-` between terms,
`*` between factors, no parentheses except the `p()`, `x()`, `y()` sugar).
The benchmark parses that fragment itself, so it can rename labels and build
the closed-form oracle elements without going through the program's parser.

`cprings` is imported inside functions here and in oracle.py: the worker
first puts the checkout's src/ on the import path.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

# name: (vertices, [(edge, src, tgt)])
GRAPHS = {
    "a2": (["u", "v"], [("e", "u", "v")]),
    "line3": (["v1", "v2", "v3"], [("e1", "v1", "v2"), ("e2", "v2", "v3")]),
    "3v2c": (["a", "b", "c"], [("e_ab", "a", "b"), ("e_ba", "b", "a"), ("e_ac", "a", "c")]),
    "cyc3": (["v1", "v2", "v3"], [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")]),
    "rose2": (["v"], [("l1", "v", "v"), ("l2", "v", "v")]),
    "rose3": (["v"], [("l1", "v", "v"), ("l2", "v", "v"), ("l3", "v", "v")]),
    "5v-mixed": (
        ["s", "a", "b", "t", "w"],
        [("f_sa", "s", "a"), ("f_ab", "a", "b"), ("f_ba", "b", "a"),
         ("f_bt", "b", "t"), ("f_aw", "a", "w")],
    ),
}
# the automorphism system of the diagonal ring Q^3 under e1 -> e2 -> e3 -> e1
PERMUTATIONS = {"perm3": {"v1": "v2", "v2": "v3", "v3": "v1"}}

# Equalities for `cpr eq`, decided in O(j_max).  Degrees 1-3, both verdicts.
# Excluded for cost (see ledger.json): rose2 negatives above degree 1, every
# rose3 negative, random rose2 words.  Costs run from 4 ms to 130 ms plus the
# rose2 degree-1 negative (8-10 s); the set is dense on both sides of its
# median, so that the median query does not flip across a gap in costs.
EQ_COLD = [
    ("a2", "p(u)", "x(e)*y(e)"),
    ("a2", "p(v)", "y(e)*x(e)"),
    ("a2", "p(v)", "x(e)*y(e)"),
    ("a2", "x(e)", "p(u)*x(e)*p(v)"),
    ("a2", "y(e)*x(e)", "p(u)"),
    ("line3", "p(v1)", "x(e1)*y(e1)"),
    ("line3", "p(v2)", "x(e2)*y(e2)"),
    ("line3", "p(v3)", "x(e2)*y(e2)"),
    ("line3", "p(v1)", "x(e1 e2)*y(e1 e2)"),
    ("line3", "x(e1)", "x(e1 e2)*y(e2)"),
    ("line3", "p(v2)", "x(e1 e2)*y(e1 e2)"),
    ("line3", "y(e1 e2)*x(e1 e2)", "p(v3)"),
    ("line3", "x(e1)*x(e2)", "x(e1 e2)"),
    ("line3", "p(v2) + p(v3)", "x(e2)*y(e2) + y(e2)*x(e2)"),
    ("3v2c", "p(a)", "x(e_ab)*y(e_ab) + x(e_ac)*y(e_ac)"),
    ("3v2c", "p(a)", "x(e_ab)*y(e_ab)"),
    ("3v2c", "p(b)", "x(e_ba)*y(e_ba)"),
    ("3v2c", "y(e_ac)*x(e_ac)", "p(c)"),
    ("3v2c", "p(b)", "x(e_ba e_ab)*y(e_ba e_ab) + x(e_ba e_ac)*y(e_ba e_ac)"),
    ("3v2c", "p(b)", "x(e_ba e_ab)*y(e_ba e_ab)"),
    ("3v2c", "x(e_ba)", "x(e_ba e_ac)*y(e_ac)"),
    ("3v2c", "p(c)", "x(e_ac)*y(e_ac)"),
    ("3v2c", "x(e_ab e_ba)*y(e_ab e_ba) + x(e_ac)*y(e_ac)", "p(a)"),
    ("3v2c", "x(e_ab)*y(e_ac)", "0 p(a)"),
    ("3v2c", "x(e_ab)", "x(e_ab e_ba)*y(e_ba)"),
    ("3v2c", "p(a)", "x(e_ab e_ba)*y(e_ab e_ba)"),
    ("3v2c", "x(e_ab)*y(e_ab)", "x(e_ab e_ba)*y(e_ab e_ba)"),
    ("3v2c", "x(e_ba e_ab)", "x(e_ba)"),
    ("cyc3", "p(v1)", "x(e1)*y(e1)"),
    ("cyc3", "p(v2)", "x(e1)*y(e1)"),
    ("cyc3", "y(e3)*x(e3)", "p(v1)"),
    ("cyc3", "p(v1)", "x(e1 e2)*y(e1 e2)"),
    ("cyc3", "p(v1)", "x(e1 e2 e3)*y(e1 e2 e3)"),
    ("cyc3", "p(v2)", "x(e1 e2 e3)*y(e1 e2 e3)"),
    ("cyc3", "x(e1 e2)", "x(e1)"),
    ("cyc3", "y(e1)*x(e1)", "p(v2)"),
    ("cyc3", "x(e2 e3)*y(e2 e3)", "p(v2)"),
    ("cyc3", "x(e1)*y(e2)", "0 p(v1)"),
    ("cyc3", "p(v3)", "x(e3)*y(e3)"),
    ("cyc3", "x(e1)", "x(e1 e2)*y(e2)"),
    ("cyc3", "p(v3)", "x(e1)*y(e1)"),
    ("cyc3", "x(e1 e2 e3)", "x(e1)"),
    ("cyc3", "x(e3 e1)*y(e3 e1)", "p(v3)"),
    ("cyc3", "x(e2)*y(e2)", "x(e2 e3)*y(e2 e3)"),
    ("cyc3", "p(v2)", "x(e2 e3 e1)*y(e2 e3 e1)"),
    ("cyc3", "x(e1 e2)*y(e2)", "x(e1)"),
    ("rose2", "p(v)", "x(l1)*y(l1) + x(l2)*y(l2)"),
    ("rose2", "y(l1)*x(l1)", "p(v)"),
    ("rose2", "p(v)", "x(l1)*y(l1)"),
    ("rose2", "y(l1 l2)*x(l1 l2)", "p(v)"),
    ("rose2", "x(l1)", "x(l1 l1)*y(l1) + x(l1 l2)*y(l2)"),
    ("rose3", "p(v)", "x(l1)*y(l1) + x(l2)*y(l2) + x(l3)*y(l3)"),
    ("rose3", "y(l2)*x(l2)", "p(v)"),
    ("rose3", "y(l1)*x(l3)", "0 p(v)"),
    ("rose3", "y(l1 l2)*x(l1 l2)", "p(v)"),
    ("perm3", "Q:v1*P:v1", "R:v1"),
    ("perm3", "P:v1*Q:v1", "R:v2"),
    ("perm3", "P:v1*Q:v1", "R:v1"),
    ("perm3", "Q:v1*P:v1 + Q:v2*P:v2", "R:v1 + R:v2"),
    ("perm3", "Q:v1*Q:v2*P:v2*P:v1", "R:v1"),
    ("perm3", "Q:v1*P:v2", "0 R:v1"),
    ("perm3", "Q:v2*P:v2", "R:v2"),
    ("perm3", "Q:v1*Q:v2", "Q:v2*Q:v1"),
    ("perm3", "P:v1*Q:v2", "0 R:v1"),
    ("perm3", "Q:v1*P:v1 + Q:v2*P:v2 + Q:v3*P:v3", "R:v1 + R:v2 + R:v3"),
    ("perm3", "R:v1*Q:v1", "Q:v1*R:v3"),
    ("perm3", "R:v1*Q:v1", "Q:v1*R:v2"),
    ("perm3", "P:v2*Q:v2", "R:v3"),
    ("perm3", "Q:v1*Q:v2*P:v2*P:v1", "R:v2"),
    ("perm3", "P:v1*P:v2*Q:v2*Q:v1", "R:v1"),
    ("perm3", "Q:v1*Q:v2*Q:v3", "Q:v3*Q:v1*Q:v2"),
]

# Word pairs per preset.  About half the pairs on a2 and line3 are decided in
# well under a millisecond (a zero word, or no membership search at all);
# with equal shares the median pair would sit in the sparse gap between those
# and the pairs that need a search.  Weighting toward the presets where most
# pairs need a search puts the median inside a dense part of the costs.
SESSION_PAIRS = {"a2": 40, "line3": 40, "3v2c": 140, "cyc3": 140, "5v-mixed": 100, "perm3": 140}
SESSION_PRESETS = tuple(SESSION_PAIRS)
SESSION_MAX_LETTERS = 3

LATTICE_PRESETS = ("a2", "line3", "3v2c", "cyc3", "rose2", "perm3", "5v-mixed")
# preset: (I for tpair, J for tpair, non-hereditary I, H for quotient)
LATTICE_SPECS = {
    "a2": ("v", "v", "u", "v"),
    "line3": ("v3", "v1,v3", "v1", "v2,v3"),
    "3v2c": ("c", "a,b,c", "a", "c"),
    "cyc3": ("zero", "v1", "v2", "zero"),
    "rose2": ("zero", "v", "zero", "zero"),
    "perm3": ("zero", "v1", "v1", "zero"),
    "5v-mixed": ("t,w", "a,t,w", "a", "t"),
}

WORKLOADS = ("eq-cold", "eq-session", "lattice")


# ---------------------------------------------------------------------------
# expressions


def parse_expr(text: str):
    """Parse the grammar fragment into ((coeff, ((kind, arg), ...)), ...)."""
    parts = re.split(r"\s([+-])\s", text.strip())
    terms = []
    sign = 1
    for idx, part in enumerate(parts):
        if idx % 2:
            sign = 1 if part == "+" else -1
            continue
        m = re.fullmatch(r"(\d+)\s+(.*)", part)
        coeff, body = (int(m.group(1)), m.group(2)) if m else (1, part)
        factors = []
        for f in body.split("*"):
            sugar = re.fullmatch(r"([pxy])\(([^)]*)\)", f.strip())
            if sugar:
                names = tuple(sugar.group(2).split())
                factors.append((sugar.group(1), names[0] if sugar.group(1) == "p" else names))
            else:
                kind, label = f.strip().split(":", 1)
                factors.append((kind, label))
        terms.append((sign * coeff, tuple(factors)))
    return tuple(terms)


def expr_text(expr, rename) -> str:
    """Render a parsed expression in `cpr` syntax under a label renaming."""
    out = []
    for idx, (c, factors) in enumerate(expr):
        body = "*".join(_factor_text(f, rename) for f in factors)
        mag = f"{abs(c)} " if abs(c) != 1 else ""
        if idx == 0:
            out.append((f"-{abs(c)} " if c < 0 else mag if c else "0 ") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + mag + body)
    return " ".join(out)


def _factor_text(f, rename) -> str:
    kind, arg = f
    if kind == "p":
        return f"p({rename[arg]})"
    if kind in "xy":
        return f"{kind}({' '.join(rename[e] for e in arg)})"
    return f"{kind}:{rename[arg]}"


# ---------------------------------------------------------------------------
# presets under a seed


@dataclass
class Preset:
    """One preset as the program receives it under a seed."""

    name: str
    rename: dict  # canonical label -> label in the generated input
    vertices: list  # generated order (graph vertices or ring basis)
    edges: list = field(default_factory=list)  # [(name, src, tgt)], generated order
    perm: dict | None = None  # canonical ring label -> its image under phi
    path: str = ""

    @property
    def is_graph(self) -> bool:
        return self.perm is None

    def json(self) -> dict:
        if self.is_graph:
            return {
                "name": self.name,
                "vertices": self.vertices,
                "edges": [{"name": n, "src": s, "tgt": t, "mult": 1} for n, s, t in self.edges],
            }
        from cprings.rsystem import system_to_json

        return system_to_json(self.automorphism_system())

    def graph(self):
        from cprings.graphalg import Edge, FiniteGraph

        return FiniteGraph(self.vertices, [Edge(*e) for e in self.edges], name=self.name)

    def automorphism_system(self):
        """A fresh RSystem for a permutation preset (program builders only)."""
        from cprings.exactlin import unit_vec, zero_vec
        from cprings.rsystem import StructuredRing, build_automorphism_system

        labels = self.vertices
        d = len(labels)
        mult = [[unit_vec(d, i) if i == j else zero_vec(d) for j in range(d)] for i in range(d)]
        image = {self.rename[a]: self.rename[b] for a, b in self.perm.items()}
        phi = [[Fraction(int(image[labels[j]] == labels[i])) for j in range(d)] for i in range(d)]
        system = build_automorphism_system(StructuredRing(list(labels), mult), phi)
        system.name = self.name
        return system


def _fresh_names(rng: random.Random, names, prefix: str, taken: set) -> dict:
    out = {}
    for n in names:
        while True:
            cand = prefix + "".join(rng.choice("abcdefghijkmnopqrstuvwxyz") for _ in range(4))
            if cand not in taken:
                break
        taken.add(cand)
        out[n] = cand
    return out


def make_preset(name: str, rng: random.Random) -> Preset:
    taken: set = set()
    if name in GRAPHS:
        verts, edges = GRAPHS[name]
        rename = _fresh_names(rng, verts, "n", taken)
        rename.update(_fresh_names(rng, [e[0] for e in edges], "a", taken))
        gverts = [rename[v] for v in verts]
        gedges = [(rename[e], rename[s], rename[t]) for e, s, t in edges]
        rng.shuffle(gverts)
        rng.shuffle(gedges)
        return Preset(name, rename, gverts, gedges)
    perm = PERMUTATIONS[name]
    rename = _fresh_names(rng, list(perm), "r", taken)
    labels = [rename[v] for v in perm]
    rng.shuffle(labels)
    return Preset(name, rename, labels, perm=dict(perm))


def write_preset(name: str, rng: random.Random, path: str) -> Preset:
    """Generate one presentation of a preset and write its input file."""
    preset = make_preset(name, rng)
    preset.path = path
    with open(path, "w") as fh:
        json.dump(preset.json(), fh)
    return preset


def write_presets(names, seed, workdir: str) -> dict:
    """Generate the presets for one seed and write their input files."""
    rng = random.Random(f"presets/{seed}")
    return {name: write_preset(name, rng, os.path.join(workdir, f"{name}.json")) for name in names}


# ---------------------------------------------------------------------------
# questions


@dataclass
class CliQuery:
    """One `cpr` invocation, run in-process through `cli.run`."""

    preset: str
    verb: str
    argv: list
    lhs: tuple = ()  # parsed canonical expressions (eq only)
    rhs: tuple = ()
    spec: dict = field(default_factory=dict)  # canonical --i/--j sets
    key: int = -1  # the question's index in the workload's canonical order
    presented: Preset | None = None  # the question's own presentation of its preset


@dataclass
class SessionQuery:
    preset: str
    lhs: tuple  # words: tuples of (kind, canonical label)
    rhs: tuple
    key: int = -1


def _canonical_labels(name: str):
    if name in GRAPHS:
        verts, edges = GRAPHS[name]
        return list(verts), [e[0] for e in edges]
    labels = list(PERMUTATIONS[name])
    return labels, labels


def _presenter(seed, workdir: str):
    """Each `cpr` question gets an input file of its own, with its own labels
    and orders: a presentation moves a question's cost by up to some 10 %,
    and drawn per question these moves average out over a pass, where drawn
    per preset they would move all of a preset's questions together."""
    rng = random.Random(f"presets/{seed}")
    first = {}

    def present(name: str, key: int) -> Preset:
        p = write_preset(name, rng, os.path.join(workdir, f"q{key}-{name}.json"))
        first.setdefault(name, p)
        return p

    return first, present


def build_eq_cold(seed, workdir: str):
    presets, present = _presenter(seed, workdir)
    rng = random.Random(f"eq-cold/{seed}")
    queries = []
    for key, (name, lhs, rhs) in enumerate(EQ_COLD):
        a, b = parse_expr(lhs), parse_expr(rhs)
        if rng.random() < 0.5:
            a, b = b, a
        p = present(name, key)
        argv = ["eq", p.path, expr_text(a, p.rename), expr_text(b, p.rename)]
        queries.append(CliQuery(name, "eq", argv, a, b, key=key, presented=p))
    rng.shuffle(queries)
    return presets, queries


def session_words(name: str):
    """The fixed question set of one eq-session preset: SESSION_PAIRS[name] word pairs.

    Drawn like `cpr compare` draws them (a random generator followed by up to
    two more), from a generator seeded by the preset name alone.
    """
    verts, edges = _canonical_labels(name)
    letters = [("R", v) for v in verts] + [("Q", e) for e in edges] + [("P", e) for e in edges]
    rng = random.Random(f"eq-session/{name}")

    def word():
        return tuple(rng.choice(letters) for _ in range(1 + rng.randrange(SESSION_MAX_LETTERS)))

    return [(word(), word()) for _ in range(SESSION_PAIRS[name])]


def build_eq_session(seed, workdir: str):
    presets = write_presets(SESSION_PRESETS, seed, workdir)
    rng = random.Random(f"eq-session/{seed}")
    per_preset = {}
    key = 0
    for name in SESSION_PRESETS:
        qs = []
        for a, b in session_words(name):
            if rng.random() < 0.5:
                a, b = b, a
            qs.append(SessionQuery(name, a, b, key))
            key += 1
        # The pairs of a preset keep their order: a context fills its caches
        # on its first queries, so the order decides which pairs pay for
        # that, and shuffled a pair's median would flip between its cold and
        # its warm cost from run to run.
        per_preset[name] = qs
    order = list(SESSION_PRESETS)
    rng.shuffle(order)
    return presets, [(name, per_preset[name]) for name in order]


def _spec_set(spec: str):
    return frozenset() if spec == "zero" else frozenset(spec.split(","))


def _spec_text(labels, rename) -> str:
    return ",".join(sorted(rename[v] for v in labels)) if labels else "zero"


def build_lattice(seed, workdir: str):
    presets, present = _presenter(seed, workdir)
    rng = random.Random(f"lattice/{seed}")
    queries = []

    def add(name, verb, spec, argv_of):
        p = present(name, len(queries))
        queries.append(CliQuery(name, verb, argv_of(p), spec=spec, key=len(queries), presented=p))

    for name in LATTICE_PRESETS:
        i_spec, j_spec, bad_i, h_spec = map(_spec_set, LATTICE_SPECS[name])
        for verb in ("validate", "fs", "jmax", "lattice"):
            add(name, verb, {}, lambda p, verb=verb: [verb, p.path])
        for i, j in ((i_spec, j_spec), (bad_i, j_spec | bad_i)):
            add(name, "tpair", {"i": i, "j": j}, lambda p, i=i, j=j: [
                "tpair", p.path, "--i", _spec_text(i, p.rename), "--j", _spec_text(j, p.rename)])
        add(name, "quotient", {"i": h_spec}, lambda p: ["quotient", p.path, "--i", _spec_text(h_spec, p.rename)])
    rng.shuffle(queries)
    return presets, queries


BUILDERS = {"eq-cold": build_eq_cold, "eq-session": build_eq_session, "lattice": build_lattice}
