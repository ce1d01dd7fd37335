"""Finite graphs, Leavitt path algebra normal forms, and vertex-set lattices.

The Leavitt path algebra here is the closed-form backend used to cross-check
the generic Cuntz-Pimsner engine on graph systems.  Elements are kept in the
monomial normal form x_alpha y_beta^* (alpha, beta forward paths with a common
range), where monomials whose alpha and beta both end in the *special edge* of
a regular vertex (the lexicographically least edge it emits) are rewritten
away with the usual vertex relation

    x_(alpha e) y_(beta e)^*  ->  x_alpha y_beta^*  -  sum_{f != e, s(f)=s(e)}
                                                        x_(alpha f) y_(beta f)^*

Rewriting only ever fires at the last position and the surviving recursive
term is two edges shorter, so the process terminates; irreducible monomials
form the standard basis.

The combinatorial layer (hereditary/saturated sets, breaking vertices,
admissible pairs) also accepts infinite edge multiplicities; only the
algebraic expansion refuses them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exactlin import ONE, ZERO, frac
from .rsystem import _json_name


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    tgt: str
    mult: float = 1  # int, or math.inf for an infinite emitter bundle


class FiniteGraph:
    __slots__ = ("name", "vertices", "edges", "_out")

    def __init__(self, vertices: Sequence[str], edges: Iterable, name: str = "graph"):
        self.name = name
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        vset = set(self.vertices)
        norm = []
        seen = set()
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            if e.src not in vset or e.tgt not in vset:
                raise ValueError(f"edge {e.name}: endpoint not a vertex")
            if e.name in seen:
                raise ValueError(f"duplicate edge name {e.name}")
            seen.add(e.name)
            norm.append(e)
        # copy k of an edge e of finite multiplicity is named e#k (see `expand`)
        mults = {e.name: e.mult for e in norm}
        for e in norm:
            base, _, k = e.name.rpartition("#")
            if k.isdecimal() and k == str(int(k)) and 2 <= int(k) <= mults.get(base, 0) < math.inf:
                raise ValueError(f"edge name {e.name} collides with copy {k} of edge {base}")
        self.edges = tuple(norm)
        self._out = {v: tuple(e for e in self.edges if e.src == v) for v in self.vertices}

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def out_degree(self, v: str):
        return sum(e.mult for e in self._out[v])

    def sinks(self) -> list[str]:
        return [v for v in self.vertices if not self._out[v]]

    def regular_vertices(self) -> list[str]:
        return [v for v in self.vertices if 0 < self.out_degree(v) < math.inf]

    def infinite_emitters(self) -> list[str]:
        return [v for v in self.vertices if self.out_degree(v) == math.inf]

    def copies(self):
        """(name, src, tgt) of each parallel copy of each edge, copy k >= 2
        of an edge e named e#k; refuses an infinite or non-integral multiplicity."""
        for e in self.edges:
            if not math.isfinite(e.mult):
                raise ValueError(f"edge {e.name}: infinite multiplicity is not supported algebraically")
            if e.mult != int(e.mult):
                raise ValueError(f"edge {e.name}: multiplicity {e.mult} is not an integer")
            if e.mult < 1:
                raise ValueError(f"edge {e.name}: multiplicity must be >= 1")
            for k in range(1, int(e.mult) + 1):
                yield e.name if k == 1 else f"{e.name}#{k}", e.src, e.tgt

    def expand(self) -> "FiniteGraph":
        """Replace multiplicities by parallel edges (`copies`)."""
        return FiniteGraph(self.vertices, [Edge(*c) for c in self.copies()], name=self.name)

    def edge(self, name: str) -> Edge:
        for e in self.edges:
            if e.name == name:
                return e
        raise KeyError(name)

    def __repr__(self) -> str:
        return f"FiniteGraph({self.name!r}: {len(self.vertices)}v, {len(self.edges)}e)"


def graph_from_json(data: dict) -> FiniteGraph:
    """A graph from its JSON form; an edge's "mult" is a positive integer or
    "inf", and vertices, edge names and endpoints are strings."""
    edges = []
    for e in data.get("edges", []):
        mult = e.get("mult", 1)
        if mult == "inf":
            mult = math.inf
        elif isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise ValueError(f'edge {e["name"]!r}: multiplicity must be a positive integer '
                             f'or "inf", got {mult!r}')
        for key in ("name", "src", "tgt"):
            if not isinstance(e[key], str):
                raise ValueError(f'edge {key} {e[key]!r} is not a string')
        edges.append(Edge(e["name"], e["src"], e["tgt"], mult))
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise ValueError(f'"vertices" must be a list of labels, got {vertices!r}')
    bad = [v for v in vertices if not isinstance(v, str)]
    if bad:
        raise ValueError(f'vertex {bad[0]!r} is not a string')
    return FiniteGraph(vertices, edges, name=_json_name(data, "graph"))


def graph_to_json(graph: FiniteGraph) -> dict:
    return {
        "name": graph.name,
        "vertices": list(graph.vertices),
        "edges": [
            {
                "name": e.name,
                "src": e.src,
                "tgt": e.tgt,
                "mult": "inf" if e.mult == math.inf else int(e.mult),
            }
            for e in graph.edges
        ],
    }


# convenient standard shapes


def line_graph(n: int) -> FiniteGraph:
    """v1 -> v2 -> ... -> vn (its Leavitt path algebra is n x n matrices)."""
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [Edge(f"e{i}", f"v{i}", f"v{i+1}") for i in range(1, n)]
    return FiniteGraph(verts, edges, name=f"line{n}")


def rose_graph(k: int) -> FiniteGraph:
    """One vertex with k loops."""
    edges = [Edge(f"l{i}", "v", "v") for i in range(1, k + 1)]
    return FiniteGraph(["v"], edges, name=f"rose{k}")


def cycle_graph(n: int) -> FiniteGraph:
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [Edge(f"e{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)]
    return FiniteGraph(verts, edges, name=f"cycle{n}")


# ---------------------------------------------------------------------------
# Leavitt path algebra normal form


@dataclass(frozen=True)
class LpaMonomial:
    """x_alpha y_beta^*, anchored at the common range vertex."""

    alpha: tuple[str, ...]
    beta: tuple[str, ...]
    vertex: str

    def degree(self) -> int:
        return len(self.alpha) - len(self.beta)

    def __str__(self) -> str:
        parts = []
        if self.alpha:
            parts.append("x(" + " ".join(self.alpha) + ")")
        if not self.alpha and not self.beta:
            parts.append(f"p({self.vertex})")
        if self.beta:
            parts.append("y(" + " ".join(self.beta) + ")*")
        return "".join(parts)


def _check_path(graph: FiniteGraph, edges: Sequence[str]) -> tuple[str, str] | None:
    """(source, range) of a forward path, or None if not composable."""
    if not edges:
        return None
    prev = None
    for name in edges:
        e = graph.edge(name)
        if prev is not None and prev != e.src:
            return None
        prev = e.tgt
    return graph.edge(edges[0]).src, prev


def monomial(graph: FiniteGraph, alpha: Sequence[str], beta: Sequence[str], vertex: str | None = None) -> LpaMonomial:
    alpha = tuple(alpha)
    beta = tuple(beta)
    ra = _check_path(graph, alpha)
    rb = _check_path(graph, beta)
    if alpha and ra is None:
        raise ValueError(f"alpha {alpha} is not a path")
    if beta and rb is None:
        raise ValueError(f"beta {beta} is not a path")
    anchor = ra[1] if alpha else (rb[1] if beta else vertex)
    if anchor is None:
        raise ValueError("vertex required for a pure idempotent monomial")
    if alpha and beta and ra[1] != rb[1]:
        raise ValueError("alpha and beta must share their range vertex")
    if vertex is not None and vertex != anchor:
        raise ValueError("explicit vertex disagrees with path ranges")
    return LpaMonomial(alpha, beta, anchor)


def special_edge(graph: FiniteGraph, v: str) -> str | None:
    """The distinguished out-edge used in the rewriting rule (None at sinks)."""
    out = graph.out_edges(v)
    if not out:
        return None
    return min(e.name for e in out)


class LpaElement:
    """A Leavitt path algebra element in normal form (dict monomial -> coeff)."""

    __slots__ = ("graph", "terms")

    def __init__(self, graph: FiniteGraph, terms: dict[LpaMonomial, Fraction] | None = None, normalize: bool = True):
        self.graph = graph
        raw = dict(terms or {})
        self.terms = _normalize(graph, raw) if normalize else {m: c for m, c in raw.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LpaElement") -> "LpaElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return LpaElement(self.graph, out, normalize=False)

    def __sub__(self, other: "LpaElement") -> "LpaElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) - c
        return LpaElement(self.graph, out, normalize=False)

    def __rmul__(self, c) -> "LpaElement":
        c = frac(c)
        return LpaElement(self.graph, {m: c * x for m, x in self.terms.items()}, normalize=False)

    def __neg__(self) -> "LpaElement":
        return LpaElement(self.graph, {m: -x for m, x in self.terms.items()}, normalize=False)

    def __mul__(self, other: "LpaElement") -> "LpaElement":
        return lpa_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LpaElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def degrees(self) -> set[int]:
        return {m.degree() for m in self.terms}

    def __repr__(self) -> str:
        if not self.terms:
            return "LpaElement(0)"
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda mc: (len(mc[0].alpha) + len(mc[0].beta), str(mc[0]))):
            bits.append(f"{c}*{m}")
        return "LpaElement(" + " + ".join(bits) + ")"


def _normalize(graph: FiniteGraph, raw: dict[LpaMonomial, Fraction], order: str = "min") -> dict[LpaMonomial, Fraction]:
    """Apply the last-position rewrite until no excluded monomial remains.

    `order` picks which reducible monomial to rewrite first ("min"/"max" by
    string key); the result must not depend on it, which the confluence tests
    exercise.
    """
    terms = {m: c for m, c in raw.items() if c != 0}

    def reducible(m: LpaMonomial) -> bool:
        if not m.alpha or not m.beta:
            return False
        e = m.alpha[-1]
        return e == m.beta[-1] and special_edge(graph, graph.edge(e).src) == e

    while True:
        todo = [m for m in terms if reducible(m)]
        if not todo:
            break
        key = min if order == "min" else max
        m = key(todo, key=str)
        c = terms.pop(m)
        e = graph.edge(m.alpha[-1])
        head = LpaMonomial(m.alpha[:-1], m.beta[:-1], e.src)
        terms[head] = terms.get(head, ZERO) + c
        if terms[head] == 0:
            del terms[head]
        for f in graph.out_edges(e.src):
            if f.name == e.name:
                continue
            sibling = LpaMonomial(m.alpha[:-1] + (f.name,), m.beta[:-1] + (f.name,), f.tgt)
            terms[sibling] = terms.get(sibling, ZERO) - c
            if terms[sibling] == 0:
                del terms[sibling]
    return terms


def _mul_monomials(graph: FiniteGraph, m1: LpaMonomial, m2: LpaMonomial) -> LpaMonomial | None:
    """(x_a y_b^*)(x_g y_d^*) as a single monomial or None (product zero)."""
    beta, gamma = m1.beta, m2.alpha
    k = min(len(beta), len(gamma))
    if beta[:k] != gamma[:k]:
        return None
    if len(gamma) > k:
        tail = gamma[k:]
        # path continues where beta stopped; explicit check needed when beta is empty
        if not beta and graph.edge(tail[0]).src != m1.vertex:
            return None
        return LpaMonomial(m1.alpha + tail, m2.beta, m2.vertex)
    if len(beta) > k:
        tail = beta[k:]
        if not gamma and graph.edge(tail[0]).src != m2.vertex:
            return None
        return LpaMonomial(m1.alpha, m2.beta + tail, m1.vertex)
    # both consumed entirely
    if not beta and m1.vertex != m2.vertex:
        return None
    return LpaMonomial(m1.alpha, m2.beta, m2.vertex)


def _raw_product(a: LpaElement, b: LpaElement) -> dict[LpaMonomial, Fraction]:
    """The monomial products of a and b, summed, before normalization."""
    if a.graph is not b.graph:
        raise ValueError("elements live over different graphs")
    out: dict[LpaMonomial, Fraction] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = _mul_monomials(a.graph, m1, m2)
            if m is None:
                continue
            out[m] = out.get(m, ZERO) + c1 * c2
    return out


def lpa_mul(a: LpaElement, b: LpaElement) -> LpaElement:
    return LpaElement(a.graph, _normalize(a.graph, _raw_product(a, b)), normalize=False)


def lpa_vertex(graph: FiniteGraph, v: str) -> LpaElement:
    return LpaElement(graph, {monomial(graph, (), (), v): ONE})


def lpa_x(graph: FiniteGraph, *edges: str) -> LpaElement:
    return LpaElement(graph, {monomial(graph, edges, ()): ONE})


def lpa_y(graph: FiniteGraph, *edges: str) -> LpaElement:
    """y(e1 ... ek) = y_{ek} ... y_{e1}, the star of the forward path e1...ek."""
    return LpaElement(graph, {monomial(graph, (), edges): ONE})


class LpaTarget:
    """The sigma/T/S target of a graph system in its Leavitt path algebra.

    Sends ring, Q and P coordinates (in the system's label order) to the
    normal form of the matching combination of vertices, edges x_e and ghost
    edges y_e; duck-typed for `toeplitz.evaluate`.
    """

    def __init__(self, graph: FiniteGraph, system):
        self.graph = graph
        self._r = [lpa_vertex(graph, v) for v in system.ring.labels]
        self._q = [lpa_x(graph, e) for e in system.q.labels]
        self._p = [lpa_y(graph, e) for e in system.p.labels]

    def _comb(self, coords, images) -> LpaElement:
        acc = LpaElement(self.graph, {})
        for c, img in zip(coords, images):
            if c != 0:
                acc = acc + frac(c) * img
        return acc

    def sigma(self, r) -> LpaElement:
        return self._comb(r, self._r)

    def t(self, q) -> LpaElement:
        return self._comb(q, self._q)

    def s(self, p) -> LpaElement:
        return self._comb(p, self._p)


# ---------------------------------------------------------------------------
# hereditary / saturated vertex sets and admissible pairs


def hereditary_saturated_closure(graph: FiniteGraph, seed: Iterable[str]) -> frozenset:
    h = set(seed)
    changed = True
    while changed:
        changed = False
        for e in graph.edges:
            if e.src in h and e.tgt not in h:
                h.add(e.tgt)
                changed = True
        for v in graph.regular_vertices():
            if v not in h and all(e.tgt in h for e in graph.out_edges(v)):
                h.add(v)
                changed = True
    return frozenset(h)


def is_hereditary_saturated(graph: FiniteGraph, h: Iterable[str]) -> bool:
    hs = frozenset(h)
    return hereditary_saturated_closure(graph, hs) == hs


def enumerate_hs(graph: FiniteGraph) -> list[frozenset]:
    """All hereditary saturated sets, generated by single-vertex enlargements."""
    base = hereditary_saturated_closure(graph, ())
    found = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for h in frontier:
            for v in graph.vertices:
                if v in h:
                    continue
                h2 = hereditary_saturated_closure(graph, h | {v})
                if h2 not in found:
                    found.add(h2)
                    nxt.append(h2)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def breaking_vertices(graph: FiniteGraph, h: Iterable[str]) -> frozenset:
    """Infinite emitters outside H with finitely many (but some) edges avoiding H."""
    hs = frozenset(h)
    out = set()
    for v in graph.infinite_emitters():
        if v in hs:
            continue
        escaping = sum(e.mult for e in graph.out_edges(v) if e.tgt not in hs)
        if 0 < escaping < math.inf:
            out.add(v)
    return frozenset(out)


def enumerate_ideal_pairs(graph: FiniteGraph) -> list[tuple[frozenset, frozenset]]:
    """All admissible pairs (H, S): H hereditary saturated, S breaking vertices."""
    pairs = []
    for h in enumerate_hs(graph):
        bh = sorted(breaking_vertices(graph, h))
        for r in range(len(bh) + 1):
            for s in itertools.combinations(bh, r):
                pairs.append((h, frozenset(s)))
    return pairs


def pair_order(a: tuple[frozenset, frozenset], b: tuple[frozenset, frozenset]) -> bool:
    """(H1,S1) <= (H2,S2) in the graded-ideal order."""
    h1, s1 = a
    h2, s2 = b
    return h1 <= h2 and s1 <= (h2 | s2)


def restriction_graph(graph: FiniteGraph, h: Iterable[str]) -> FiniteGraph:
    """The restriction of the graph to the complement of a hereditary H: the
    vertices outside H and the edges into them (no edge into the complement
    leaves H, since H is hereditary)."""
    hs = frozenset(h)
    verts = [v for v in graph.vertices if v not in hs]
    edges = [e for e in graph.edges if e.tgt not in hs]
    return FiniteGraph(verts, edges, name=f"{graph.name}/{{{','.join(sorted(hs))}}}")

