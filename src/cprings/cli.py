"""The `cpr` command line front end.

Loads a system or graph from JSON, parses element expressions, and drives the
core operations:

    validate    ring/bimodule/pairing axioms
    mul         product of two expressions in the Toeplitz ring
    eq          equality (Cuntz-Pimsner ring at a chosen J, or raw Toeplitz)
    nf          canonical normal form (Toeplitz components or LPA monomials)
    fs          condition (FS) with certificates, and whether rR = 0 only for r = 0
    jmax        canonical ideals: ker Delta, Delta^-1(F), j_max
    lattice     graded-ideal lattice ((H,S) pairs for graphs, T-pairs for systems)
    tpair       validate a candidate T-pair (I, J)
    quotient    quotient system by a psi-invariant ideal, as JSON
    compare     randomized backend cross-check (structural vs closed form)
    gauge-split z-homogeneous parts (the gauge action's eigencomponents)

Output is machine-first JSON on stdout: {"ok": ..., "result": ...,
"diagnostics": [...]}; `ok` is the affirmative verdict of the verb (axioms
hold, elements equal, pair valid, zero disagreements, ...).  `--format
table` renders the same result as aligned text, `--format dot` emits DOT for
lattice output.  Exit status: 0 affirmative, 1 negative verdict or domain
error, 2 usage/input error (bad flags, missing or malformed file, expression
syntax), 3 undecided: the question needs a tensor level above `--cap`.

A verb takes FILE, its EXPR operands and its flags (`cpr VERB -h` lists
them with their defaults and choices).  Flags come after the verb as `--flag
value` or `--flag=value`, spelt out or as a unique prefix, and the last of a
repeated flag wins; `--` ends them.

Element grammar:

    expr   := term (('+'|'-') term)*
    term   := ('-'? rational)? factor ('*' factor)*
    factor := 'R:'label | 'Q:'label | 'P:'label | '(' expr ')'

with rationals written `a/b` or as integers, plus the graph sugar `p(v)`,
`x(e1 e2 ...)` (path in Q), and `y(e1 e2 ...)` (the same path reversed into
P).  Printing is canonical and re-parses to an equal element: each basis
class prints as its word (the level-1 letters whose pure tensor it is the
class of, `TensorSpace.words`), terms sorted by grade, then word.  Over a ring
that is not diagonal that word may differ from the one typed (`Q:1*Q:x` over
the dual numbers prints as `Q:x*Q:1`, the same class).
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .cpring import CpContext, FsViolation, cp_equal, validate_ideal
from .exactlin import Subspace, frac
from .finrank import canonical_ideals, check_fs, left_annihilator
from .graphalg import (
    FiniteGraph,
    _check_path,
    breaking_vertices,
    enumerate_ideal_pairs,
    graph_from_json,
    graph_to_json,
    is_hereditary_saturated,
    lpa_target,
    lpa_vertex,
    lpa_x,
    lpa_y,
    pair_order,
    restriction_graph,
)
from .ideals import (
    _basis_lists,
    _hasse_dot,
    enumerate_tpairs,
    hasse_edges,
    lattice_dot,
    lattice_json,
    quotient_system,
    validate_tpair,
)
from .rsystem import (
    RSystem,
    build_graph_system,
    system_from_json,
    system_to_json,
    validate_axioms,
)
from .tensorpow import CapExceeded, DEFAULT_CAP
from .toeplitz import (
    ToeplitzElement,
    _class_words,
    _from_nz,
    evaluate,
    toeplitz_mul,
    z_project,
)

__all__ = [
    "ExprSyntaxError",
    "UnknownGenerator",
    "EvalContext",
    "format_element",
    "load_input",
    "main",
    "parse_element",
    "run",
]


class ExprSyntaxError(SyntaxError):
    """Expression parse failure; carries 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.lineno = line
        self.offset = col


class UnknownGenerator(ValueError):
    """A generator label or path that the loaded context does not define."""


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


@dataclass
class LoadedInput:
    kind: str  # "graph" | "system"
    graph: Optional[FiniteGraph]
    _system: Optional[RSystem] = None  # a system file's, read by load_input

    @property
    def system(self) -> RSystem:
        if self._system is None:
            self._system = build_graph_system(self.graph)
        return self._system

    @property
    def paths(self) -> Optional[FiniteGraph]:
        """The graph expressions and the Leavitt closed form read: an edge e of finite
        multiplicity k is the parallel edges e, e#2, ..., e#k, the system's copies."""
        g = self.graph
        return g if g is None or g.infinite_emitters() else g.expand()


# what the JSON readers raise on a well-formed JSON value of the wrong shape
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError)


def load_input(path: str) -> LoadedInput:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise _UsageError(f"{path}: top-level JSON value is not an object")
    try:
        if "vertices" in data:
            return LoadedInput("graph", graph_from_json(data))
        if "ring" in data:
            return LoadedInput("system", None, system_from_json(data))
    except _MALFORMED as exc:
        raise _UsageError(f"{path}: malformed input: {type(exc).__name__}: {exc}")
    raise _UsageError(f"{path}: neither a graph (vertices) nor a system (ring) file")


# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+(?:/\d+)?)
      | (?P<gen>[RQP]:[^\s()*+-]+)
      | (?P<sugar>[pxy]\()
      | (?P<op>[-+*()])
      | (?P<name>[^\s()*+-]+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind == "num":
            try:
                frac(val)
            except ZeroDivisionError:
                raise ExprSyntaxError(f"zero denominator in {val!r}", line, col) from None
            except ValueError:  # longer than the interpreter's int-string limit
                raise ExprSyntaxError(f"numeral of {len(val)} characters is too long", line, col) from None
        if kind != "ws":
            tokens.append((kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


@dataclass
class EvalContext:
    """Element-building context: which system/graph and which backend."""

    system: Optional[RSystem]
    graph: Optional[FiniteGraph] = None
    backend: str = "toeplitz"  # or "lpa"
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.backend not in ("toeplitz", "lpa"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "lpa" and self.graph is None:
            raise ValueError("the LPA backend needs a graph")
        if self.backend == "toeplitz" and self.system is None:
            raise ValueError("the Toeplitz backend needs a system")

    def _index(self, space, label, what) -> int:
        try:
            return space.index(label)
        except KeyError:
            raise UnknownGenerator(f"unknown {what} {label!r}") from None

    def _require_path(self, edges, what):
        """Refuse a nonempty list of edge names that is not a path of the graph."""
        if self.graph is None:
            return
        try:
            ends = _check_path(self.graph, edges)
        except KeyError as exc:
            raise UnknownGenerator(f"unknown edge {exc.args[0]!r} in {what}") from None
        if ends is None:
            raise UnknownGenerator(f"{what}: {' '.join(edges)} is not a composable path")

    # -- generator constructors ---------------------------------------------
    def generator(self, kind: str, label: str):
        if self.backend == "lpa":
            g = self.graph
            if kind == "R":
                if label not in g.vertices:
                    raise UnknownGenerator(f"unknown vertex {label!r}")
                return lpa_vertex(g, label)
            self._require_path([label], f"{kind}:{label}")
            return lpa_x(g, label) if kind == "Q" else lpa_y(g, label)
        sy = self.system
        if kind == "R":
            i, grade = self._index(sy.ring, label, "ring label"), (0, 0)
        else:
            mod, grade = (sy.q, (1, 0)) if kind == "Q" else (sy.p, (0, 1))
            i = self._index(mod, label, "module label")
        return _from_nz(sy, {grade: ((i, 1),)})

    def sugar(self, head: str, names: list[str]):
        if head == "p":
            if len(names) != 1:
                raise UnknownGenerator("p() takes exactly one vertex")
            return self.generator("R", names[0])
        if not names:
            raise UnknownGenerator(f"{head}() needs at least one edge")
        self._require_path(names, f"{head}({' '.join(names)})")
        if self.backend == "lpa":
            return lpa_x(self.graph, *names) if head == "x" else lpa_y(self.graph, *names)
        if head == "x":
            out = self.generator("Q", names[0])
            for name in names[1:]:
                out = toeplitz_mul(out, self.generator("Q", name), cap=self.cap)
            return out
        out = self.generator("P", names[-1])
        for name in reversed(names[:-1]):
            out = toeplitz_mul(out, self.generator("P", name), cap=self.cap)
        return out

    def mul(self, a, b):
        if self.backend == "lpa":
            return a * b
        return toeplitz_mul(a, b, cap=self.cap)


# deepest parenthesis nesting the recursive-descent parser accepts; each level
# costs three Python frames, so this stays well inside the recursion limit
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, ctx: EvalContext):
        self.tokens = tokens
        self.ctx = ctx
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message):
        kind, val, line, col = self.peek()
        shown = val or "end of input"
        raise ExprSyntaxError(f"{message}, got {shown!r}", line, col)

    def expr(self):
        acc = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.next()[1]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self):
        coeff = None
        # a '-' right before a term's coefficient is its sign: "-2 p(u)", "p(u) - -2 p(v)"
        if self.peek()[:2] == ("op", "-") and self.tokens[self.i + 1][0] == "num":
            self.next()
            coeff = -frac(self.next()[1])
        elif self.peek()[0] == "num":
            coeff = frac(self.next()[1])
        out = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] == "*":
            self.next()
            out = self.ctx.mul(out, self.factor())
        return out if coeff is None else coeff * out

    def factor(self):
        kind, val, line, col = self.peek()
        if kind == "gen":
            self.next()
            prefix, label = val.split(":", 1)
            return self.ctx.generator(prefix, label)
        if kind == "sugar":
            self.next()
            names = []
            while self.peek()[0] in ("name", "num", "gen"):
                names.append(self.next()[1])
            if not (self.peek()[0] == "op" and self.peek()[1] == ")"):
                self.fail("expected ')' closing the generator list")
            self.next()
            return self.ctx.sugar(val[0], names)
        if kind == "op" and val == "(":
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}")
            self.next()
            self.depth += 1
            out = self.expr()
            self.depth -= 1
            if not (self.peek()[0] == "op" and self.peek()[1] == ")"):
                self.fail("expected ')'")
            self.next()
            return out
        self.fail("expected a generator, sugar call, or '('")

    def parse(self):
        out = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return out


def parse_element(text: str, ctx: EvalContext):
    """Parse an expression into a ToeplitzElement or LpaElement."""
    return _Parser(_tokenize(text), ctx).parse()


# ---------------------------------------------------------------------------
# Canonical printing (round-trips through parse_element)
# ---------------------------------------------------------------------------


def _fmt_coeff(c: int | Fraction) -> str:
    """An int and the equal integral Fraction print the same text."""
    return str(c)


def _class_letters(system, m: int, n: int, t: int):
    """Basis class t of grade (m, n) as its word of (kind, index) letters."""
    if m == 0 and n == 0:
        return (("R", t),)
    q, p = _class_words(system, m, n, t)
    return tuple(("Q", i) for i in q) + tuple(("P", i) for i in p)


def _format_toeplitz(x: ToeplitzElement) -> str:
    sy = x.system
    labels = {"R": sy.ring.labels, "Q": sy.q.labels, "P": sy.p.labels}
    terms = []  # (sort key, coeff, [factor strings]), sorted by grade, then word
    for (m, n), v in x.comps.items():
        for t, c in v:
            word = _class_letters(sy, m, n, t)
            terms.append(((m, n, word), c, [f"{k}:{labels[k][i]}" for k, i in word]))
    return _join_terms(sorted(terms))


def _format_lpa(x) -> str:
    terms = []
    for mono, c in x.terms.items():
        factors = []
        if mono.alpha:
            factors.append("x(" + " ".join(mono.alpha) + ")")
        if mono.beta:
            factors.append("y(" + " ".join(mono.beta) + ")")
        if not factors:
            factors = [f"p({mono.vertex})"]
        key = (len(mono.alpha) + len(mono.beta), mono.alpha, mono.beta, mono.vertex)
        terms.append((key, c, factors))
    return _join_terms(sorted(terms))


def _join_terms(terms) -> str:
    if not terms:
        return "0 (empty sum)"  # not re-parseable; callers special-case zero
    bits = []
    for idx, (_, c, factors) in enumerate(terms):
        body = "*".join(factors)
        mag = abs(c)
        prefix = "" if mag == 1 else _fmt_coeff(mag) + " "
        if idx == 0:
            head = f"-{_fmt_coeff(mag)} " if c < 0 else prefix
            bits.append(head + body)
        else:
            bits.append(("- " if c < 0 else "+ ") + prefix + body)
    return " ".join(bits)


def format_element(x) -> str:
    """Canonical, grammar-valid printing (except the zero element)."""
    if isinstance(x, ToeplitzElement):
        return _format_toeplitz(x)
    return _format_lpa(x)


# ---------------------------------------------------------------------------
# Subspace specs and JSON helpers
# ---------------------------------------------------------------------------


def _coord_subspace(loaded: LoadedInput, spec: str) -> Subspace:
    """Parse an ideal spec: '', 'zero', 'full', 'jmax', or comma labels."""
    sy = loaded.system
    d = sy.ring.dim
    spec = (spec or "").strip()
    if spec in ("", "zero"):
        return Subspace(d, [])
    if spec == "full":
        return Subspace.full(d)
    if spec == "jmax":
        return canonical_ideals(sy)["j_max"]
    indices = []
    for label in spec.split(","):
        label = label.strip()
        try:
            indices.append(sy.ring.index(label))
        except KeyError:
            raise UnknownGenerator(f"unknown ring label {label!r} in ideal spec") from None
    return Subspace.coordinate_span(d, indices)


def _subspace_json(ring, sub: Subspace):
    """Label list when the subspace is a coordinate span, else basis rows."""
    mask = sub.coordinate_mask()
    if mask is None:
        return {"dim": sub.dim, "basis": _basis_lists(sub)}
    return sorted(label for t, label in enumerate(ring.labels) if mask >> t & 1)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    ok: bool
    result: object
    diagnostics: list = field(default_factory=list)
    rendered: Optional[str] = None  # non-JSON payload (dot/table)


def _toeplitz_ctx(loaded: LoadedInput, args) -> EvalContext:
    return EvalContext(loaded.system, loaded.paths, "toeplitz", cap=args.cap)


def _cp_context(loaded: LoadedInput, args, jspec: str) -> CpContext:
    """The context of O(J); `CpContext` refuses a J that is not admissible."""
    sy = loaded.system
    return CpContext(sy, validate_ideal(sy, _coord_subspace(loaded, jspec)), cap=args.cap)


def _verb_validate(loaded, args) -> Outcome:
    report = validate_axioms(loaded.system)
    return Outcome(
        report.ok,
        {"checks": report.checks, "failures": report.failures},
    )


def _verb_mul(loaded, args) -> Outcome:
    ctx = _toeplitz_ctx(loaded, args)
    a = parse_element(args.exprs[0], ctx)
    b = parse_element(args.exprs[1], ctx)
    prod = toeplitz_mul(a, b, cap=args.cap)
    return Outcome(
        True,
        {
            "element": None if prod.is_zero() else format_element(prod),
            "zero": prod.is_zero(),
            "support": [list(g) for g in prod.support()],
        },
    )


def _verb_eq(loaded, args) -> Outcome:
    ctx = _toeplitz_ctx(loaded, args)
    a = parse_element(args.exprs[0], ctx)
    b = parse_element(args.exprs[1], ctx)
    if args.ring == "toeplitz":
        equal = a == b
        where = "toeplitz"
    else:
        cp_ctx = _cp_context(loaded, args, args.j)
        equal = cp_equal(cp_ctx.element(a), cp_ctx.element(b))
        where = f"cp(J={args.j})"
    return Outcome(equal, {"equal": equal, "ring": where})


def _verb_nf(loaded, args) -> Outcome:
    backend = args.backend
    if backend == "auto":
        backend = "lpa" if loaded.kind == "graph" else "toeplitz"
    if backend == "lpa" and loaded.kind != "graph":
        raise _UsageError("--backend lpa needs a graph input")
    ctx = EvalContext(
        loaded.system if backend == "toeplitz" else None,
        loaded.paths,
        backend,
        cap=args.cap,
    )
    x = parse_element(args.exprs[0], ctx)
    if backend == "lpa":
        result = {
            "backend": "lpa",
            "zero": x.is_zero(),
            "element": None if x.is_zero() else format_element(x),
            "monomials": len(x.terms),
        }
    else:
        result = {
            "backend": "toeplitz",
            "zero": x.is_zero(),
            "element": None if x.is_zero() else format_element(x),
            "support": [list(g) for g in x.support()],
        }
    return Outcome(True, result)


def _verb_fs(loaded, args) -> Outcome:
    report = check_fs(loaded.system)
    result = {
        "fs": report.ok,
        # the other half of the membership guard: no nonzero r has rR = 0
        "fock_faithful": left_annihilator(loaded.system).is_zero(),
        "q_ok": report.q_ok,
        "p_ok": report.p_ok,
        "q_certificate_terms": None if report.q_certificate is None else len(report.q_certificate),
        "p_certificate_terms": None if report.p_certificate is None else len(report.p_certificate),
    }
    return Outcome(report.ok, result)


def _verb_jmax(loaded, args) -> Outcome:
    ideals = canonical_ideals(loaded.system)
    ring = loaded.system.ring
    result = {
        "ker_delta": _subspace_json(ring, ideals["ker_delta"]),
        "delta_inv_F": _subspace_json(ring, ideals["delta_inv_F"]),
        "j_max": _subspace_json(ring, ideals["j_max"]),
        "hypothesis_ok": ideals["hypothesis_ok"],
    }
    diags = [] if ideals["hypothesis_ok"] else ["j_max meets ker Delta: maximality not guaranteed"]
    return Outcome(True, result, diags)


def _graph_pair_lattice(graph: FiniteGraph) -> dict:
    pairs = enumerate_ideal_pairs(graph)
    nodes = [
        {"h": sorted(h), "s": sorted(s), "breaking": sorted(breaking_vertices(graph, h))}
        for h, s in pairs
    ]
    above = [sum(1 << b for b, y in enumerate(pairs) if b != a and pair_order(x, y)) for a, x in enumerate(pairs)]
    return {"nodes": nodes, "hasse_edges": hasse_edges(above)}


def _graph_pair_dot(data: dict) -> str:
    labels = ["{" + " ".join(node["h"]) + "}" + ("|" + " ".join(node["s"]) if node["s"] else "")
              for node in data["nodes"]]
    return _hasse_dot("ideals", labels, data["hasse_edges"])


def _verb_lattice(loaded, args) -> Outcome:
    result: dict = {}
    diags: list = []
    if loaded.kind == "graph":
        result["graph_pairs"] = dict(_graph_pair_lattice(loaded.graph), graph=loaded.graph.name)
    try:
        system = loaded.system
    except ValueError as exc:  # infinite emitters: algebraic side unavailable
        diags.append(f"T-pair enumeration skipped: {exc}")
    else:
        result["tpairs"] = lattice_json(system, enumerate_tpairs(system))
    rendered = None  # read by `run` only under --format dot
    if args.format == "dot":
        if "tpairs" in result:
            rendered = lattice_dot(result["tpairs"])
        elif "graph_pairs" in result:
            rendered = _graph_pair_dot(result["graph_pairs"])
    return Outcome(True, result, diags, rendered=rendered)


def _verb_tpair(loaded, args) -> Outcome:
    sy = loaded.system
    i_sub = _coord_subspace(loaded, args.i)
    j_sub = _coord_subspace(loaded, args.j)
    pair = validate_tpair(sy, i_sub, j_sub)
    return Outcome(
        pair.ok,
        {
            "ok": pair.ok,
            "i": _subspace_json(sy.ring, pair.i),
            "j": _subspace_json(sy.ring, pair.j),
            "flags": pair.flags,
        },
    )


def _verb_quotient(loaded, args) -> Outcome:
    sy = loaded.system
    i_sub = _coord_subspace(loaded, args.i)
    qs = quotient_system(sy, i_sub)
    result = {"system": system_to_json(qs.system)}
    diags = []
    if loaded.kind == "graph":
        labels = _subspace_json(sy.ring, i_sub)
        if isinstance(labels, list):
            # invariance (checked above) = heredity, so the restriction to the
            # complement presents the quotient system; saturation only matters
            # for the Cuntz-Krieger quotient, hence the diagnostic
            result["graph"] = graph_to_json(restriction_graph(loaded.graph, labels))
            if not is_hereditary_saturated(loaded.graph, labels):
                diags.append("vertex set is hereditary but not saturated")
    return Outcome(True, result, diags)


def _verb_compare(loaded, args) -> Outcome:
    import random

    if loaded.kind != "graph":
        raise _UsageError("compare needs a graph input (LPA closed form)")
    sy = loaded.system
    rng = random.Random(args.seed)
    ctx = _cp_context(loaded, args, "jmax")
    rep = lpa_target(loaded.paths, sy)
    gens = [
        _from_nz(sy, {grade: ((i, 1),)})
        for grade, dim in (((0, 0), sy.ring.dim), ((1, 0), sy.q.dim), ((0, 1), sy.p.dim))
        for i in range(dim)
    ]

    def word():
        w = rng.choice(gens)
        for _ in range(rng.randrange(0, 3)):
            w = toeplitz_mul(w, rng.choice(gens), cap=args.cap)
        return w

    disagreements = []
    for k in range(args.words):
        a, b = word(), word()
        structural = cp_equal(ctx.element(a), ctx.element(b))
        closed = evaluate(a, rep) == evaluate(b, rep)
        if structural != closed:
            disagreements.append(
                {"pair": k, "structural": structural, "closed_form": closed}
            )
    return Outcome(
        not disagreements,
        {
            "pairs": args.words,
            "disagreements": disagreements,
            "seed": args.seed,
        },
    )


def _verb_gauge_split(loaded, args) -> Outcome:
    ctx = _toeplitz_ctx(loaded, args)
    x = parse_element(args.exprs[0], ctx)
    degrees = x.z_degrees()
    return Outcome(
        True,
        {
            "degrees": degrees,
            "components": {str(k): format_element(z_project(x, k)) for k in degrees},
        },
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class _HelpRequested(Exception):
    pass


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _nonnegative_int(text: str) -> int:
    """A non-negative integer flag value; anything else is a usage error."""
    value = _int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


class _Flag(NamedTuple):
    convert: object  # str -> value, raising ValueError on a bad one
    default: object
    choices: tuple = ()
    help: str = ""


_COMMON_FLAGS = {
    "cap": _Flag(_nonnegative_int, DEFAULT_CAP, help="highest tensor level a product or membership test may create"),
    "format": _Flag(str, "json", ("json", "dot", "table")),
}


class _Verb:
    """A verb's handler, its number of EXPRs after FILE and its flags;
    `options` also maps `-h` and `--help`, to None."""

    def __init__(self, handler, n_exprs=0, **flags):
        self.handler = handler
        self.n_exprs = n_exprs
        flags = {**_COMMON_FLAGS, **flags}
        self.flags = {f"--{name}": flag for name, flag in flags.items()}
        self.options = {**_HELP_OPTIONS, **self.flags}
        self.defaults = {name: flag.default for name, flag in flags.items()}


# the verb table: `_parse_argv` reads every command line against it, and
# `_verb_help` builds each verb's help from it
_HELP_OPTIONS = {"-h": None, "--help": None}
_VERBS = {
    "validate": _Verb(_verb_validate),
    "mul": _Verb(_verb_mul, 2),
    "eq": _Verb(_verb_eq, 2, ring=_Flag(str, "cp", ("cp", "toeplitz")),
                j=_Flag(str, "jmax", help="ideal spec: labels, zero, full, jmax")),
    "nf": _Verb(_verb_nf, 1, backend=_Flag(str, "auto", ("auto", "toeplitz", "lpa"))),
    "fs": _Verb(_verb_fs),
    "jmax": _Verb(_verb_jmax),
    "lattice": _Verb(_verb_lattice),
    "tpair": _Verb(_verb_tpair, i=_Flag(str, "", help="ideal spec for I"), j=_Flag(str, "", help="ideal spec for J")),
    "quotient": _Verb(_verb_quotient, i=_Flag(str, "", help="ideal spec for I")),
    "compare": _Verb(_verb_compare, words=_Flag(_nonnegative_int, 40, help="random pairs to test"),
                     seed=_Flag(_int, 0, help="seed of the random pairs")),
    "gauge-split": _Verb(_verb_gauge_split, 1),
}

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(token: str, options: dict):
    """None for an operand, else (option or None if unknown, value joined
    on or None).  A token starting with `-` is an operand only when it is
    `-`, a negative number or has a space; `-hX` is `-h` with X joined on."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in options:
        return head, value
    if token[1] == "-":
        hits = [o for o in options if o.startswith(head)]
        if len(hits) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif token[:2] == "-h":
        return "-h", token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _check_help(option: str, value, text: str) -> None:
    """Raise `_HelpRequested(text)`, or `_UsageError` for a value joined on
    (but `-hh`, a cluster of short flags, is help)."""
    if value is None or option == "-h" and value and not value.strip("h"):
        raise _HelpRequested(text)
    raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")


def _parse_argv(argv) -> SimpleNamespace:
    """Read a `cpr` command line against `_VERBS`, by the rules of the
    module docstring; the operands are FILE and then the EXPRs, flags or not
    between them.  A usage error raises `_UsageError` naming the bad token,
    `-h`/`--help` raises `_HelpRequested`."""
    extras = []  # unknown flags before the verb, refused once the verb has parsed
    for k, token in enumerate(argv):
        opt = None if token == "--" else _option(token, _HELP_OPTIONS)
        if opt is None:
            break
        if opt[0] is None:
            extras.append(token)
        else:
            _check_help(*opt, _top_help())
    else:
        raise _UsageError("the following arguments are required: verb")
    verb = argv[k]
    spec = _VERBS.get(verb)
    if spec is None:
        raise _UsageError(f"argument verb: invalid choice: {verb!r} (choose from {', '.join(_VERBS)})")
    tokens = argv[k + 1:]
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    opts = [_option(token, spec.options) for token in tokens[:cut]]  # an ambiguous flag is refused first
    values = dict(spec.defaults)
    operands = []
    k = 0
    while k < cut:
        token, opt = tokens[k], opts[k]
        k += 1
        if opt is None:
            operands.append(token)
            continue
        option, value = opt
        if option is None:
            extras.append(token)
            continue
        flag = spec.options[option]
        if flag is None:
            _check_help(option, value, _verb_help(verb))
        if value is None:
            if k == cut or opts[k] is not None:
                raise _UsageError(f"argument {option}: expected one argument")
            value = tokens[k]
            k += 1
        try:
            value = flag.convert(value)
        except ValueError as exc:
            raise _UsageError(f"argument {option}: {exc}") from None
        if flag.choices and value not in flag.choices:
            raise _UsageError(f"argument {option}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, flag.choices))})")
        values[option[2:]] = value
    operands += tokens[cut + 1:]
    n = 1 + spec.n_exprs
    if len(operands) < n:
        missing = ["EXPR"] if operands else ["file", "EXPR"][:n]
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if len(operands) > n or extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras + operands[n:])}")
    if spec.n_exprs:
        values["exprs"] = operands[1:]
    return SimpleNamespace(verb=verb, file=operands[0], **values)


def _spelling(option: str, flag: _Flag) -> str:
    return f"{option} {{{','.join(flag.choices)}}}" if flag.choices else f"{option} {option[2:].upper()}"


def _verb_help(verb: str) -> str:
    """`cpr VERB -h`: the usage line, then each flag with its default and choices."""
    spec = _VERBS[verb]
    lines = [f"usage: cpr {verb} [-h] " + " ".join(f"[{_spelling(o, f)}]" for o, f in spec.flags.items())
             + " file" + " EXPR" * spec.n_exprs, "",
             "  file  system or graph JSON"]
    if spec.n_exprs:
        lines.append("  EXPR  an element expression (`cpr --help` gives the grammar)")
    for option, flag in spec.flags.items():
        lines.append(f"  {_spelling(option, flag)}  {flag.help + ' ' if flag.help else ''}(default: {flag.default!r})")
    return "\n".join(lines)


def _top_help() -> str:
    """`cpr --help`: the usage line and the module docstring, which names every verb."""
    return f"usage: cpr [-h] {{{','.join(_VERBS)}}} file ...\n\n{__doc__ or ''}"


def _render_table(result, indent=0) -> str:
    lines = []
    pad = "  " * indent
    if isinstance(result, dict):
        for k, v in result.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.append(_render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(result, list):
        for idx, v in enumerate(result):
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}[{idx}]")
                lines.append(_render_table(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(result)}")
    return "\n".join(lines)


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _named(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


# each failure's exit code and diagnostic, by the first class that matches:
# an input error exits 2, a domain error 1 (ValueError covers NotTwoSided,
# NotInvariant, ContextMismatch and SystemMismatch), and a question above the
# cap 3, undecided: neither "yes" nor "no"
_FAILURES = {
    _UsageError: (2, str),
    ExprSyntaxError: (2, lambda exc: exc.msg),
    UnknownGenerator: (2, str),
    FsViolation: (1, _named),
    NotImplementedError: (1, _named),
    ValueError: (1, _named),
    CapExceeded: (3, _named),
}


def _payload(ok: bool, result, diagnostics: list) -> dict:
    return {"ok": ok, "result": result, "diagnostics": diagnostics}


def run(argv) -> tuple[int, str]:
    """Execute a command line; returns (exit_code, stdout payload)."""
    try:
        args = _parse_argv(argv)
        loaded = load_input(args.file)
        if loaded.kind == "system" and args.verb != "validate":
            failures = validate_axioms(loaded.system).failures
            if failures:  # `validate` lists them all and exits 1
                raise _UsageError(
                    f"{args.file}: system fails the axioms: " + "; ".join(failures[:3]))
        outcome = _VERBS[args.verb].handler(loaded, args)
    except _HelpRequested as exc:
        return 0, str(exc)
    except tuple(_FAILURES) as exc:
        code, message = next(each for cls, each in _FAILURES.items() if isinstance(exc, cls))
        return code, json.dumps(_payload(False, None, [message(exc)]), sort_keys=True)
    code = 0 if outcome.ok else 1
    if args.format == "dot" and outcome.rendered is not None:
        return code, outcome.rendered
    payload = _payload(outcome.ok, outcome.result, outcome.diagnostics)
    return code, _render_table(payload) if args.format == "table" else json.dumps(payload, sort_keys=True)


def main(argv=None) -> int:
    code, body = run(sys.argv[1:] if argv is None else argv)
    try:
        print(body)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: the verdict's exit code still stands
        # point stdout at devnull, or the interpreter's flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code
