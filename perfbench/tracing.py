"""Spans and counters around the public functions of every `cprings` module.

The modules import each other with `from .x import y`, so a function is
reachable under several names.  `Tracer.install` rebinds every such name, in
every `cprings` namespace, to one wrapper that records a span
(name, start, end, parent, query id, outermost-of-its-name) and feeds the
counters below; `Tracer.uninstall` puts the originals back.  Nothing in the
package is edited.

Two private functions are wrapped because the counts reported for them
exist nowhere else: `cpring._span_at` builds one bounded relation span and
`cpring._zdeg_member` gives one z-degree verdict.  A function that a
later version of the package removes simply counts zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import weakref

LAYERS = (
    "exactlin", "rsystem", "tensorpow", "finrank", "toeplitz",
    "cpring", "ideals", "graphalg", "crossedprod", "cli",
)
PRIVATE = {"cpring": ("_span_at", "_zdeg_member")}
# scalar helpers called once per matrix entry: their cost stays with the caller
SKIP = {"exactlin": ("frac", "vec", "zero_vec", "unit_vec")}


def _targets(mod):
    """(owner, attribute, function) for the module's traced functions and methods."""
    layer = mod.__name__.rsplit(".", 1)[1]
    out = []
    for name, obj in vars(mod).items():
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            if (not name.startswith("_") or name in PRIVATE.get(layer, ())) and name not in SKIP.get(layer, ()):
                out.append((mod, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
            public = {f for a, f in vars(obj).items() if inspect.isfunction(f) and not a.startswith("_")}
            if name == "Subspace":
                public.add(obj.__init__)
            for attr, f in vars(obj).items():
                if inspect.isfunction(f) and f in public:
                    out.append((obj, attr, f, f"{layer}.{name}.{f.__name__}"))
    return out


class Tracer:
    """Records spans while installed; `metrics()` turns them into per-layer numbers."""

    def __init__(self):
        self.mods = [importlib.import_module(f"cprings.{m}") for m in LAYERS]
        self.names: list[str] = []
        self.spans: list = []
        self.query = -1
        self._stack = [-1]
        self.counts: dict = {}
        self._saved: list = []
        self._wrappers: dict = {}  # original function -> its wrapper, kept across installs
        self._seen_objects = weakref.WeakKeyDictionary()  # system or context -> ids returned

    # -- installation -----------------------------------------------------
    def install(self):
        wrappers = self._wrappers
        for mod in self.mods:
            for owner, attr, fn, qual in _targets(mod):
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, qual)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[fn])
        for mod in self._namespaces():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers and getattr(mod, attr) is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _namespaces(self):
        return [m for n, m in list(sys.modules.items()) if n == "cprings" or n.startswith("cprings.")]

    def _wrap(self, fn, qual):
        names, spans, stack = self.names, self.spans, self._stack
        depth = [0]  # active calls of this function, to mark the outermost
        name_id = len(names)
        names.append(qual)
        hook = _HOOKS.get(qual)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            outer = not depth[0]
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[0] -= 1
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, tracer.query, outer)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- counters -----------------------------------------------------------
    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def first_time(self, owner, obj) -> bool:
        """True if `obj` was not returned before for `owner` (a system or context)."""
        seen = self._seen_objects.setdefault(owner, set())
        if id(obj) in seen:
            return False
        seen.add(id(obj))
        return True

    # -- results --------------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for name_id, t0, t1, parent, query, _ in self.spans:
                fh.write(f"{self.names[name_id]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{query}\n")

    def metrics(self, wall_s: float) -> dict:
        """Per-layer self time, inclusive time per function, and the counters."""
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = {layer: 0.0 for layer in LAYERS}
        by_function: dict = {}
        incl: dict = {}
        calls: dict = {}
        roots = 0.0
        for idx, (name_id, t0, t1, parent, _, outer) in enumerate(self.spans):
            qual = self.names[name_id]
            dur = t1 - t0
            self_s[qual.split(".", 1)[0]] += dur - child[idx]
            by_function[qual] = by_function.get(qual, 0.0) + dur - child[idx]
            calls[qual] = calls.get(qual, 0) + 1
            if outer:
                incl[qual] = incl.get(qual, 0.0) + dur
            if parent < 0:
                roots += dur
        self.self_by_function = by_function
        c = self.counts
        out = {f"{layer}.self_s": (v, "s") for layer, v in self_s.items()}

        def frac(num, den):
            return num / den if den else 0.0

        out.update({
            "exactlin.rref.calls": (calls.get("exactlin.rref", 0), "count"),
            "exactlin.rref.cells": (c.get("rref.cells", 0), "count"),
            "exactlin.rref.s": (incl.get("exactlin.rref", 0.0), "s"),
            "exactlin.matvec.calls": (calls.get("exactlin.matvec", 0), "count"),
            "exactlin.matvec.cells": (c.get("matvec.cells", 0), "count"),
            "exactlin.matvec.s": (incl.get("exactlin.matvec", 0.0), "s"),
            "exactlin.matvec.nz_frac": (frac(c.get("matvec.nz", 0), c.get("matvec.cells", 0)), "ratio"),
            "exactlin.subspace.builds": (calls.get("exactlin.Subspace.__init__", 0), "count"),
            "tensorpow.tensor_space.calls": (calls.get("tensorpow.tensor_space", 0), "count"),
            "tensorpow.tensor_space.hit_frac": (
                frac(c.get("tensor_space.hits", 0), calls.get("tensorpow.tensor_space", 0)), "ratio"),
            "tensorpow.max_level": (c.get("tensor_space.max_level", 0), "count"),
            "tensorpow.psi_n.s": (incl.get("tensorpow.psi_n", 0.0), "s"),
            "tensorpow.tensor_split.s": (incl.get("tensorpow.tensor_split", 0.0), "s"),
            "toeplitz.mul.calls": (calls.get("toeplitz.toeplitz_mul", 0), "count"),
            "toeplitz.mul.s": (incl.get("toeplitz.toeplitz_mul", 0.0), "s"),
            "toeplitz.component_space.hit_frac": (
                frac(c.get("component_space.hits", 0), calls.get("toeplitz.component_space", 0)), "ratio"),
            "cpring.membership.calls": (calls.get("cpring.in_relation_ideal", 0), "count"),
            "cpring.membership.s": (incl.get("cpring.in_relation_ideal", 0.0), "s"),
            "cpring.generators.built": (c.get("generators.built", 0), "count"),
            "cpring.windows": (calls.get("cpring._span_at", 0), "count"),
            "cpring.useful_frac": (
                frac(calls.get("cpring._zdeg_member", 0) + calls.get("cpring.stable_relation_span", 0),
                     calls.get("cpring._span_at", 0)), "ratio"),
            "cpring.search_depth_max": (c.get("search_depth_max", 0), "count"),
            "ideals.tpair_candidates": (calls.get("ideals.validate_tpair", 0), "count"),
            "ideals.tpair_accept_frac": (
                frac(c.get("tpair.accepted", 0), calls.get("ideals.validate_tpair", 0)), "ratio"),
            "ideals.quotient_system.calls": (calls.get("ideals.quotient_system", 0), "count"),
            "ideals.quotient_system.s": (incl.get("ideals.quotient_system", 0.0), "s"),
            "rsystem.validate_axioms.calls": (calls.get("rsystem.validate_axioms", 0), "count"),
            "rsystem.validate_axioms.s": (incl.get("rsystem.validate_axioms", 0.0), "s"),
            "finrank.canonical_ideals.calls": (calls.get("finrank.canonical_ideals", 0), "count"),
            "finrank.canonical_ideals.s": (incl.get("finrank.canonical_ideals", 0.0), "s"),
            "cli.parse.s": (incl.get("cli.parse_element", 0.0), "s"),
            "cli.load.s": (incl.get("cli.load_input", 0.0), "s"),
            "bench.self_s": (wall_s - roots, "s"),
            "trace.spans": (len(self.spans), "count"),
        })
        return out


# -- per-function counter hooks: (tracer, args, kwargs, result) -> None ------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rref(tr, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    tr.add("rref.cells", len(rows) * (len(rows[0]) if len(rows) else 0))


def _matvec(tr, args, kwargs, result):
    a, x = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "x")
    tr.add("matvec.cells", len(a) * len(x))
    tr.add("matvec.nz", len(a) * sum(1 for v in x if v != 0))


def _tensor_space(tr, args, kwargs, result):
    if not tr.first_time(_arg(args, kwargs, 0, "system"), result):
        tr.add("tensor_space.hits")
    level = _arg(args, kwargs, 2, "n")
    tr.counts["tensor_space.max_level"] = max(tr.counts.get("tensor_space.max_level", 0), level)


def _component_space(tr, args, kwargs, result):
    if not tr.first_time(_arg(args, kwargs, 0, "system"), result):
        tr.add("component_space.hits")


def _relation_generators(tr, args, kwargs, result):
    if tr.first_time(_arg(args, kwargs, 0, "ctx"), result):
        tr.add("generators.built", len(result))


def _membership(tr, args, kwargs, result):
    depth = getattr(_arg(args, kwargs, 0, "ctx"), "last_slack_used", 0)
    tr.counts["search_depth_max"] = max(tr.counts.get("search_depth_max", 0), depth)


def _validate_tpair(tr, args, kwargs, result):
    if result.ok:
        tr.add("tpair.accepted")


_HOOKS = {
    "exactlin.rref": _rref,
    "exactlin.matvec": _matvec,
    "tensorpow.tensor_space": _tensor_space,
    "toeplitz.component_space": _component_space,
    "cpring.relation_generators": _relation_generators,
    "cpring.in_relation_ideal": _membership,
    "ideals.validate_tpair": _validate_tpair,
}

# counts that two traced passes at one seed must reproduce exactly
COUNT_KEYS = (
    "exactlin.rref.calls", "exactlin.rref.cells", "exactlin.matvec.calls",
    "exactlin.matvec.cells", "exactlin.subspace.builds", "tensorpow.tensor_space.calls",
    "tensorpow.max_level", "toeplitz.mul.calls", "cpring.membership.calls",
    "cpring.generators.built", "cpring.windows", "ideals.tpair_candidates",
    "ideals.quotient_system.calls", "rsystem.validate_axioms.calls",
    "finrank.canonical_ideals.calls",
)


def spans_path(root, workload):
    out = os.path.join(root, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"spans-{workload}.tsv")
