"""One workload in a fresh interpreter: set up, measure, check, report.

Started by run.py, which times set-up from process start to the `ready`
line printed here.  Unless `--probe` is given (set-up only), the worker then
runs the workload in a closed loop with one client: queries strictly one
after another in one thread.  With `--trace 0` it repeats passes until
`--seconds` have elapsed and every unit has run often enough (MIN_PASSES,
or LONG_RUNS for a long one), stopping mid-pass once both hold; with `--trace 1`
it runs one pass in which every query (every preset, on eq-session) runs
untraced and then traced.  Every answer of every pass is then checked
against oracle.py, outside all timings, and one JSON line goes to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each unit runs at least MIN_PASSES times, and as many more as fit in the
# run, so that its median time is robust; a unit whose first run took longer
# than LONG_S (scaled) runs LONG_RUNS times only, leaving the run's time to
# the many short units whose medians need the samples.  A long unit's time
# averages over forty or more host-speed samples, so three runs suffice.
MIN_PASSES = 3
LONG_S = 2.0
LONG_RUNS = 3


def import_package():
    """Import `cprings` from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cprings

    if not os.path.abspath(cprings.__file__).startswith(src + os.sep):
        raise SystemExit(f"cprings was imported from {cprings.__file__}, not from {src}")
    return cprings


def load1():
    """The 1-minute load average (from /proc/loadavg on Linux), or None."""
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


# ---------------------------------------------------------------------------
# passes: each records one time and one outcome per query


def cli_query(cli, wl, view, q, tracer):
    if tracer:
        tracer.query = q.key
    m0 = wl.clock.mark()
    try:
        out = cli.run(q.argv)  # cli.run looked up now: the tracer may have rebound it
    except Exception as exc:  # a raising query is a failed query
        out = (None, f"{type(exc).__name__}: {exc}")
    wl.marks[q.key].append((m0, wl.clock.mark()))
    wl.outcomes[q.key].append((view, out))


def session_group(wl, view, name, queries, tracer):
    """One preset of eq-session: a system and a context at j_max, then its word pairs."""
    from cprings import cpring, exactlin, finrank, rsystem, toeplitz

    preset = wl.view(view).presets[name]
    if tracer:
        tracer.query = -1
    m0 = wl.clock.mark()
    system = rsystem.build_graph_system(preset.graph()) if preset.is_graph else preset.automorphism_system()
    ctx = cpring.CpContext(system, cpring.validate_ideal(system, finrank.canonical_ideals(system)["j_max"]))
    wl.build_marks.setdefault(name, []).append((m0, wl.clock.mark()))
    mods = {"R": system.ring, "Q": system.q, "P": system.p}

    def element(word):
        out = None
        for kind, label in word:
            mod = mods[kind]
            idx = mod.labels.index(preset.rename[label])
            g = toeplitz.embed(system, kind, exactlin.unit_vec(mod.dim, idx))
            out = g if out is None else toeplitz.toeplitz_mul(out, g)
        return out

    for q in queries:
        if tracer:
            tracer.query = q.key
        m0 = wl.clock.mark()
        try:
            out = cpring.cp_equal(ctx.element(element(q.lhs)), ctx.element(element(q.rhs)))
        except Exception as exc:
            out = f"{type(exc).__name__}: {exc}"
        wl.marks[q.key].append((m0, wl.clock.mark()))
        wl.outcomes[q.key].append((view, out))


class View:
    """One presentation of a workload's questions, drawn from one seed: the
    input files, the labels in them and the order of the questions."""

    def __init__(self, name, seed, workdir):
        from workloads import BUILDERS

        os.makedirs(workdir)
        self.presets, built = BUILDERS[name](seed, workdir)
        if name == "eq-session":
            self.groups = built
            self.queries = [q for _, qs in built for q in qs]
        else:
            self.queries = built
        self.by_key = {q.key: q for q in self.queries}


class Workload:
    """A workload's questions, presented afresh in every pass.

    The cost of a question depends on how it is presented (labels, order of
    vertices and basis), by some 10 % at the median on eq-cold.  So each pass
    draws its own View from the seed: view 0 from the seed itself, made
    during set-up, view k from "<seed>.k", made between passes.  A question's
    median time is then taken over several presentations, which keeps the
    run's seed from moving it.
    """

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.views = []
        self.queries = sorted(self.view(0).queries, key=lambda q: q.key)  # canonical order
        self.marks = [[] for _ in self.queries]  # per query: (start, end) clock marks per run
        self.outcomes = [[] for _ in self.queries]  # per query: (view, outcome) per run
        self.build_marks = {}  # eq-session: preset -> context build marks per pass
        self.clock = HostSpeed(active=False)  # measure() swaps in a sampling one

    def view(self, k) -> View:
        while len(self.views) <= k:
            n = len(self.views)
            seed = self.seed if n == 0 else f"{self.seed}.{n}"
            self.views.append(View(self.name, seed, os.path.join(self.workdir, str(n))))
        return self.views[k]

    def times(self):
        """(per-query times, per-preset context build times), one per run, at
        the reference speed while the clock sampled, else wall time."""
        scaled = self.clock.scaled
        return ([[scaled(a, b) for a, b in m] for m in self.marks],
                {k: [scaled(a, b) for a, b in m] for k, m in self.build_marks.items()})

    def units(self, pkg, view=0):
        """A pass over one view as independent steps, [(key, unit)], each
        unit(tracer) starting from cold caches: one `cpr` call (keyed by its
        question), or one eq-session preset with its context (keyed by name)."""
        v = self.view(view)
        if self.name == "eq-session":
            return [(name, functools.partial(session_group, self, view, name, qs)) for name, qs in v.groups]
        return [(q.key, functools.partial(cli_query, pkg.cli, self, view, q)) for q in v.queries]

    def run_pass(self, units, enough) -> dict:
        """Run the units in order, until enough() says the run has measured enough."""
        t0, c0, l0 = time.perf_counter(), time.process_time(), load1()
        ran = 0
        for unit in units:
            if enough():
                break
            unit(None)
            ran += 1
        return {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0, "load1": l0,
                "units": ran}

    def traced_pass(self, pkg, tracer) -> dict:
        """Each unit untraced and then traced, so that host drift, which is
        slow next to one unit, cancels out of the tracing overhead."""
        plain = traced = 0.0
        c0, l0 = time.process_time(), load1()
        for _, unit in self.units(pkg):
            t0 = time.perf_counter()
            unit(None)
            t1 = time.perf_counter()
            tracer.install()
            try:
                unit(tracer)
            finally:
                tracer.uninstall()
            t2 = time.perf_counter()
            plain += t1 - t0
            traced += t2 - t1
        return {"wall_s": plain, "traced_wall_s": traced, "cpu_s": time.process_time() - c0, "load1": l0}

    def check(self):
        """(failed executions, wrong executions, first few reasons), via oracle.py."""
        import oracle

        first = self.view(0)
        if self.name == "lattice":
            oracle.check_expected_counts(first.presets)
        eq_oracles = {}
        failed = wrong = 0
        reasons = []
        for qi, (q, outs) in enumerate(zip(self.queries, self.outcomes)):
            expect = None
            if self.name != "lattice":  # the verdict does not depend on the presentation
                if q.preset not in eq_oracles:
                    eq_oracles[q.preset] = oracle.EqualityOracle(first.presets[q.preset])
                lhs, rhs = (q.lhs, q.rhs) if self.name == "eq-cold" else (
                    oracle.word_expr(q.lhs), oracle.word_expr(q.rhs))
                expect = eq_oracles[q.preset].equal(lhs, rhs)
            for view, out in outs:
                v = self.view(view)
                asked = v.by_key[q.key]
                preset = v.presets[q.preset] if self.name == "eq-session" else asked.presented
                reason, is_wrong = self._judge(asked, preset, out, expect)
                if reason:
                    failed += 1
                    wrong += is_wrong
                    if len(reasons) < 5:
                        reasons.append(f"{q.preset} query {qi} (view {view}): {reason}")
        return failed, wrong, reasons

    def _judge(self, q, preset, out, expect):
        import oracle

        if self.name == "eq-session":
            if not isinstance(out, bool):
                return out, False
            return (None, False) if out == expect else (f"equal={out}, expected {expect}", True)
        code, body = out
        if code is None:
            return body, False
        payload = json.loads(body)
        if code == 2 or payload.get("result") is None:
            return f"exit {code}: {payload.get('diagnostics')}", False
        reason = oracle.check_cli(q, preset, code, payload, equal=expect)
        return (reason, True) if reason else (None, False)


def tail(values):
    """(value, percentile): the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", action="store_true", help="set up, print ready, exit")
    args = ap.parse_args(argv)

    pkg = import_package()
    import cprings.cli  # noqa: F401  (the CLI is not imported by the package itself)

    workroot = os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    try:
        wl = Workload(args.workload, args.seed, workdir)
        print("ready", flush=True)
        if args.probe:
            return 0
        result = measure(pkg, wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def measure(pkg, wl, args) -> dict:
    passes = []
    traced = None
    start = time.perf_counter()
    if args.trace:
        from tracing import Tracer, spans_path

        tracer = Tracer()
        traced = wl.traced_pass(pkg, tracer)
        passes.append(traced)
        tracer.write(spans_path(ROOT, args.workload))
    else:
        wl.clock = HostSpeed()
        runs = {key: 0 for key, _ in wl.units(pkg)}
        long = set()

        def run(key, unit, tracer=None):
            m0 = wl.clock.mark()
            unit(tracer)
            if runs[key] == 0 and wl.clock.scaled(m0, wl.clock.mark()) > LONG_S:
                long.add(key)
            runs[key] += 1

        def enough():
            return (time.perf_counter() - start >= args.seconds
                    and all(n >= (LONG_RUNS if k in long else MIN_PASSES) for k, n in runs.items()))

        with wl.clock:
            while not enough():
                todo = [functools.partial(run, key, unit) for key, unit in wl.units(pkg, len(passes))
                        if key not in long or runs[key] < LONG_RUNS]
                passes.append(wl.run_pass(todo, enough))
                if len(passes) == LONG_RUNS:  # every question has run, in three presentations
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    failed, wrong, reasons = wl.check()
    oracle_s = time.perf_counter() - t0

    times, build_times = wl.times()
    attempted = sum(len(t) for t in times)
    per_query = [statistics.median(t) for t in times]
    # one typical pass: every query and context build at its median over passes
    typical_pass_s = sum(per_query) + sum(statistics.median(t) for t in build_times.values())
    tail_s, tail_pct = tail(per_query)
    out = {
        "workload": wl.name,
        "seed": args.seed,
        "queries": len(wl.queries),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons,
        "oracle_s": oracle_s,
        "verdicts_per_s": len(wl.queries) / typical_pass_s,
        # over every verdict of the run: each question's own spread fills the
        # gaps between questions' costs, so that the median does not flip
        # between the two questions beside it from run to run
        "verdict_p50_s": statistics.median(t for ts in times for t in ts),
        "verdict_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "host": wl.clock.summary(),
        "wall_p50_s": statistics.median(b[0] - a[0] for m in wl.marks for a, b in m),
    }
    if not args.trace:
        out["peak_rss_mb"] = peak_rss_mb
    if traced is not None:
        layer = tracer.metrics(traced["traced_wall_s"])
        layer["oracle.s"] = (oracle_s, "s")
        layer["trace.overhead_frac"] = (traced["traced_wall_s"] / traced["wall_s"] - 1.0, "ratio")
        out["per_layer"] = layer
        out["expectations"] = expectations(wl.name, layer, tracer.self_by_function, traced["traced_wall_s"])
    return out


def expectations(workload, layer, self_by_function, wall_s):
    """What profiling predicts for the traced pass: [(claim, holds)]."""
    v = {k: val for k, (val, _) in layer.items()}
    out = []
    if workload == "lattice":
        out.append(("cpring.membership.calls = 0", v["cpring.membership.calls"] == 0))
    else:
        out.append(("rsystem.validate_axioms.calls = 0", v["rsystem.validate_axioms.calls"] == 0))
    if workload == "eq-cold":
        share = (v["cpring.self_s"] + v["toeplitz.self_s"] + v["exactlin.self_s"]) / wall_s
        out.append((f"cpring+toeplitz+exactlin self time carry most of the pass ({share:.1%})", share > 0.5))
    if workload == "eq-session":
        items = {k: s for k, s in self_by_function.items() if k.startswith("exactlin.")}
        top = max(items, key=items.get) if items else None
        out.append((f"exactlin.rref has the largest exactlin self time (largest: {top})",
                    top == "exactlin.rref"))
    return out


if __name__ == "__main__":
    sys.exit(main())
