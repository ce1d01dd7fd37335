#!/usr/bin/env python3
"""Race the three equality deciders against each other on random words.

For a chosen preset graph, draws random pairs of short generator words and
decides equality three ways: raw Toeplitz coordinates, relation-ideal
membership in the Cuntz-Pimsner ring at j_max, and the Leavitt path algebra
normal form.  Prints the verdict matrix and per-backend timings.  The CP and
LPA verdicts must agree everywhere; Toeplitz is strictly finer (words equal
in the quotient may differ upstairs), so only one direction is checked.

    python3 scripts/equality_bench.py --graph 3v2c --words 60 --seed 7
"""

import argparse
import random
import sys
import time
from dataclasses import dataclass

from cprings.cpring import CpContext, cp_equal, validate_ideal
from cprings.exactlin import unit_vec
from cprings.finrank import canonical_ideals
from cprings.graphalg import Edge, FiniteGraph, LpaTarget, line_graph, rose_graph
from cprings.rsystem import build_graph_system
from cprings.toeplitz import embed, evaluate, toeplitz_mul


def preset(name: str) -> FiniteGraph:
    table = {
        "a2": FiniteGraph(["u", "v"], [Edge("e", "u", "v")], name="a2"),
        "line3": line_graph(3),
        "rose1": rose_graph(1),
        "rose2": rose_graph(2),
        "3v2c": FiniteGraph(
            ["a", "b", "c"],
            [Edge("e_ab", "a", "b"), Edge("e_ba", "b", "a"), Edge("e_ac", "a", "c")],
            name="3v2c",
        ),
    }
    if name not in table:
        raise SystemExit(f"unknown graph {name!r}; have {', '.join(table)}")
    return table[name]


@dataclass
class Tally:
    pairs: int = 0
    toeplitz_eq: int = 0
    cp_eq: int = 0
    lpa_eq: int = 0
    cp_lpa_disagree: int = 0
    collapsed: int = 0  # unequal in Toeplitz, equal in the quotient
    t_cp: float = 0.0
    t_lpa: float = 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="3v2c")
    ap.add_argument("--words", type=int, default=60, help="random word pairs")
    ap.add_argument("--max-len", type=int, default=3, help="letters per word")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    g = preset(args.graph)
    sy = build_graph_system(g)
    jmax = canonical_ideals(sy)["j_max"]
    ctx = CpContext(sy, validate_ideal(sy, jmax))
    rep = LpaTarget(g, sy)
    rng = random.Random(args.seed)

    gens = []
    for kind, dim in (("R", sy.ring.dim), ("Q", sy.q.dim), ("P", sy.p.dim)):
        gens.extend(embed(sy, kind, unit_vec(dim, i)) for i in range(dim))

    def word():
        w = rng.choice(gens)
        for _ in range(rng.randrange(0, args.max_len)):
            w = toeplitz_mul(w, rng.choice(gens))
        return w

    tally = Tally()
    for _ in range(args.words):
        a, b = word(), word()
        tally.pairs += 1
        t_eq = a == b
        t0 = time.monotonic()
        c_eq = cp_equal(ctx.element(a), ctx.element(b))
        tally.t_cp += time.monotonic() - t0
        t0 = time.monotonic()
        l_eq = evaluate(a, rep) == evaluate(b, rep)
        tally.t_lpa += time.monotonic() - t0
        tally.toeplitz_eq += t_eq
        tally.cp_eq += c_eq
        tally.lpa_eq += l_eq
        tally.cp_lpa_disagree += c_eq != l_eq
        tally.collapsed += c_eq and not t_eq
        if t_eq and not c_eq:
            print("BUG: equal Toeplitz elements differ in the quotient", file=sys.stderr)
            return 1

    print(f"graph {g.name}: {tally.pairs} random pairs, words up to {args.max_len} letters")
    print(f"  equal in Toeplitz ring     : {tally.toeplitz_eq}")
    print(f"  equal in CP ring at j_max  : {tally.cp_eq}")
    print(f"  equal in Leavitt algebra   : {tally.lpa_eq}")
    print(f"  collapsed by the quotient  : {tally.collapsed}")
    print(f"  CP vs LPA disagreements    : {tally.cp_lpa_disagree}")
    print(f"  time: CP {tally.t_cp * 1000:.0f} ms, LPA {tally.t_lpa * 1000:.0f} ms")
    return 1 if tally.cp_lpa_disagree else 0


if __name__ == "__main__":
    sys.exit(main())
