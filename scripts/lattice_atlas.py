#!/usr/bin/env python3
"""Survey the ideal lattices of the preset graphs.

For each graph: hereditary-saturated sets, admissible (H,S) pairs, the
canonical ideals of its edge system, and (when the algebraic side is
available) the Toeplitz-level T-pair count.  `--dot NAME` prints the T-pair
lattice of one preset as graphviz input instead.

    python3 scripts/lattice_atlas.py
    python3 scripts/lattice_atlas.py --dot rose2 | dot -Tpng > rose2.png
"""

import argparse
import sys

from cprings.finrank import canonical_ideals
from cprings.graphalg import (
    FiniteGraph,
    Edge,
    cycle_graph,
    enumerate_hs,
    enumerate_ideal_pairs,
    line_graph,
    rose_graph,
)
from cprings.ideals import enumerate_tpairs, lattice_dot, lattice_json
from cprings.rsystem import build_graph_system


def presets() -> list[FiniteGraph]:
    a2 = FiniteGraph(["u", "v"], [Edge("e", "u", "v")], name="a2")
    two_cycle = FiniteGraph(
        ["a", "b", "c"],
        [Edge("e_ab", "a", "b"), Edge("e_ba", "b", "a"), Edge("e_ac", "a", "c")],
        name="3v2c",
    )
    inf = FiniteGraph(
        ["v", "w", "h0"],
        [Edge("binf", "v", "h0", float("inf")), Edge("e", "v", "w")],
        name="inf-emitter",
    )
    return [
        a2,
        line_graph(2),
        line_graph(3),
        line_graph(4),
        rose_graph(1),
        rose_graph(2),
        cycle_graph(3),
        two_cycle,
        inf,
    ]


def survey(graph: FiniteGraph) -> dict:
    row = {
        "graph": graph.name,
        "hs_sets": len(enumerate_hs(graph)),
        "pairs": len(enumerate_ideal_pairs(graph)),
        "tpairs": "-",
        "j_max": "-",
    }
    try:
        system = build_graph_system(graph)
    except ValueError:
        return row  # infinite emitters have no finite presentation
    ids = canonical_ideals(system)
    labels = system.ring.labels
    # j_max is a coordinate span for graph systems: read off the vertices
    hot = []
    for basis_row in ids["j_max"].basis():
        idx = [i for i, c in enumerate(basis_row) if c != 0]
        hot.append(labels[idx[0]] if len(idx) == 1 else "?")
    row["j_max"] = "{" + ",".join(sorted(hot)) + "}"
    row["tpairs"] = len(enumerate_tpairs(system))
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dot", metavar="NAME", help="print the T-pair lattice of one preset as DOT")
    args = ap.parse_args(argv)

    graphs = {g.name: g for g in presets()}
    if args.dot:
        if args.dot not in graphs:
            print(f"unknown preset {args.dot!r}; have {', '.join(graphs)}", file=sys.stderr)
            return 2
        system = build_graph_system(graphs[args.dot])
        print(lattice_dot(lattice_json(system, enumerate_tpairs(system))))
        return 0

    header = f"{'graph':<12} {'hs sets':>7} {'(H,S)':>6} {'T-pairs':>7}  j_max"
    print(header)
    print("-" * len(header))
    for g in graphs.values():
        row = survey(g)
        print(
            f"{row['graph']:<12} {row['hs_sets']:>7} {row['pairs']:>6} "
            f"{str(row['tpairs']):>7}  {row['j_max']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
