"""Verdicts that do not depend on the presentation of a system.

A system file names its bases and orders them; neither choice is part of
the mathematics.  Each system here is written twice: as given, and with
every ring, Q and P label renamed and each of the three bases permuted.
The verbs `cpr lattice`, `cpr tpair`, `cpr quotient` and `cpr jmax` must
give the same exit code on both files, and payloads that agree up to the
map between the presentations: subspaces are compared as label sets,
quotient systems as sets of labelled structure constants, and lattices up
to the isomorphism of their Hasse diagrams that the label map induces.
The other verbs, and changes of basis of R that are not permutations, are
not covered here.
"""

import json
import random

import pytest

from cprings import cli
from cprings.rsystem import build_graph_system, system_to_json

from conftest import random_graph, random_permutation_system


def _permuted(data: dict, rng) -> tuple:
    """`data` (a system file) with fresh labels and each basis permuted, and
    the maps from the old labels of the ring, Q and P to the new ones."""
    moves, names = {}, {}
    for key in ("ring", "q", "p"):
        labels = data[key]["basis"]
        order = list(range(len(labels)))
        rng.shuffle(order)  # old index k goes to order[k]
        fresh = rng.sample(range(10 * len(labels) + 10), len(labels))
        moves[key] = order
        names[key] = {lab: f"{key}{fresh[k]}" for k, lab in enumerate(labels)}

    def basis(key):
        out = [None] * len(moves[key])
        for k, lab in enumerate(data[key]["basis"]):
            out[moves[key][k]] = names[key][lab]
        return out

    r = moves["ring"]
    out = {"base_field": "Q", "name": data["name"], "ring": {
        "basis": basis("ring"), "mult": [[r[i], r[j], r[k], c] for i, j, k, c in data["ring"]["mult"]]}}
    for key in ("q", "p"):
        m = moves[key]
        out[key] = {"basis": basis(key), **{side: [[r[i], m[a], m[b], c] for i, a, b, c in data[key][side]]
                                            for side in ("left", "right")}}
    out["psi"] = [[moves["p"][a], moves["q"][b], r[k], c] for a, b, k, c in data["psi"]]
    return out, names


def _run(tmp_path, name: str, data: dict, argv) -> tuple:
    path = tmp_path / f"{name}.json"
    if not path.exists():
        path.write_text(json.dumps(data))
    code, body = cli.run([argv[0], str(path), *argv[1:]])
    return code, json.loads(body)


def _labels(value, rename) -> frozenset:
    """A subspace printed as a label list, renamed."""
    assert isinstance(value, list), value
    return frozenset(rename[lab] for lab in value)


def _structure(system: dict, rename: dict) -> dict:
    """A system file as sets of structure constants keyed by renamed labels."""
    lab = {key: [rename[key][x] for x in system[key]["basis"]] for key in ("ring", "q", "p")}
    r = lab["ring"]
    out = {"ring": frozenset(r), "mult": {(r[i], r[j], r[k], c) for i, j, k, c in system["ring"]["mult"]},
           "psi": {(lab["p"][a], lab["q"][b], r[k], c) for a, b, k, c in system["psi"]}}
    for key in ("q", "p"):
        out[key] = frozenset(lab[key])
        for side in ("left", "right"):
            out[key, side] = {(r[i], lab[key][a], lab[key][b], c) for i, a, b, c in system[key][side]}
    return out


def _lattice(tpairs: dict, ring_labels, rename) -> tuple:
    """The nodes of a lattice payload as (I, J) label sets, renamed, and its
    Hasse edges between them."""
    def span(rows):
        return frozenset(rename[ring_labels[row.index("1")]] for row in rows)

    nodes = [(span(n["i_basis"]), span(n["j_basis"])) for n in tpairs["nodes"]]
    assert all(len(i) == n["i_dim"] and len(j) == n["j_dim"] for (i, j), n in zip(nodes, tpairs["nodes"]))
    return set(nodes), {(nodes[a], nodes[b]) for a, b in tpairs["hasse_edges"]}


def _spec(labels, rename) -> str:
    return ",".join(rename[x] for x in labels) if labels else "zero"


def _systems():
    rng = random.Random(2617)
    return ([build_graph_system(random_graph(rng, max_v=4, max_e=6)) for _ in range(12)]
            + [random_permutation_system(rng, max_n=4) for _ in range(6)])


SYSTEMS = _systems()


@pytest.mark.parametrize("k", range(len(SYSTEMS)), ids=[f"{k}-{s.name}" for k, s in enumerate(SYSTEMS)])
def test_verbs_do_not_depend_on_the_presentation(k, tmp_path):
    system, rng = SYSTEMS[k], random.Random(k)
    data = system_to_json(system)
    moved, names = _permuted(data, rng)
    same = {key: {x: x for x in data[key]["basis"]} for key in ("ring", "q", "p")}
    back = {key: {new: old for old, new in names[key].items()} for key in names}
    ring = data["ring"]["basis"]
    questions = [["jmax"], ["lattice"]]
    for _ in range(4):
        i = [x for x in ring if rng.random() < 0.4]
        j = [x for x in ring if x in i or rng.random() < 0.5]
        questions += [["tpair", "--i", i, "--j", rng.choice((j, [x for x in ring if rng.random() < 0.5]))],
                      ["quotient", "--i", i]]
    answered = 0
    for question in questions:
        argv = [x if isinstance(x, str) else _spec(x, same["ring"]) for x in question]
        argv_moved = [x if isinstance(x, str) else _spec(x, names["ring"]) for x in question]
        code, want = _run(tmp_path, "given", data, argv)
        code_moved, got = _run(tmp_path, "moved", moved, argv_moved)
        assert code == code_moved, (question, want, got)
        assert want["ok"] == got["ok"] and want["diagnostics"] == got["diagnostics"], question
        if want["result"] is None:
            continue
        answered += 1
        a, b = want["result"], got["result"]
        verb = question[0]
        if verb == "jmax":
            assert a["hypothesis_ok"] == b["hypothesis_ok"]
            for key in ("ker_delta", "delta_inv_F", "j_max"):
                assert _labels(a[key], same["ring"]) == _labels(b[key], back["ring"]), key
        elif verb == "tpair":
            assert a["flags"] == b["flags"]
            for key in ("i", "j"):
                assert _labels(a[key], same["ring"]) == _labels(b[key], back["ring"]), key
        elif verb == "quotient":
            assert _structure(a["system"], same) == _structure(b["system"], back)
        else:
            assert (_lattice(a["tpairs"], ring, same["ring"])
                    == _lattice(b["tpairs"], moved["ring"]["basis"], back["ring"]))
    assert answered
