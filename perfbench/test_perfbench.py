"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Two traced passes of one workload at one seed must give identical work
counts, so that a later change can cite a count as noise-free evidence.
Each pass builds its systems afresh, so the second pass starts as cold as the
first.  Across processes, run.py fixes PYTHONHASHSEED for the same reason.
"""

import os
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import worker  # noqa: E402
from tracing import COUNT_KEYS, Tracer  # noqa: E402
from workloads import GRAPHS, PERMUTATIONS, WORKLOADS  # noqa: E402

SEED = 3


@pytest.fixture
def workdir():
    root = os.path.join(HERE, ".work")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(dir=root)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload, workdir):
    pkg = worker.import_package()
    import cprings.cli  # noqa: F401

    wl = worker.Workload(workload, SEED, workdir)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        metrics = tracer.metrics(wl.traced_pass(pkg, tracer)["traced_wall_s"])
        counts.append({k: metrics[k][0] for k in COUNT_KEYS})
    assert counts[0] == counts[1]
    assert counts[0]["exactlin.rref.calls"] > 0
    failed, wrong, reasons = wl.check()
    assert (failed, wrong) == (0, 0), reasons


def test_uninstall_restores_every_binding():
    worker.import_package()
    import cprings.cli
    import cprings.cpring

    before = (cprings.cli.run, cprings.cpring.matvec, cprings.exactlin.Subspace.__init__)
    tracer = Tracer()
    tracer.install()
    assert cprings.cpring.matvec is not before[1]
    tracer.uninstall()
    assert (cprings.cli.run, cprings.cpring.matvec, cprings.exactlin.Subspace.__init__) == before


def test_brute_force_matches_expected_counts():
    oracle.check_expected_counts(list(GRAPHS) + list(PERMUTATIONS))


def test_benchmark_json_names_what_the_runs_print():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = {k: u for k, (_, u) in Tracer().metrics(1.0).items()}
    layer.update({"oracle.s": "s", "trace.overhead_frac": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_ledger_matches_the_workloads(workdir):
    import json

    worker.import_package()
    with open(os.path.join(HERE, "ledger.json")) as fh:
        ledger = json.load(fh)
    for entry in ledger["workloads"]:
        wl = worker.Workload(entry["name"], SEED, os.path.join(workdir, entry["name"]))
        assert len(wl.queries) == entry["queries"]


def test_scaled_time_uses_the_samples_around_a_query():
    import hostspeed

    speed = hostspeed.HostSpeed()
    # samples every 0.1 s, twice as slow as the reference from t = 10 s on
    speed.at = [i / 10 for i in range(200)]
    speed.took = [hostspeed.REF_S * (2 if t >= 10 else 1) for t in speed.at]
    fast = speed.scaled((2.0, 0.0), (3.0, 0.5))  # 1 s of wall, 0.5 s of it sampling
    slow = speed.scaled((15.0, 0.5), (16.0, 1.0))
    assert abs(fast - 0.5) < 1e-9 and abs(slow - 0.25) < 1e-9
    assert hostspeed.HostSpeed(active=False).scaled((2.0, 0.0), (3.0, 0.5)) == 0.5
