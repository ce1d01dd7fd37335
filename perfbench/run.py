#!/usr/bin/env python3
"""The cprings benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload eq-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout; the package is imported from its src/.
Each workload runs in a fresh interpreter (worker.py), one client in a
closed loop.  The workloads, their questions and why each was chosen are in
workloads.py and ledger.json; the closed forms that check every answer are
in oracle.py.

`--trace 0` prints the end-to-end metrics.  Every time in them is scaled to
a fixed reference speed of the host (hostspeed.py): the host's speed is
sampled all through the run by a fixed reference block, and each time is
divided by the reference block's time around it, so that a run in a slow
spell of a shared host reads like one in a fast spell.  The plain wall
times are printed beside them.  Each pass presents the questions afresh
(new labels and orders drawn from the seed), and each question's time is
its median over its runs: three for a question that takes over two
seconds, at least three and as many as fit for the others (worker.py).

    verdicts_per_s  1/s    queries in one pass / time of a typical pass (the
                           sum of each query's and each context build's
                           median time over its runs)
    verdict_p50_s   s      median time over every verdict of the run
    verdict_tail_s  s      over each query's median time, the highest
                           percentile with at least 10 queries beyond it
                           (percentile and count printed)
    answered_frac   ratio  1 - failed_frac (failed_frac is printed too; the
                           metric is reported in this form because it is
                           never 0)
    setup_s         s      interpreter start to ready for the first timed
                           query, median of SETUP_SAMPLES set-up-only
                           start-ups before and after the measuring
                           process, each scaled by reference blocks run
                           just before and just after it
    peak_rss_mb     MB     peak resident memory of the measuring process
                           over set-up and its first three passes, which run
                           every question in three presentations

`--trace 1` runs one pass in which each query runs untraced and then traced,
and prints the per-layer metrics of tracing.py.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A wrong answer prints
`correct: false` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eq-cold", "eq-session", "lattice")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7  # set-up-only start-ups per run (odd); setup_s is their median
DEADLINE_S = 170.0

END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"),
    ("answered_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env.pop("CP_RINGS_CACHE_DIR", None)  # every process starts with cold caches
    env["PYTHONHASHSEED"] = "0"  # set and dict orders, hence counts, repeat exactly
    return env


def _start(argv, deadline):
    """Start a worker; return (process, seconds until it printed `ready`)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv,
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env(),
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError(f"worker did not get ready: {line.strip()!r}")
    return proc, ready_s


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_workload(workload, seed, seconds, trace, deadline) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]

    def probe():
        before = hostspeed.reference_time()
        proc, ready_s = _start(argv + ["--probe"], deadline)
        _finish(proc, deadline)
        setups.append(hostspeed.scale(ready_s, (before + hostspeed.reference_time()) / 2))
        wall_setups.append(ready_s)

    setups, wall_setups = [], []
    for _ in range(SETUP_SAMPLES // 2):
        probe()
    proc, _ = _start(argv, deadline)
    out = _finish(proc, deadline)
    for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2):
        probe()
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1])
    res["setup_samples"] = setups
    res["setup_wall_s"] = statistics.median(wall_setups)
    res["setup_s"] = statistics.median(setups)
    res["answered_frac"] = 1.0 - res["failed"] / res["attempted"]
    return res


def report(res, trace) -> dict:
    """Print the human-readable block; return the metrics for the JSON line."""
    w = res["workload"]
    print(f"== {w}  seed {res['seed']}  {res['queries']} queries x {len(res['passes'])} passes"
          f"  (closed loop, 1 client, 1 thread)")
    for i, p in enumerate(res["passes"], 1):
        load = "n/a" if p["load1"] is None else f"{p['load1']:.2f}"
        if trace:
            print(f"   interleaved pass: untraced wall {p['wall_s']:.3f} s  traced wall {p['traced_wall_s']:.3f} s"
                  f"  cpu (both) {p['cpu_s']:.3f} s  load1 {load}")
        else:
            print(f"   pass {i}: wall {p['wall_s']:.3f} s  cpu {p['cpu_s']:.3f} s  load1 {load}  units {p['units']}")
    print(f"   failed_frac {res['failed'] / res['attempted']:.4f} ratio"
          f"  ({res['failed']} of {res['attempted']} failed, {res['wrong']} wrong)")
    for reason in res["reasons"]:
        print(f"   ! {reason}")
    print(f"   oracle: {res['oracle_s']:.3f} s, outside every timing")
    host = res["host"]
    if host["samples"]:
        print(f"   host speed: {host['samples']} reference samples, median {host['median_s'] * 1e3:.4f} ms"
              f" (reference speed {hostspeed.REF_S * 1e3:.4f} ms); plain wall: verdict_p50"
              f" {res['wall_p50_s']:.6g} s, set-up {res['setup_wall_s']:.6g} s")
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
        for claim, holds in res["expectations"]:
            print(f"   expect {claim}: {'holds' if holds else 'DOES NOT HOLD'}")
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        note = ""
        if name == "verdict_tail_s":
            note = f"  (p{res['tail_percentile']:.1f} of {res['queries']} per-query medians)"
        elif name == "setup_s":
            note = f"  (median of {len(res['setup_samples'])} start-ups)"
        print(f"   {name:34s} {m['value']:.6g} {m['unit']}{note}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cprings", "__init__.py")):
        print(f"no cprings package under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for w in names:
            deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(w, args.seed, args.seconds, args.trace, deadline))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for res in results:
        m = report(res, args.trace)
        metrics.update(m if len(results) == 1 else {f"{res['workload']}.{k}": v for k, v in m.items()})
    correct = all(r["wrong"] == 0 for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
