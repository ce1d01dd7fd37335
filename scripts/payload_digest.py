#!/usr/bin/env python3
"""Digest the payloads of every eq-cold and lattice benchmark question.

Builds the questions of `perfbench/workloads.py` at one seed in a temporary
directory and runs each through in-process `cli.run`; each `lattice`
question runs again under `--format dot` and `--format table`.  Prints one
line per call (workload, question key, verb[:format], exit code, SHA-256 of
the payload with the temporary directory replaced by a fixed token), then the
SHA-256 of all those lines.  Two checkouts give byte-identical payloads and
exit codes exactly when their outputs are equal, so `diff` compares them:

    PYTHONPATH=src python3 scripts/payload_digest.py --seed 1 > digest.txt
"""

import argparse
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

from cprings import cli  # noqa: E402

FORMATS = {"lattice": ([], ["--format", "dot"], ["--format", "table"])}


def digest_lines(seed: int):
    """One digest line per `cli.run` call of the eq-cold and lattice questions."""
    with tempfile.TemporaryDirectory() as workdir:
        for name in ("eq-cold", "lattice"):
            _, queries = workloads.BUILDERS[name](seed, workdir)
            for q in sorted(queries, key=lambda q: q.key):
                for extra in FORMATS.get(q.verb, ([],)):
                    code, body = cli.run(q.argv + extra)
                    sha = hashlib.sha256(body.replace(workdir, "<tmp>").encode()).hexdigest()
                    verb = ":".join([q.verb, *extra[1:]])
                    yield f"{name} {q.key} {verb} {code} {sha}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    total = hashlib.sha256()
    for line in digest_lines(args.seed):
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
