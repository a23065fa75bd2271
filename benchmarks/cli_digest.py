#!/usr/bin/env python3
"""One sha256 over the stdout and exit codes of a fixed grid of CLI runs.

Usage:
  python3 benchmarks/cli_digest.py ROOT

Imports specconn from ROOT/src, on whichever kernel backend specconn.kernels
selects (SPECCONN_PURE=1 forces the pure one), and calls `cli.main` for
every run of the grid in a fixed order, hashing each run's exit code and
stdout. stderr is left out, so that error messages can be reworded without
moving the digest. For n = 5-8, g = 0-2, component mode with r = 2 and 3
and neighbor mode with r = 2:

- `verify --all-classes` with jobs 1 and 2, over the built-in census and
  over a relabelled, shuffled graph6 copy of it passed as --input (seeded
  per n as in report_digest.py), 144 runs in all; the 40 with
  n <= r(g+1), where the cut-size lemma leaves every class empty, are
  usage errors;
- one explicit cell that --all-classes reports, when there is one;
- one empty cell inside the hypothesis n >= k + r(g+1), when k = 1 is
  inside it: the complete graph has no cut, so minimum degree n - 1 is
  empty;
- one cell outside the hypothesis, k = n - r(g+1) + 1 (at least 1), which
  is a usage error.

Two checkouts whose CLI output and exit codes agree print the same digest.
"""

import contextlib
import hashlib
import io
import os
import random
import re
import sys
import tempfile

SEED = 7
ORDERS = (5, 6, 7, 8)
THRESHOLDS = (0, 1, 2)
MODES = (("component", 2), ("component", 3), ("neighbor", 2))
JOBS = (1, 2)


def main() -> None:
    (root,) = sys.argv[1:]
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from specconn.census import connected_census
    from specconn.cli import main as cli_main
    from specconn.graphs import graph6_encode, permute

    digest = hashlib.sha256()

    def run(argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        digest.update(f"{code}\n{out.getvalue()}".encode())
        return out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        for n in ORDERS:
            census = connected_census(n)
            rng = random.Random(SEED * 100 + n)
            shuffled = [permute(h, rng.sample(range(n), n)) for h in census]
            rng.shuffle(shuffled)
            path = os.path.join(tmp, f"shuffled{n}.g6")
            with open(path, "w", encoding="ascii") as handle:
                handle.writelines(graph6_encode(h) + "\n" for h in shuffled)
            for g in THRESHOLDS:
                for mode, r in MODES:
                    base = ["verify", "--n", str(n), "--g", str(g), "--r", str(r),
                            "--mode", mode]
                    for source in ([], ["--input", path]):
                        for jobs in JOBS:
                            out = run(base + source + ["--jobs", str(jobs), "--all-classes"])
                    reported = re.search(r" delta=(\d+) .* k=(\d+) ", out)
                    if reported:
                        run(base + ["--delta", reported[1], "--k", reported[2]])
                    if n >= 1 + r * (g + 1):
                        run(base + ["--delta", str(n - 1), "--k", "1"])
                    k = max(1, n - r * (g + 1) + 1)
                    run(base + ["--delta", "1", "--k", str(k)])
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
