#!/usr/bin/env python3
"""One sha256 over the verification reports of a fixed grid of runs.

Usage:
  python3 benchmarks/report_digest.py ROOT

Imports specconn from ROOT/src, on whichever kernel backend specconn.kernels
selects (SPECCONN_PURE=1 forces the pure one), and hashes
`verify.reports_to_json` of every run of the grid in a fixed order: n = 5-8,
g = 0-2, component mode with r = 2 and 3 and neighbor mode with r = 2,
jobs 1 and 2, over the built-in census and over a relabelled, shuffled copy
of it (seeded per n), 144 runs in all. The copy is written as graph6 text
and read back through census.ingest_graph6 for every run, so the digest
covers decoding too. Two checkouts whose reports are byte-identical print
the same digest.
"""

import hashlib
import os
import random
import sys

SEED = 7
ORDERS = (5, 6, 7, 8)
THRESHOLDS = (0, 1, 2)
MODES = (("component", 2), ("component", 3), ("neighbor", 2))
JOBS = (1, 2)


def main() -> None:
    (root,) = sys.argv[1:]
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from specconn.census import connected_census, ingest_graph6
    from specconn.graphs import graph6_encode, permute
    from specconn.verify import reports_to_json, run_verification

    digest = hashlib.sha256()
    for n in ORDERS:
        census = connected_census(n)
        rng = random.Random(SEED * 100 + n)
        shuffled = [permute(h, rng.sample(range(n), n)) for h in census]
        rng.shuffle(shuffled)
        lines = [graph6_encode(h) + "\n" for h in shuffled]
        for text in (None, lines):
            for g in THRESHOLDS:
                for mode, r in MODES:
                    for jobs in JOBS:
                        source = None if text is None else ingest_graph6(text)
                        reports = run_verification(n, g, r, mode=mode, source=source, jobs=jobs)
                        digest.update(reports_to_json(reports).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
