#!/usr/bin/env python3
"""Two sha256 digests over the transform fuzz harnesses' reports on a
fixed grid.

Usage:
  python3 benchmarks/fuzz_digest.py ROOT

Imports specconn from ROOT/src, on whichever kernel backend specconn.kernels
selects (SPECCONN_PURE=1 forces the pure one), and runs
transforms.fuzz_rotation_increase and transforms.fuzz_subgraph_monotonicity
for TRIALS applicable trials at max_n = 16, seeds 0-9 each, rotation before
monotonicity for each seed. It prints two lines:

- the full digest: every report adds (trials, applicable, violations,
  disconnected_results, min_margin.hex()). The minimum margins are the
  harnesses' floats to the last bit: certified lower bounds on the gap
  where a bracket decided the check, differences of converged rhos
  elsewhere. So it changes whenever an eigensolver change moves any bound
  or rho the fuzz reports, or the harnesses draw other trials;
- "draws" and a digest of (trials, applicable, number of violations,
  disconnected_results) alone, which changes only when the harnesses draw
  or decide other trials. A change that moves only the margins keeps it.

Both kernel backends give the same bits, so they print the same digests,
and two checkouts whose harnesses agree print the same digests.
"""

import hashlib
import os
import sys

SEEDS = range(10)
TRIALS = 100
MAX_N = 16


def main() -> None:
    (root,) = sys.argv[1:]
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from specconn.transforms import fuzz_rotation_increase, fuzz_subgraph_monotonicity

    digest, draws = hashlib.sha256(), hashlib.sha256()
    for seed in SEEDS:
        for harness in (fuzz_rotation_increase, fuzz_subgraph_monotonicity):
            rep = harness(TRIALS, seed, MAX_N)
            fields = (rep.trials, rep.applicable, rep.violations,
                      rep.disconnected_results, rep.min_margin.hex())
            digest.update(repr(fields).encode())
            counts = (rep.trials, rep.applicable, len(rep.violations),
                      rep.disconnected_results)
            draws.update(repr(counts).encode())
    print(digest.hexdigest())
    print("draws", draws.hexdigest())


if __name__ == "__main__":
    main()
