#!/usr/bin/env python3
"""Regenerate the benchmark's pinned inputs and reference facts.

Writes data/census6.g6 and data/census8.g6 (the built-in connected census,
one graph6 record per line) and data/reference.json (per parameter set and
cell: population, best rho, canonical form of the best graph, second-best
rho). Every best rho is cross-checked against numpy.linalg.eigvalsh and the
census sizes against OEIS A001349 before anything is written.

Run from the repository root: python3 perfbench/make_reference.py
It takes about a minute on the pure-Python backend.
"""

import json
import os
import sys

import oracle

A001349 = {6: 112, 8: 11117}

# (order, mode, g, r): the ingest-sweep parameter sets at n = 8 (census-verify
# is the component g = 1, r = 2 set) and the toy sweep used by selfcheck.py
PARAMETER_SETS = [
    (8, "component", 0, 2),
    (8, "component", 1, 2),
    (8, "component", 0, 3),
    (8, "component", 1, 3),
    (8, "neighbor", 2, 2),
    (6, "component", 0, 2),
    (6, "component", 1, 2),
]


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from specconn.census import connected_census
    from specconn.graphs import graph6_encode
    from specconn.verify import run_verification

    data_dir = os.path.join(oracle.HERE, "data")
    os.makedirs(data_dir, exist_ok=True)
    reference: dict = {"census": {}, "facts": {}}
    for n, count in A001349.items():
        lines = [graph6_encode(g) for g in connected_census(n)]
        if len(lines) != count or len(set(lines)) != count:
            raise SystemExit(f"census of order {n} has {len(lines)} records, want {count}")
        name = f"census{n}.g6"
        path = os.path.join(data_dir, name)
        with open(path, "w", encoding="ascii") as handle:
            handle.write("".join(line + "\n" for line in lines))
        nlines, digest = oracle.file_digest(path)
        reference["census"][str(n)] = {"file": f"data/{name}", "lines": nlines, "sha256": digest}

    for n, mode, g, r in PARAMETER_SETS:
        cells = {}
        for rep in run_verification(n, g, r, mode=mode, source=connected_census(n), jobs=1):
            key = oracle.cell_key(rep.spec.delta, rep.spec.k)
            dense = oracle.dense_rho(oracle.decode_g6(rep.best_graph6))
            if abs(dense - rep.best_rho) > oracle.RHO_TOL:
                raise SystemExit(f"n={n} {mode} g={g} r={r} cell {key}: rho disagrees with eigvalsh")
            cells[key] = {
                "population": rep.population,
                "best_rho": rep.best_rho,
                "best_canonical": rep.best_canonical,
                "second_best_rho": rep.second_best_rho,
            }
        reference["facts"].setdefault(str(n), {})[oracle.param_key(mode, g, r)] = cells

    with open(oracle.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
