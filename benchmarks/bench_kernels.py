#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Workload: the verification pipeline's hot loops over the connected census of
a given order: exhaustive minimum-cut search at g = 1, r = 2 in each of the
four mode codes (one graph per call, and the batched search over the pure
kernel's width W of graphs per call, as the verify scan runs it),
dominant-eigenpair power iteration, and component flood fills under random
deletions. Exits 1 when the two backends disagree on any kernel (on any bit
of any power iteration's result), or the batched search on any cut of the
per-graph search in the same mode.

Usage: python3 benchmarks/bench_kernels.py [--n 7] [--tol 1e-12]
"""

import argparse
import math
import random
import sys
import time

from specconn import _kernels_py
from specconn.census import connected_census
from specconn.spectral import iteration_cap

try:
    from specconn import _kernels
except ImportError:
    _kernels = None


def bench_min_cut(mod, graphs, mode):
    t0 = time.perf_counter()
    cuts = [mod.min_cut_search(g.adj, g.n, 1, 2, mode) for g in graphs]
    return time.perf_counter() - t0, cuts


def bench_min_cut_many(mod, graphs, width, mode):
    t0 = time.perf_counter()
    cuts = []
    for start in range(0, len(graphs), width):
        batch = [g.adj for g in graphs[start:start + width]]
        cuts += mod.min_cut_search_many(batch, graphs[0].n, 1, 2, mode)
    return time.perf_counter() - t0, cuts


def bench_power(mod, graphs, tol):
    t0 = time.perf_counter()
    outs = [
        mod.power_iteration(g.adj, g.n, g.vertex_mask, tol, iteration_cap(g.n, tol), math.nan)
        for g in graphs
    ]
    elapsed = time.perf_counter() - t0
    assert all(out[4] for out in outs)
    return elapsed, outs


def bench_components(mod, graphs, removals):
    t0 = time.perf_counter()
    acc = 0
    for g, rem in zip(graphs, removals):
        acc += len(mod.components_masks(g.adj, g.n, rem))
    return time.perf_counter() - t0, acc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=7, help="census order (<= 8)")
    parser.add_argument("--tol", type=float, default=1e-12)
    args = parser.parse_args()

    graphs = connected_census(args.n)
    rng = random.Random(0)
    removals = [rng.randrange(1 << g.n) for g in graphs]
    print(f"census: {len(graphs)} connected graphs of order {args.n}")

    width = _kernels_py._batch_width(args.n)
    # (per-graph row, batched row) of each mode code
    searches = [(f"min_cut_search(mode={mode})", f"min_cut_search_many(mode={mode},W={width})")
                for mode in range(4)]
    tasks = []
    for mode, (single, batched) in enumerate(searches):
        tasks += [(single, bench_min_cut, (graphs, mode)),
                  (batched, bench_min_cut_many, (graphs, width, mode))]
    tasks += [
        (f"power_iteration(tol={args.tol:g})", bench_power, (graphs, args.tol)),
        ("components_masks(random removals)", bench_components, (graphs, removals)),
    ]
    header = f"{'kernel':40} {'pure':>10} {'c':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    mismatches = 0
    checks = {}
    for name, fn, extra in tasks:
        t_pure, check_pure = fn(_kernels_py, *extra)
        checks[name] = check_pure
        if _kernels is None:
            print(f"{name:40} {t_pure:9.3f}s {'n/a':>10} {'n/a':>8}")
            continue
        t_c, check_c = fn(_kernels, *extra)
        # every output compared exactly: the power iteration's 7-tuples too
        agreement = check_pure == check_c
        mismatches += not agreement
        flag = "" if agreement else "  (MISMATCH)"
        print(f"{name:40} {t_pure:9.3f}s {t_c:9.3f}s {t_pure / t_c:7.1f}x{flag}")
    for single, batched in searches:
        if checks[batched] != checks[single]:
            mismatches += 1
            print(f"MISMATCH: {batched} disagrees with {single}")
    if _kernels is None:
        print("compiled extension not built; run python3 setup.py build_ext --inplace "
              "(needs a C compiler)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
