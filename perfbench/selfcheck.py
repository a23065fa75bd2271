#!/usr/bin/env python3
"""Check the benchmark's own oracle and counters at toy size.

Run from the repository root: python3 perfbench/selfcheck.py
Takes a few seconds. Exits 1 if any check fails.

1. The subsets_tried formula matches a direct count of the reference cut
   search's candidate tests on every graph of the n = 6 census.
2. Each workload at toy size (census n = 6, a two-parameter ingest sweep,
   50 fuzz checks) passes its oracle with no failures.
3. A planted wrong fact (a perturbed best rho, swapped best graphs, a planted
   rho violation in the fuzz) makes the failure count non-zero.
4. Every exact count of a traced toy run repeats in a second traced run.
"""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_subset_counts(reference: dict) -> None:
    from specconn import _kernels_py

    for n in range(1, 9):
        for size in range(n + 1):
            for rank, combo in enumerate(itertools.combinations(range(n), size)):
                mask = sum(1 << v for v in combo)
                if tracer.lex_rank(mask, n) != rank:
                    expect(False, f"lex_rank of {combo} among C({n},{size})")
                    return
    expect(True, "lex_rank matches itertools.combinations order for n <= 8")

    census = os.path.join(HERE, reference["census"]["6"]["file"])
    with open(census, encoding="ascii") as handle:
        graphs = [oracle.decode_g6(line) for line in handle.read().split()]
    original = _kernels_py.cut_valid
    tested = 0

    def counting(*args):
        nonlocal tested
        tested += 1
        return original(*args)

    mismatches = 0
    _kernels_py.cut_valid = counting
    try:
        for rows, mode, (g, r) in itertools.product(graphs, range(4), [(0, 2), (1, 2), (1, 3)]):
            tested = 0
            cut = _kernels_py.min_cut_search(tuple(rows), len(rows), g, r, mode)
            mismatches += tested != tracer.subsets_tried(len(rows), mode, cut)
    finally:
        _kernels_py.cut_valid = original
    expect(mismatches == 0, "subsets_tried equals the candidates the pure search tests "
           f"({len(graphs)} graphs x 4 modes x 3 (g, r))")


def run_toy(name: str, reference: dict, seed: int = 7):
    work = worker.Workload(name, seed, toy=True)
    try:
        work.prepare(reference)
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's verdict lines
            output = work.run()
        return work.check(output, reference)
    finally:
        work.cleanup()


def check_toy_workloads(reference: dict) -> None:
    for name in worker.WORKLOADS:
        items, attempted, failed, errors = run_toy(name, reference)
        expect(failed == 0 and attempted > 0 and items > 0,
               f"{name} toy run: {failed}/{attempted} failed {errors[:2]}")


def check_planted(reference: dict) -> None:
    cv_key = oracle.param_key("component", 1, 2)
    sweep_key = oracle.param_key(*worker.TOY_SWEEP[0])

    perturbed = copy.deepcopy(reference)
    cell = sorted(perturbed["facts"]["6"][cv_key])[0]
    perturbed["facts"]["6"][cv_key][cell]["best_rho"] += 1e-6
    _, attempted, failed, errors = run_toy("census-verify", perturbed)
    expect(failed == 1, f"census-verify catches a best rho off by 1e-6: {failed}/{attempted} {errors[:1]}")

    swapped = copy.deepcopy(reference)
    cells = swapped["facts"]["6"][sweep_key]
    a, b = sorted(cells)[:2]
    cells[a]["best_canonical"], cells[b]["best_canonical"] = (
        cells[b]["best_canonical"], cells[a]["best_canonical"])
    _, attempted, failed, errors = run_toy("ingest-sweep", swapped)
    expect(failed == 2, f"ingest-sweep catches swapped best graphs: {failed}/{attempted} {errors[:1]}")

    from specconn import transforms

    original = transforms.spectral_radius
    calls = itertools.count()

    def planted(g, *args, **kwargs):
        res = original(g, *args, **kwargs)
        return dataclasses.replace(res, rho=res.rho - 1.0) if next(calls) % 2 else res

    transforms.spectral_radius = planted
    try:
        _, attempted, failed, errors = run_toy("transform-fuzz", reference)
    finally:
        transforms.spectral_radius = original
    expect(failed > 0, f"transform-fuzz catches a planted rho error: {failed}/{attempted}")


def check_trace_repeats() -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for name in worker.WORKLOADS:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), name, "7", "trace", "--toy"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            layers = json.loads(proc.stdout.strip().splitlines()[-1])["per_layer"]
            runs.append({k: v for k, v in layers.items() if not k.endswith("_s")})
        expect(runs[0] == runs[1], f"{name} traced toy counts repeat exactly ({len(runs[0])} counts)")


def main() -> int:
    reference = oracle.load_reference()
    check_subset_counts(reference)
    check_toy_workloads(reference)
    check_planted(reference)
    check_trace_repeats()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
