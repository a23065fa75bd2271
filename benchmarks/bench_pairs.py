#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, summarised as one BENCH_*.json.

Usage:
  python3 benchmarks/bench_pairs.py PARENT_DIR CHANGE_DIR OUT_JSON

Every perfbench workload is run in PAIRS pairs on the pure-Python kernels
(SPECCONN_PURE=1): pair i runs
`perfbench/run.py --workload W --seed SEED+i --seconds SECONDS` in both
checkouts, the parent first on even i and the change first on odd i. Then
each checkout makes one traced run (`--trace 1`, seed SEED) for the
per-layer metrics. Every run is kept; per metric the file gives each side's
median and quartiles and, for the end-to-end metrics, how many pairs the
change won. The environment (backend, nproc, git revision, src sha256) is
perfbench's own record of each checkout.

Then the C extension is built in place in both checkouts
(`python3 setup.py build_ext --inplace`) and the COMPILED_WORKLOADS are run
the same way in COMPILED_PAIRS pairs, recorded under "compiled". The script
exits 1 if any run reports another backend than the one asked for.
"""

import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from worker import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")
PAIRS = 10
SEED = 11
SECONDS = 30
COMPILED_PAIRS = 5
COMPILED_WORKLOADS = WORKLOADS


def perfbench(root: str, workload: str, seed: int, trace: int,
              backend: str) -> tuple[dict, dict]:
    """(environment record, result) of one perfbench/run.py invocation on
    the given kernel backend ("pure" or "c")."""
    env = dict(os.environ)
    env.pop("SPECCONN_PURE", None)
    if backend == "pure":
        env["SPECCONN_PURE"] = "1"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    record, result = proc.stdout.strip().splitlines()[-2:]
    record = json.loads(record)
    if record["env"]["backend"] != backend:
        sys.exit(f"{root}: {workload} ran on backend {record['env']['backend']!r}, "
                 f"not {backend!r}")
    return record, json.loads(result)


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def compare(workload: str, roots: dict, pairs: int, backend: str) -> dict:
    runs = {side: [] for side in SIDES}
    env = {}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            record, result = perfbench(roots[side], workload, SEED + i, 0, backend)
            env[side] = record["env"]
            runs[side].append({"seed": SEED + i, "correct": result["correct"],
                               **{k: m["value"] for k, m in result["metrics"].items()}})
            print(backend, workload, side, SEED + i, runs[side][-1].get("wall_s"),
                  file=sys.stderr)
    better = {"wall_s": -1, "cpu_s": -1, "items_per_s": 1, "setup_s": -1, "peak_rss_mb": -1}
    end_to_end = {}
    for name, sign in better.items():
        values = {side: [run[name] for run in runs[side]] for side in SIDES}
        end_to_end[name] = {
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
            ),
        }
    traced = {}
    for side in SIDES:
        _, result = perfbench(roots[side], workload, SEED, 1, backend)
        traced[side] = {k: m["value"] for k, m in result["metrics"].items()}
    return {"env": env, "end_to_end": end_to_end, "runs": runs, "per_layer_traced": traced}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change, out_path = argv
    roots = {"parent": os.path.abspath(parent), "change": os.path.abspath(change)}
    out = {
        "pairs": PAIRS,
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {w: compare(w, roots, PAIRS, "pure") for w in WORKLOADS},
    }
    for root in roots.values():
        subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                       cwd=root, capture_output=True, check=True)
    out["compiled"] = {
        "pairs": COMPILED_PAIRS,
        "workloads": {w: compare(w, roots, COMPILED_PAIRS, "c") for w in COMPILED_WORKLOADS},
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
