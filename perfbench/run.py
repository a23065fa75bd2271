#!/usr/bin/env python3
"""specconn benchmark: three workloads, timed end to end and per layer.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (perfbench/worker.py) with
src/ on PYTHONPATH and whichever kernel backend specconn.kernels selects; no
extension is built. With --trace 0 the run first spawns SETUP_SAMPLES
set-up-only workers, then repeats the workload while the next repetition is
predicted to fit in S seconds (at least one), and reports medians of the
end-to-end metrics. With --trace 1 it runs one untraced and one traced
repetition and reports the per-layer metrics of the traced one.

The last line of standard output is the JSON result. A fuller record (the
environment, every sample, quartiles and failure messages) is written to
perfbench/.out/. See perfbench/README.md for the workloads and the map from
layer metrics to end-to-end metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from worker import OUT_DIR, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0  # the whole run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot run here: no result is printed."""


def _summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile with ten
    samples beyond it (None below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    quart = statistics.quantiles(ordered, n=4) if n > 1 else [ordered[0]] * 3
    high = None
    if n > 10:
        q = int(100 * (1 - 10 / n))
        high = {"percentile": q, "value": ordered[min(n - 1, q * n // 100)]}
    return {"median": statistics.median(ordered), "q1": quart[0], "q3": quart[2],
            "n": n, "high": high}


def _git_revision(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="ascii") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(root, ".git", ref[5:])
    if not os.path.exists(ref_path):
        return None
    with open(ref_path, encoding="ascii") as handle:
        return handle.read().strip()


def _src_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def _load_units(root: str) -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    if not os.path.isfile(os.path.join(root, "src", "specconn", "__init__.py")):
        raise BenchError("src/specconn not found: run from the root of a specconn checkout")
    for n, pin in oracle.load_reference()["census"].items():
        lines, digest = oracle.file_digest(os.path.join(HERE, pin["file"]))
        if (lines, digest) != (pin["lines"], pin["sha256"]):
            raise BenchError(f"census input for n = {n} does not match its pin")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Runner:
    def __init__(self, workload: str, seed: int, root: str):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def spawn(self, mode: str) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               self.workload, str(self.seed), mode]
        started = time.monotonic()
        timeout = self.deadline - started
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crashed": True, "returncode": proc.returncode,
                    "stderr": proc.stderr[-2000:], "elapsed_s": time.monotonic() - started}
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - started
        result["elapsed_s"] = time.monotonic() - started
        return result


def _tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    errors: list[str] = []
    for rep in reps:
        if rep.get("crashed"):
            attempted += 1
            failed += 1
            errors.append(f"worker crashed ({rep['returncode']}): {rep['stderr']}")
        else:
            attempted += rep["attempted"]
            failed += rep["failed"]
            errors.extend(rep["errors"])
    return attempted, failed, errors


def _end_to_end(runner: Runner, seconds: int, units: dict) -> tuple[dict, list[dict], dict]:
    setups = [runner.spawn("setup") for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    spent = 0.0
    while True:
        rep = runner.spawn("run")
        reps.append(rep)
        spent += rep["elapsed_s"]
        if rep.get("crashed") or spent + rep["elapsed_s"] > seconds:
            break
    ok = [r for r in reps if not r.get("crashed")]
    samples = {
        "setup_s": [s["setup_s"] for s in setups + ok if not s.get("crashed")],
        "wall_s": [r["wall_s"] for r in ok],
        "cpu_s": [r["cpu_s"] for r in ok],
        "items_per_s": [r["items"] / r["wall_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    detail = {name: _summary(vals) for name, vals in samples.items() if vals}
    metrics = {
        name: {"value": detail[name]["median"], "unit": unit}
        for name, unit in units.items() if name in detail
    }
    return metrics, reps + [s for s in setups if s.get("crashed")], detail


def _per_layer(runner: Runner, units: dict) -> tuple[dict, list[dict], dict]:
    plain = runner.spawn("run")
    traced = runner.spawn("trace")
    reps = [plain, traced]
    if plain.get("crashed") or traced.get("crashed"):
        return {}, reps, {}
    values = dict(traced["per_layer"])
    values["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return metrics, reps, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        end_to_end, per_layer = _load_units(root)
        runner = Runner(args.workload, args.seed, root)
        if args.trace:
            metrics, reps, detail = _per_layer(runner, per_layer)
        else:
            metrics, reps, detail = _end_to_end(runner, args.seconds, end_to_end)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    attempted, failed, errors = _tally(reps)
    ok = [r for r in reps if not r.get("crashed")]
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "backend": ok[0]["backend"] if ok else None,
        "SPECCONN_PURE": os.environ.get("SPECCONN_PURE"),
        "SPECCONN_JOBS": os.environ.get("SPECCONN_JOBS"),
        "jobs": 1,
        "git_revision": _git_revision(root),
        "src_sha256": _src_digest(root),
        "seeds": ok[0]["seeds"] if ok else {"seed": args.seed},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "failed_ratio": failed / attempted,
        "repetitions": len(ok),
        "summary": detail,
        "errors": errors[:50],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(root, OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({k: record[k] for k in ("workload", "env", "failed_ratio",
                                             "repetitions", "errors")}))
    result = {
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
