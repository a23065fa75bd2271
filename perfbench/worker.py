"""One repetition of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED setup|run|trace [--toy]

Run from the repository root with src/ on PYTHONPATH. Set-up (interpreter
start, importing specconn, preparing the input) ends at the `ready` stamp,
taken with time.monotonic so that run.py can subtract its own spawn stamp.
`setup` stops there; `run` then times the workload and checks its outputs
against the reference facts; `trace` does the same under tracer.Tracer. The
last line of standard output is one JSON object.
"""

import json
import os
import resource
import sys
import time

WORKLOADS = ("census-verify", "ingest-sweep", "transform-fuzz")

# ingest-sweep parameter sets (mode, g, r); neighbor mode ignores r
SWEEP = [
    ("component", 0, 2),
    ("component", 1, 2),
    ("component", 0, 3),
    ("component", 1, 3),
    ("neighbor", 2, 2),
]
TOY_SWEEP = SWEEP[:2]

FUZZ_CHECKS = 5000  # per harness: 10,000 applicable checks per repetition
TOY_FUZZ_CHECKS = 25
FUZZ_MAX_N = 16

WORK_DIR = os.path.join("perfbench", ".work")
OUT_DIR = os.path.join("perfbench", ".out")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Workload:
    """Prepared inputs of one repetition, run and checked in three steps."""

    def __init__(self, name: str, seed: int, toy: bool):
        self.name = name
        self.seed = seed
        self.n = 6 if toy else 8
        self.toy = toy
        self.files: list[str] = []
        self.seeds: dict[str, int] = {"seed": seed}

    def _path(self, stem: str) -> str:
        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR, f"{stem}-{os.getpid()}")
        self.files.append(path)
        return path

    def prepare(self, reference: dict) -> None:
        import oracle

        self.census_lines = reference["census"][str(self.n)]["lines"]
        if self.name == "census-verify":
            import specconn.cli  # noqa: F401  (its import is part of every CLI run)

            self.json_path = self._path("verify.json")
            self.argv = [
                "verify", "--n", str(self.n), "--g", "1", "--r", "2",
                "--all-classes", "--jobs", "1", "--json", self.json_path,
            ]
        elif self.name == "ingest-sweep":
            census = os.path.join(oracle.HERE, reference["census"][str(self.n)]["file"])
            with open(census, encoding="ascii") as handle:
                lines = handle.read().split()
            self.input_path = self._path("input.g6")
            with open(self.input_path, "w", encoding="ascii") as handle:
                handle.write("".join(
                    line + "\n" for line in oracle.shuffled_relabelled(lines, self.seed)
                ))
            self.sweep = TOY_SWEEP if self.toy else SWEEP
        else:
            checks = TOY_FUZZ_CHECKS if self.toy else FUZZ_CHECKS
            self.fuzz = [
                ("fuzz_rotation_increase", checks, self.seed * 2 + 1),
                ("fuzz_subgraph_monotonicity", checks, self.seed * 2 + 2),
            ]
            self.seeds.update({name: s for name, _, s in self.fuzz})

    def run(self):
        """The timed part: public specconn calls only; returns raw outputs."""
        if self.name == "census-verify":
            import specconn.cli

            return specconn.cli.main(self.argv)
        if self.name == "ingest-sweep":
            from specconn import census, verify

            return [
                verify.run_verification(
                    self.n, g, r, mode=mode,
                    source=census.ingest_graph6(self.input_path), jobs=1,
                )
                for mode, g, r in self.sweep
            ]
        from specconn import transforms

        return [
            getattr(transforms, name)(checks, seed, max_n=FUZZ_MAX_N)
            for name, checks, seed in self.fuzz
        ]

    def check(self, output, reference: dict) -> tuple[int, int, int, list[str]]:
        """(items done, operations attempted, operations failed, messages)."""
        import oracle

        facts = reference["facts"][str(self.n)]
        if self.name == "census-verify":
            want = facts[oracle.param_key("component", 1, 2)]
            if isinstance(output, Exception) or output not in (0, 2):
                return 0, len(want), len(want), [f"verify exited with {output!r}"]
            with open(self.json_path, encoding="utf-8") as handle:
                got = dict(oracle.report_facts(rep) for rep in json.load(handle))
            attempted, failed, errors = oracle.compare_cells(got, want)
            return self.census_lines, attempted, failed, errors
        if self.name == "ingest-sweep":
            if isinstance(output, Exception):
                cells = sum(len(facts[oracle.param_key(*p)]) for p in self.sweep)
                return 0, cells, cells, [f"run_verification raised {output!r}"]
            attempted = failed = 0
            errors = []
            for (mode, g, r), reports in zip(self.sweep, output):
                got = dict(oracle.report_facts(rep.to_dict()) for rep in reports)
                a, f, e = oracle.compare_cells(got, facts[oracle.param_key(mode, g, r)])
                attempted += a
                failed += f
                errors.extend(f"{mode} g={g} r={r} {msg}" for msg in e)
            return self.census_lines * len(self.sweep), attempted, failed, errors
        wanted = sum(checks for _, checks, _ in self.fuzz)
        if isinstance(output, Exception):
            return 0, wanted, wanted, [f"fuzz raised {output!r}"]
        done = sum(rep.applicable for rep in output)
        violations = sum(len(rep.violations) for rep in output)
        errors = [v for rep in output for v in rep.violations]
        if done != wanted:
            errors.append(f"{done} applicable checks, wanted {wanted}")
        return done, wanted, min(wanted, violations + abs(wanted - done)), errors

    def cleanup(self) -> None:
        for path in self.files:
            if os.path.exists(path):
                os.remove(path)


def per_layer(tracer, wall_s: float) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced repetition."""
    from tracer import subsets_tried

    times = tracer.layer_times()
    counts = tracer.counts

    def self_s(layer):
        return times[layer]["self_s"]

    def calls(layer):
        return times[layer]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    members = sum(cut >= 0 for _, _, cut in tracer.cuts)
    return {
        "graphs.canonical_s": self_s("graphs.canonical"),
        "graphs.canonical_calls": calls("graphs.canonical"),
        "graphs.decode_s": self_s("graphs.decode"),
        "graphs.decode_calls": calls("graphs.decode"),
        "graphs.encode_s": self_s("graphs.encode"),
        "graphs.construct_s": self_s("graphs.construct"),
        "graphs.construct_calls": calls("graphs.construct"),
        "graphs.edit_s": self_s("graphs.edit"),
        "graphs.edit_calls": calls("graphs.edit"),
        "census.generate_s": self_s("census.generate"),
        "census.children_tried": counts["census.children_tried"],
        "census.graphs_generated": counts["census.graphs_generated"],
        "census.dedup_ratio": ratio(
            counts["census.graphs_generated"], counts["census.children_tried"]
        ),
        "census.ingest_s": self_s("census.ingest"),
        "census.records_ingested": counts["census.records_ingested"],
        "connectivity.min_cut_s": self_s("connectivity.min_cut"),
        "connectivity.min_cut_calls": calls("connectivity.min_cut"),
        "connectivity.subsets_tried": sum(subsets_tried(*c) for c in tracer.cuts),
        "connectivity.member_ratio": ratio(members, len(tracer.cuts)),
        "spectral.rho_s": self_s("spectral.rho"),
        "spectral.rho_calls": calls("spectral.rho"),
        "spectral.power_iterations": counts["spectral.power_iterations"],
        "spectral.iterations_max": tracer.iterations_max,
        "families.construct_s": self_s("families.construct"),
        "families.construct_calls": calls("families.construct"),
        "transforms.fuzz_s": self_s("transforms.fuzz"),
        "transforms.trials": counts["transforms.trials"],
        "transforms.applicable_ratio": ratio(
            counts["transforms.applicable"], counts["transforms.trials"]
        ),
        "transforms.violations": counts["transforms.violations"],
        "verify.run_s": times["verify.run"]["total_s"],
        "verify.merge_s": self_s("verify.run"),
        "verify.cells": counts["verify.cells"],
        "verify.confirmed": counts["verify.confirmed"],
        "verify.failed": counts["verify.cells"] - counts["verify.confirmed"],
        "cli.main_s": self_s("cli.main"),
        "unattributed_s": wall_s - sum(t["self_s"] for t in times.values()),
    }


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    if name not in WORKLOADS or mode not in ("setup", "run", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    import specconn

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import oracle

    reference = oracle.load_reference()
    work = Workload(name, seed, "--toy" in argv[3:])
    try:
        work.prepare(reference)
        ready = time.monotonic()
        out = {
            "ready": ready,
            "backend": specconn.BACKEND,
            "seeds": work.seeds,
        }
        if mode != "setup":
            out.update(_measure(work, reference, mode == "trace"))
    finally:
        work.cleanup()
    print(json.dumps(out))
    return 0


def _measure(work: Workload, reference: dict, traced: bool) -> dict:
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        output = work.run()
    except Exception as exc:  # an operation that raised counts as failed
        output = exc
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    # read before tracing results and the check (which imports numpy) add memory
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb}
    if traced:
        tracer.uninstall()
        out["per_layer"] = per_layer(tracer, wall)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{work.name}.npz"))
    items, attempted, failed, errors = work.check(output, reference)
    out.update({
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
    })
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
