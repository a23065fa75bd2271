"""Command-line interface.

Subcommands: rho, cut, family, transform (rotate|monotone|rebalance|fuzz),
enum, verify. Exit codes: 0 success / all verdicts confirming, 2 a checked
claim failed, 1 usage or input errors (argparse's own included) and a power
iteration that did not converge.
"""

import argparse
import json
import sys

from .census import GENERATOR_CAP, connected_census, ingest_graph6
from .connectivity import CutMode, CutQuery, min_cut
from .families import (
    FAMILY_IDS,
    FamilyParams,
    InfeasibleFamilyError,
    construct,
    verify_witness,
    witness_cut,
)
from .graphs import (
    Graph,
    GraphFormatError,
    graph6_decode,
    graph6_encode,
    require_vertices,
    vertices_of,
)
from .kernels import BACKEND
from .spectral import ConvergenceError, ViolationError, spectral_radius
from .transforms import (
    RotationSpec,
    check_join_rebalance,
    check_rotation_increase,
    check_subgraph_monotonicity,
    fuzz_rotation_increase,
    fuzz_subgraph_monotonicity,
    rotate,
)
from .verify import (
    COMPONENT_MODE,
    NEIGHBOR_MODE,
    run_verification,
    write_csv,
    write_json,
)

USAGE_ERROR = 1
VERDICT_FAILURE = 2

MODE_NAMES = {
    "classic": CutMode.CLASSIC,
    "component": CutMode.COMPONENT,
    "neighbor": CutMode.NEIGHBOR,
    "full": CutMode.FULL,
}


def _read_graph(arg: str) -> Graph:
    if arg == "-":
        arg = sys.stdin.readline()
    return graph6_decode(arg)


def _cmd_rho(args) -> int:
    g = _read_graph(args.graph)
    res = spectral_radius(g, args.tol)
    print(round(res.rho, 10))
    if not args.no_vector:
        print(" ".join(f"{x:.12g}" for x in res.perron))
    return 0


def _cmd_cut(args) -> int:
    g = _read_graph(args.graph)
    query = CutQuery(args.g, args.r, MODE_NAMES[args.mode])
    result = min_cut(g, query)
    if result is None:
        print("no valid cut exists")
        return 0
    cert = result.certificate
    print(f"value={result.value}")
    print(f"cut={list(vertices_of(cert.cut))}")
    print(f"component_sizes={list(cert.component_sizes)}")
    print(f"min_residual_degree={cert.min_residual_degree}")
    return 0


def _cmd_family(args) -> int:
    family = FAMILY_IDS.get(args.id)
    if family is None:
        print(f"unknown family id {args.id!r}; one of {sorted(FAMILY_IDS)}", file=sys.stderr)
        return USAGE_ERROR
    params = FamilyParams(family, args.n, args.k, args.delta, args.g, args.r)
    graph = construct(params)
    if args.emit == "graph6":
        print(graph6_encode(graph))
        return 0
    print(
        json.dumps(
            {
                "family": family.value,
                "n": args.n,
                "k": args.k,
                "delta": args.delta,
                "g": args.g,
                "r": args.r,
                "graph6": graph6_encode(graph),
                "edges": graph.edge_count(),
                "witness_cut": list(vertices_of(witness_cut(params))),
                "witness_valid": verify_witness(params),
            },
            indent=2,
        )
    )
    return 0


def _cmd_transform(args) -> int:
    if args.action == "rotate":
        g = _read_graph(args.graph)
        moved = [int(tok) for tok in args.moved.split(",") if tok]
        require_vertices(g, *moved)
        spec = RotationSpec(args.u, args.v, sum(1 << w for w in moved))
        if args.check:
            check = check_rotation_increase(g, spec)
            if not check.applicable:
                print(f"inapplicable: x({args.u})={check.x_u:.12g} < x({args.v})={check.x_v:.12g}")
                return 0
            print(f"rho_before={check.rho_before!r}")
            # a certified value is a bound: rho after the rotation is at least it
            print(f"rho_after{'>=' if check.certified else '='}{check.rho_after!r}")
            print(graph6_encode(rotate(g, spec)))
            return 0
        print(graph6_encode(rotate(g, spec)))
        return 0
    if args.action == "monotone":
        g = _read_graph(args.host)
        h = graph6_decode(args.subgraph)
        check = check_subgraph_monotonicity(g, h)
        print(f"rho_subgraph{'<=' if check.certified else '='}{check.rho_sub!r}")
        print(f"rho_host={check.rho_super!r}")
        print(f"margin={check.margin!r}")
        return 0
    if args.action == "rebalance":
        parts = [int(tok) for tok in args.parts.split(",") if tok]
        check = check_join_rebalance(args.s, parts, args.p)
        print(f"rho_before={check.rho_before!r}")
        print(f"rho_after={check.rho_after!r}")
        print(f"margin={check.margin!r}")
        return 0
    # fuzz
    rot = fuzz_rotation_increase(args.trials, args.seed, args.max_n)
    mono = fuzz_subgraph_monotonicity(args.trials, args.seed + 1, args.max_n)
    print(
        f"rotation: {rot.applicable} applicable trials, "
        f"{len(rot.violations)} violations, min margin {rot.min_margin:.3e}, "
        f"{rot.disconnected_results} disconnected results"
    )
    print(
        f"monotonicity: {mono.applicable} trials, "
        f"{len(mono.violations)} violations, min margin {mono.min_margin:.3e}"
    )
    for line in rot.violations + mono.violations:
        print(f"VIOLATION: {line}")
    return 0 if rot.ok and mono.ok else VERDICT_FAILURE


def _cmd_enum(args) -> int:
    # generate before opening --out, so a usage error leaves the file alone
    graphs = connected_census(args.n)
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="ascii")
    try:
        for g in graphs:
            out.write(graph6_encode(g) + "\n")
    finally:
        if args.out is not None:
            out.close()
    return 0


def _cmd_verify(args) -> int:
    if (args.delta is None) != (args.k is None):
        print("--delta and --k must be given together", file=sys.stderr)
        return USAGE_ERROR
    if args.delta is None and not args.all_classes:
        print("give --delta/--k or --all-classes", file=sys.stderr)
        return USAGE_ERROR
    if args.delta is not None and args.all_classes:
        print("give either --delta/--k or --all-classes, not both", file=sys.stderr)
        return USAGE_ERROR
    if args.all_classes and args.n <= args.r * (args.g + 1):
        # the cut-size lemma: every cut leaves r components of g + 1 vertices
        print(
            f"no class (n, delta, g, r, k) is nonempty when n <= r(g+1) = "
            f"{args.r * (args.g + 1)}: there is nothing to verify",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if args.input is None and args.n > GENERATOR_CAP:
        print(
            f"built-in generation is capped at n = {GENERATOR_CAP}; pass --input",
            file=sys.stderr,
        )
        return USAGE_ERROR
    # the scan streams --input; its bad lines are reported once it stops
    errors: list[tuple[int, str]] = []
    source = None if args.input is None else ingest_graph6(args.input, errors)
    cells = None if args.all_classes else [(args.delta, args.k)]
    try:
        reports = run_verification(
            args.n,
            args.g,
            args.r,
            mode=args.mode,
            source=source,
            cells=cells,
            jobs=args.jobs,
        )
    finally:
        for lineno, message in errors:
            print(f"warning: {args.input}:{lineno}: {message}", file=sys.stderr)
    if not reports:
        # only an --input that is not a complete census can get here: with
        # n > r(g+1), r cliques of g + 1 vertices and one vertex joined to
        # all of them make a connected member of a class
        print(
            f"no graph of {args.input} is in a class with n = {args.n}, g = {args.g}, "
            f"r = {args.r}, though a complete census has members: nothing was verified",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if args.json:
        write_json(reports, args.json)
    if args.csv:
        write_csv(reports, args.csv)
    ok = True
    for rep in reports:
        verdict = "CONFIRMED" if rep.confirmed else "FAILED"
        ok = ok and rep.confirmed
        claim = (
            f"claimed {rep.claimed_family} rho={rep.claimed_rho!r}"
            if rep.claimed_family
            else "no claim"
        )
        best = f"best rho={rep.best_rho!r}" if rep.best_rho is not None else "empty class"
        print(
            f"[{verdict}] n={rep.spec.n} delta={rep.spec.delta} g={rep.spec.g} "
            f"r={rep.spec.r} k={rep.spec.k} population={rep.population} "
            f"{best}; {claim}; isomorphic={rep.isomorphic}"
        )
        for w in rep.warnings:
            print(f"  warning: {w}")
    return 0 if ok else VERDICT_FAILURE


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits USAGE_ERROR: its own code, 2, is
    VERDICT_FAILURE here. Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specconn",
        description=(
            "Conditional connectivity, adjacency spectral radii, extremal "
            f"families, and exhaustive verification (kernel backend: {BACKEND})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="spectral radius and Perron vector of a graph6 record")
    p.add_argument("graph", help="graph6 record, or - to read one line from stdin")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--no-vector", action="store_true")
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("cut", help="minimum conditional cut with certificate")
    p.add_argument("graph")
    p.add_argument("--g", type=int, default=0)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default="full")
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("family", help="construct an extremal family graph")
    p.add_argument("id", help="|".join(sorted(FAMILY_IDS)))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--emit", choices=["graph6", "json"], default="graph6")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("transform", help="spectral comparison transforms and fuzzing")
    action = p.add_subparsers(dest="action", required=True)

    q = action.add_parser("rotate", help="move edges from v onto u")
    q.add_argument("graph")
    q.add_argument("--u", type=int, required=True)
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--moved", required=True, help="comma-separated vertices")
    q.add_argument("--check", action="store_true", help="also check the strict rho increase")
    q.set_defaults(func=_cmd_transform)

    q = action.add_parser("monotone", help="proper subgraph loses spectral radius")
    q.add_argument("host")
    q.add_argument("subgraph")
    q.set_defaults(func=_cmd_transform)

    q = action.add_parser("rebalance", help="join-of-cliques concentration increases rho")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--parts", required=True, help="comma-separated descending sizes")
    q.add_argument("--p", type=int, required=True)
    q.set_defaults(func=_cmd_transform)

    q = action.add_parser("fuzz", help="randomized counterexample hunt")
    q.add_argument("--trials", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--max-n", type=int, default=10)
    q.set_defaults(func=_cmd_transform)

    p = sub.add_parser("enum", help="enumerate connected graphs up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("verify", help="verify extremality claims over a census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--mode", choices=[COMPONENT_MODE, NEIGHBOR_MODE], default=COMPONENT_MODE)
    p.add_argument("--delta", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--all-classes", action="store_true")
    p.add_argument(
        "--input",
        help=f"graph6 file covering the census (required for n > {GENERATOR_CAP})",
    )
    p.add_argument("--json", help="write reports to this JSON file")
    p.add_argument("--csv", help="write reports to this CSV file")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (default: 1)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, InfeasibleFamilyError, ValueError, OSError,
            ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return VERDICT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
