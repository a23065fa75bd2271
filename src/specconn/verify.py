"""Exhaustive extremal verification over graph classes, with reports.

A class fixes (n, delta, g, r, k): connected graphs of order n with minimum
degree delta whose good-neighbor component connectivity (mode "component")
or good-neighbor connectivity (mode "neighbor", the r = 2 specialization;
other r are rejected) equals k. NEIGHBOR is FULL at r = 2 (CutMode), so
both modes classify by CutQuery(g, r) and differ only in the reports'
label. The pipeline classifies every graph of a census, finds the
rho-maximizer of each class, builds the claimed extremal family for the
same parameters, and records whether the maximizer is isomorphic to it
with matching rho. Reports record facts; they never assume the claim.

The cut-size lemma: a cut of CutQuery(g, r) leaves at least r components,
and every survivor keeps at least g neighbours, so each component has at
least g + 1 vertices and the cut at most n - r(g+1). A nonempty class
therefore meets the paper's hypothesis n >= k + r(g+1), and each member
has n >= r(g+1) + 1 >= 3, so it has no isolated vertex. An explicit cell
outside the hypothesis is empty and is a usage error.

Ties are broken on canonical form (lexicographically least wins), so
results are independent of --jobs. The scan reads the source in chunks of
SCAN_CHUNK graphs and finds every graph's k with one call of
connectivity.min_cut_values per chunk (the pure kernel decides 2^15 >> n
graphs per set of truth tables). With one job the chunks are scanned in
turn as they are read, so the source is never held whole; with more, a
process pool scans them and returns only the cut sizes, with at most
2 * jobs chunks submitted and not yet returned. Either way one generator
(_scanned) yields each chunk with its sizes in input order, and the parent
keeps the member graphs themselves, grouped per (delta, k) cell, so a
member's position in its cell is its input order. Only the cells a run
reports are ranked. Canonical forms are computed per cell, for the graphs
tied at exactly the best rho and for the isomorphism check, and graph6 only
for the graphs a report names.

A report needs only each cell's best rho, the members tied at it, and the
second-best rho, so rho is solved only for members that could still be one
of those. Every member is connected (min_cut_values rejects others), so its
rho is at most Hong's bound sqrt(2m - n + 1) (Y. Hong, Linear Algebra Appl.
108, 1988). Members are visited in descending bound, and the visit stops at
the first whose bound plus a slack of 1e-9*max(1, bound) falls below the
second-best rho solved so far: the solver's Rayleigh quotient never exceeds
the true rho by more than rounding, which the slack covers, so that member
and every later one has a computed rho below the second best and can change
neither the best, its ties, nor the second best. Before a member is solved,
a second bound is checked: rho is at most the largest, over the vertices v,
of the sum of the degrees of v's neighbours divided by d_v, for a graph with
no isolated vertex (O. Favaron, M. Maheo and J.-F. Sacle, Discrete Math.
111, 1993). A member whose bound, with the same slack, is below the second
best is skipped, and the walk goes on: the second best only rises, so the
skipped member could change none of the three. Ties keep their input
position, so among equal canonical forms the first in input order wins.
"""

import csv
import json
import math
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

from .census import connected_census
from .connectivity import CutQuery, min_cut, min_cut_values
from .families import InfeasibleFamilyError, claimed_extremal, construct
from .graphs import Graph, canonical_form, degree_profile, graph6_encode, vertices_of
from .spectral import spectral_radius

RHO_TOL = 1e-8

# source graphs per min_cut_values call
SCAN_CHUNK = 512

COMPONENT_MODE = "component"
NEIGHBOR_MODE = "neighbor"


@dataclass(frozen=True)
class ClassSpec:
    n: int
    delta: int
    g: int
    r: int
    k: int

    def in_hypothesis(self) -> bool:
        return self.n >= self.k + self.r * (self.g + 1)


@dataclass
class _CellBest:
    """Best rho of a cell, the members tied at exactly that rho as (position,
    graph), position the member's input order, and the best rho below it;
    population counts every member, solved or not."""

    population: int = 0
    rho: float | None = None
    tied: list[tuple[int, Graph]] = field(default_factory=list)
    below: float | None = None

    def add(self, rho: float, position: int, graph: Graph) -> None:
        if self.rho is None or rho > self.rho:
            self.below = self.rho
            self.rho = rho
            self.tied = [(position, graph)]
        elif rho == self.rho:
            self.tied.append((position, graph))
        elif self.below is None or rho > self.below:
            self.below = rho

    def second_rho(self) -> float | None:
        return self.rho if len(self.tied) > 1 else self.below

    def best(self) -> tuple[str, str]:
        """(canonical form, graph6) of the best member. On an exact rho tie
        the least canonical form wins, so the choice does not depend on the
        order of the members (among equal forms, the first in input order
        wins)."""
        canon, _, graph = min(
            (canonical_form(graph), position, graph) for position, graph in self.tied
        )
        return canon, graph6_encode(graph)


@dataclass
class VerificationReport:
    spec: ClassSpec
    mode: str
    population: int
    best_rho: float | None
    best_graph6: str | None
    best_canonical: str | None
    claimed_family: str | None
    claimed_rho: float | None
    claimed_graph6: str | None
    isomorphic: bool | None
    second_best_rho: float | None
    warnings: list[str]

    @property
    def confirmed(self) -> bool:
        """True when the extremality claim holds (vacuously for empty cells).
        Every warning is an anomaly, so any warning fails it."""
        if self.population == 0:
            return True
        if self.warnings:
            return False
        assert self.best_rho is not None and self.claimed_rho is not None
        return bool(self.isomorphic) and abs(self.best_rho - self.claimed_rho) <= RHO_TOL

    def to_dict(self) -> dict:
        return {
            "schema": 2,
            "mode": self.mode,
            "class": {
                "n": self.spec.n,
                "delta": self.spec.delta,
                "g": self.spec.g,
                "r": self.spec.r,
                "k": self.spec.k,
            },
            "population": self.population,
            "best": None
            if self.best_rho is None
            else {"rho": self.best_rho, "graph6": self.best_graph6},
            "claimed": None
            if self.claimed_family is None
            else {
                "family": self.claimed_family,
                "rho": self.claimed_rho,
                "graph6": self.claimed_graph6,
            },
            "isomorphic": self.isomorphic,
            "second_best_rho": self.second_best_rho,
            "warnings": list(self.warnings),
        }


def run_verification(
    n: int,
    g: int,
    r: int,
    mode: str = COMPONENT_MODE,
    source: Iterable[Graph] | None = None,
    cells: list[tuple[int, int]] | None = None,
    jobs: int = 1,
) -> list[VerificationReport]:
    """Verify the extremality claims over a census.

    cells: explicit (delta, k) cells, or None for every nonempty cell found.
    source: any iterable of graphs covering all isomorphism classes of
    connected graphs of order n; defaults to the built-in census (n <= 9).
    A source that yields no graph is a ValueError, as is jobs < 1.
    """
    if mode not in (COMPONENT_MODE, NEIGHBOR_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == NEIGHBOR_MODE and r != 2:
        raise ValueError(f"neighbor mode is the r = 2 specialization; got r = {r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for delta, k in cells or ():
        spec = ClassSpec(n, delta, g, r, k)
        if not spec.in_hypothesis():
            raise ValueError(
                f"class {spec} is outside the hypothesis n >= k + r(g+1); "
                "by the cut-size lemma no graph is in it"
            )
    graphs = _of_order(source if source is not None else connected_census(n), n)
    members: dict[tuple[int, int], list[Graph]] = {}
    scanned = 0
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        for chunk, values in _scanned(graphs, CutQuery(g, r), pool, 2 * jobs):
            scanned += len(chunk)
            for h, k in zip(chunk, values):
                if k is not None:
                    delta = min(map(int.bit_count, h.adj))
                    members.setdefault((delta, k), []).append(h)
    if not scanned:
        raise ValueError(f"the source holds no graph of order {n}")

    wanted = sorted(members) if cells is None else [(delta, k) for delta, k in cells]
    buckets = {cell: _cell_best(n, members[cell]) for cell in wanted if cell in members}
    return [
        _cell_report(ClassSpec(n, delta, g, r, k), mode, buckets.get((delta, k)))
        for delta, k in wanted
    ]


def _of_order(graphs: Iterable[Graph], n: int) -> Iterator[Graph]:
    for h in graphs:
        if h.n != n:
            raise ValueError(f"source contains a graph of order {h.n}, expected {n}")
        yield h


def _scanned(
    graphs: Iterator[Graph],
    query: CutQuery,
    pool: ProcessPoolExecutor | None,
    window: int,
) -> Iterator[tuple[list[Graph], list[int | None]]]:
    """Each chunk of SCAN_CHUNK graphs, in input order, with its
    min_cut_values. Without a pool each chunk is scanned before the next is
    read; with one, at most `window` chunks are submitted and not yet
    returned, so that the source is read only as fast as the pool works
    through it. As with pool.map, an error cancels the chunks not yet
    started."""
    chunks = iter(lambda: list(islice(graphs, SCAN_CHUNK)), [])
    if pool is None:
        for chunk in chunks:
            yield chunk, min_cut_values(chunk, query)
        return
    pending: deque[tuple[list[Graph], Future]] = deque()
    try:
        for chunk in chunks:
            if len(pending) == window:
                done, future = pending.popleft()
                yield done, future.result()
            pending.append((chunk, pool.submit(min_cut_values, chunk, query)))
        while pending:
            done, future = pending.popleft()
            yield done, future.result()
    finally:
        for _, future in pending:
            future.cancel()


def _cell_best(n: int, group: list[Graph]) -> _CellBest:
    """Best, ties and second best of one cell's members (in input order),
    solving rho only while the Hong bound can still reach the second best,
    and only for members whose neighbour-degree bound can."""
    cell = _CellBest(population=len(group))
    edges = [h.edge_count() for h in group]
    # descending m is descending bound: every member has order n
    for position in sorted(range(len(group)), key=edges.__getitem__, reverse=True):
        bound = math.sqrt(2 * edges[position] - n + 1)
        second = cell.second_rho()
        if second is not None and _below(bound, second):
            break
        member = group[position]
        if second is not None and _below(_neighbour_degree_bound(member), second):
            continue
        cell.add(spectral_radius(member).rho, position, member)
    return cell


def _below(bound: float, second: float) -> bool:
    """Whether a rho bound, with the solver's slack, is below the second best."""
    return bound + 1e-9 * max(1.0, bound) < second


def _neighbour_degree_bound(h: Graph) -> float:
    """max over v of (sum of the degrees of v's neighbours) / d_v, an upper
    bound on rho for a graph with no isolated vertex."""
    degrees = [row.bit_count() for row in h.adj]
    return max(
        sum(map(degrees.__getitem__, vertices_of(row))) / degree
        for row, degree in zip(h.adj, degrees)
    )


def _cell_report(spec: ClassSpec, mode: str, cell: _CellBest | None) -> VerificationReport:
    warnings: list[str] = []
    population = cell.population if cell else 0
    best_rho = best_g6 = best_canon = None
    second = None
    if cell:
        best_rho, second = cell.rho, cell.second_rho()
        best_canon, best_g6 = cell.best()

    claimed_family = claimed_rho = claimed_g6 = None
    isomorphic = None
    if population > 0:
        try:
            params = claimed_extremal(spec.n, spec.k, spec.delta, spec.g, spec.r)
            claimed = construct(params)
        except (InfeasibleFamilyError, ValueError) as exc:
            warnings.append(f"anomaly: claimed family infeasible for nonempty class ({exc})")
        else:
            claimed_family = params.family.value
            claimed_rho = spectral_radius(claimed).rho
            claimed_g6 = graph6_encode(claimed)
            isomorphic = canonical_form(claimed) == best_canon
            member_k = _claimed_membership(claimed, spec)
            if member_k != spec.k or degree_profile(claimed).min_degree != spec.delta:
                warnings.append(
                    f"anomaly: claimed family graph not in its own class "
                    f"(classified as k={member_k})"
                )
            if best_rho < claimed_rho - RHO_TOL:
                warnings.append(
                    "anomaly: claimed family exceeds every class member's rho"
                )
    return VerificationReport(
        spec=spec,
        mode=mode,
        population=population,
        best_rho=best_rho,
        best_graph6=best_g6,
        best_canonical=best_canon,
        claimed_family=claimed_family,
        claimed_rho=claimed_rho,
        claimed_graph6=claimed_g6,
        isomorphic=isomorphic,
        second_best_rho=second,
        warnings=warnings,
    )


def _claimed_membership(claimed: Graph, spec: ClassSpec) -> int | None:
    result = min_cut(claimed, CutQuery(spec.g, spec.r))
    return result.value if result else None


# ---------------------------------------------------------------------------
# persistence

CSV_COLUMNS = [
    "schema",
    "mode",
    "n",
    "delta",
    "g",
    "r",
    "k",
    "population",
    "best_rho",
    "best_graph6",
    "claimed_family",
    "claimed_rho",
    "claimed_graph6",
    "isomorphic",
    "second_best_rho",
    "warnings",
]


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([rep.to_dict() for rep in reports], indent=2) + "\n"


def write_json(reports: list[VerificationReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(reports_to_json(reports))


def write_csv(reports: list[VerificationReport], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            d = rep.to_dict()
            writer.writerow(
                [
                    d["schema"],
                    d["mode"],
                    d["class"]["n"],
                    d["class"]["delta"],
                    d["class"]["g"],
                    d["class"]["r"],
                    d["class"]["k"],
                    d["population"],
                    "" if d["best"] is None else repr(d["best"]["rho"]),
                    "" if d["best"] is None else d["best"]["graph6"],
                    "" if d["claimed"] is None else d["claimed"]["family"],
                    "" if d["claimed"] is None else repr(d["claimed"]["rho"]),
                    "" if d["claimed"] is None else d["claimed"]["graph6"],
                    "" if d["isomorphic"] is None else d["isomorphic"],
                    "" if d["second_best_rho"] is None else repr(d["second_best_rho"]),
                    ";".join(d["warnings"]),
                ]
            )
