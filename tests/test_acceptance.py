"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on success (pytest always shows them on failure).
"""

import random
import time

from specconn.census import CONNECTED_COUNTS, connected_census
from specconn.connectivity import CutMode, CutQuery, min_cut
from specconn.families import (
    Family,
    FamilyParams,
    Shape,
    construct,
    feasibility_violations,
    verify_witness,
)
from specconn.graphs import complete_graph, degree_profile
from specconn.spectral import quotient_spectral_radius, spectral_radius
from specconn.transforms import (
    check_join_rebalance,
    fuzz_rotation_increase,
    fuzz_subgraph_monotonicity,
    random_connected_graph,
)
from specconn.verify import run_verification
from conftest import dense_rho


def report(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS - {detail}")


def test_a01_extremal_verification_zero_threshold():
    started = time.perf_counter()
    cells = 0
    for n in (6, 7):
        reports = run_verification(n, 0, 2)
        assert reports, f"no nonempty cells at n={n}"
        for rep in reports:
            assert rep.isomorphic is True, rep
            assert abs(rep.best_rho - rep.claimed_rho) <= 1e-8, rep
        cells += len(reports)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report("A1", f"g=0: n in {{6,7}}, {cells} class cells, all extremal claims hold "
                 f"({elapsed:.1f}s)")


def test_a02_extremal_verification_one_threshold_order_eight():
    started = time.perf_counter()
    census = connected_census(8)
    assert len(census) == CONNECTED_COUNTS[8] == 11117
    reports = run_verification(8, 1, 2, source=census)
    assert reports
    for rep in reports:
        assert rep.spec.in_hypothesis()
        assert rep.isomorphic is True, rep
        assert abs(rep.best_rho - rep.claimed_rho) <= 1e-8, rep
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    report("A2", f"g=1, n=8 over the {len(census)}-graph census: "
                 f"{len(reports)} cells, all extremal claims hold ({elapsed:.1f}s)")


def test_a03_neighbor_connectivity_verification_order_eight():
    started = time.perf_counter()
    reports = run_verification(8, 1, 2, mode="neighbor")
    assert reports
    for rep in reports:
        assert rep.isomorphic is True, rep
        assert abs(rep.best_rho - rep.claimed_rho) <= 1e-8, rep
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    report("A3", f"good-neighbor classes, g=1, n=8: {len(reports)} cells, "
                 f"all extremal claims hold ({elapsed:.1f}s)")


def test_a04_zero_good_cut_reduces_to_classic_connectivity():
    started = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        for g in connected_census(n):
            if g.edge_count() == n * (n - 1) // 2:
                continue  # complete: no conditional cut exists
            classic = min_cut(g, CutQuery(0, 2, CutMode.CLASSIC)).value
            full = min_cut(g, CutQuery(0, 2, CutMode.FULL)).value
            assert classic == full, g
            checked += 1
    report("A4", f"component cut with g=0 equals classic connectivity on all "
                 f"{checked} connected non-complete graphs of order <= 7 "
                 f"({time.perf_counter() - started:.1f}s)")


def test_a05_rotation_increase_fuzz():
    result = fuzz_rotation_increase(trials=1000, seed=2024, max_n=10)
    assert result.applicable == 1000
    assert result.violations == []
    assert result.min_margin > 1e-10
    report("A5", f"1000 applicable random rotations, zero violations, "
                 f"min increase {result.min_margin:.3e}, "
                 f"{result.disconnected_results} disconnected results")


def test_a06_subgraph_monotonicity_fuzz():
    result = fuzz_subgraph_monotonicity(trials=1000, seed=2025, max_n=10)
    assert result.applicable == 1000
    assert result.violations == []
    assert result.min_margin > 1e-10
    report("A6", f"1000 random edge-deletion and 1000 vertex-deletion pairs, "
                 f"strict decrease everywhere, min margin {result.min_margin:.3e}")


def _rebalance_instances():
    for s in (1, 2, 3):
        for t in (2, 3):
            for p in range(1, 13):
                for total in range(t * p, 13 - s):
                    for parts in _descending_partitions(total, t, p):
                        n = s + total
                        if n > 12:
                            continue
                        if parts[0] < n - s - p * (t - 1):
                            yield s, list(parts), p


def _descending_partitions(total, t, minimum):
    if t == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total + 1):
        for rest in _descending_partitions(total - first, t - 1, minimum):
            if rest[0] <= first:
                yield (first,) + rest


def test_a07_join_rebalance_sweep():
    count = 0
    worst = float("inf")
    for s, parts, p in _rebalance_instances():
        check = check_join_rebalance(s, parts, p)
        assert check.rho_after - check.rho_before > 1e-10
        worst = min(worst, check.rho_after - check.rho_before)
        count += 1
    assert count >= 30
    report("A7", f"join rebalancing sweep: {count} instances with n <= 12, "
                 f"strict increase everywhere, min margin {worst:.3e}")


def test_a08_spectral_exactness():
    for n in range(2, 51):
        got = spectral_radius(complete_graph(n)).rho
        assert abs(got - (n - 1)) <= 1e-10, n

    shapes = []
    for s in (1, 2, 3):
        for parts in [(1,), (4,), (7,), (1, 1), (3, 2), (5, 2), (4, 4), (6, 1),
                      (2, 2, 2), (5, 3, 1), (4, 2, 2), (3, 3, 3), (7, 2, 1),
                      (6, 3, 2), (5, 5, 1), (4, 3, 1), (2, 1, 1), (8, 1)]:
            shapes.append(Shape(s, parts))
    assert len(shapes) >= 50
    for shape in shapes:
        quotient = quotient_spectral_radius(shape)
        dense = spectral_radius(shape.build()).rho
        assert abs(quotient - dense) <= 1e-9, shape
        assert abs(quotient - dense_rho(shape.build())) <= 1e-9, shape

    rng = random.Random(321)
    regular_hits = 0
    for _ in range(1000):
        g = random_connected_graph(rng, rng.randint(2, 10))
        prof = degree_profile(g)
        rho = spectral_radius(g).rho
        assert prof.min_degree - 1e-9 <= rho <= prof.max_degree + 1e-9
        regular = prof.min_degree == prof.max_degree
        assert (abs(rho - prof.max_degree) <= 1e-9) == regular, g
        regular_hits += regular
    report("A8", f"complete-graph rho exact for n in 2..50; quotient vs dense "
                 f"within 1e-9 on {len(shapes)} shapes; degree bounds with "
                 f"regularity equality on 1000 random graphs ({regular_hits} regular)")


def test_a09_monotonicity_suite():
    started = time.perf_counter()
    compared = 0
    for n in range(2, 8):
        for graph in connected_census(n):
            component_value = {}
            for g in (0, 1, 2):
                for r in (2, 3, 4):
                    result = min_cut(graph, CutQuery(g, r, CutMode.FULL))
                    component_value[g, r] = None if result is None else result.value
            neighbor_value = {}
            for g in (0, 1):
                result = min_cut(graph, CutQuery(g, 2, CutMode.NEIGHBOR))
                neighbor_value[g] = None if result is None else result.value
            for g in (0, 1):
                for r in (2, 3):
                    base = component_value[g, r]
                    if base is None:
                        continue
                    more_parts = component_value[g, r + 1]
                    if more_parts is not None:
                        assert base <= more_parts, (graph, g, r)
                        compared += 1
                    stronger = component_value[g + 1, r]
                    if stronger is not None:
                        assert base <= stronger, (graph, g, r)
                        compared += 1
                    if neighbor_value[g] is not None:
                        assert neighbor_value[g] <= base, (graph, g, r)
                        compared += 1
    report("A9", f"cut-value monotonicity on all connected graphs of order <= 7: "
                 f"{compared} comparisons hold ({time.perf_counter() - started:.1f}s)")


def test_a10_family_self_verification_grid():
    started = time.perf_counter()
    per_family = {f: 0 for f in Family}
    for family in Family:
        for n in range(5, 11):
            for k in range(1, 6):
                for delta in range(1, 9):
                    for g in range(0, 6):
                        for r in (2, 3, 4):
                            p = FamilyParams(family, n, k, delta, g, r)
                            if feasibility_violations(p):
                                continue
                            graph = construct(p)
                            assert degree_profile(graph).min_degree == delta, p
                            result = min_cut(graph, CutQuery(g, r, CutMode.FULL))
                            assert result is not None and result.value == k, p
                            assert verify_witness(p), p
                            per_family[family] += 1
    total = sum(per_family.values())
    assert all(count > 0 for count in per_family.values()), per_family
    counts = ", ".join(f"{f.value}={per_family[f]}" for f in Family)
    report("A10", f"{total} feasible family instances with n <= 10 all have "
                  f"min degree delta and cut value k ({counts}; "
                  f"{time.perf_counter() - started:.1f}s)")


def test_a11_extremal_verification_three_and_four_components():
    grid = [(n, g, r) for n in (6, 7) for g in (0, 1) for r in (3, 4)]
    grid += [(8, 0, 3), (8, 0, 4)]
    sources = {n: connected_census(n) for n in (6, 7, 8)}
    started = time.perf_counter()
    cells = claims = 0
    for n, g, r in grid:
        # some (n, g, r) have no nonempty class: n is too small for r parts
        for rep in run_verification(n, g, r, source=sources[n]):
            assert rep.confirmed, rep
            cells += 1
            claims += rep.claimed_family is not None
    elapsed = time.perf_counter() - started
    assert claims > 0
    assert elapsed < 60
    report("A11", f"r in {{3,4}}: g in {{0,1}} at n in {{6,7}} and g=0 at n=8, "
                  f"{cells} class cells ({claims} with a claim), all confirmed "
                  f"({elapsed:.1f}s)")
