import dataclasses
import math
import random

import pytest

from specconn import transforms
from specconn.census import connected_census
from specconn.graphs import (
    complete_bipartite,
    cycle_graph,
    complete_graph,
    components,
    from_edges,
    graph6_decode,
    is_connected,
    mask_of,
    path_graph,
    remove_edges,
    vertices_of,
)
from specconn.spectral import DEFAULT_TOL, ViolationError, spectral_radius
from specconn.transforms import (
    HOST_TOL,
    PERRON_TIE_TOL,
    STRICT_MARGIN,
    RotationSpec,
    _decide,
    _Host,
    _rotation_check,
    _subgraph_check,
    check_join_rebalance,
    check_rotation_increase,
    check_subgraph_monotonicity,
    fuzz_rotation_increase,
    fuzz_subgraph_monotonicity,
    random_connected_graph,
    rotate,
)
from conftest import _edge_list_connected_graph, dense_rho, random_graph


def test_rotate_path_example():
    g = path_graph(4)
    got = rotate(g, RotationSpec(1, 2, mask_of([3])))
    assert sorted(got.edges()) == [(0, 1), (1, 2), (1, 3)]


def test_rotate_cycle_example():
    got = rotate(cycle_graph(5), RotationSpec(0, 2, mask_of([3])))
    assert sorted(got.edges()) == [(0, 1), (0, 3), (0, 4), (1, 2), (3, 4)]


def test_rotate_validation():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        rotate(g, RotationSpec(0, 2, 0))  # empty moved set
    with pytest.raises(ValueError):
        rotate(g, RotationSpec(0, 2, mask_of([1])))  # 1 is already N(0)
    with pytest.raises(ValueError):
        rotate(g, RotationSpec(0, 2, mask_of([4])))  # 4 not a neighbor of 2
    with pytest.raises(ValueError):
        rotate(g, RotationSpec(0, 0, mask_of([3])))
    # moved may not contain an endpoint
    g2 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError):
        rotate(g2, RotationSpec(0, 2, mask_of([0, 3])))


def test_rotate_rejects_endpoints_outside_the_graph():
    g = cycle_graph(5)
    for u, v, bad in ((9, 0, 9), (-1, 0, -1), (0, 5, 5), (1, -2, -2)):
        with pytest.raises(ValueError, match=rf"^vertex {bad} is not in 0\.\.4$"):
            rotate(g, RotationSpec(u, v, mask_of([1])))
        with pytest.raises(ValueError, match=rf"^vertex {bad} is not in 0\.\.4$"):
            check_rotation_increase(g, RotationSpec(u, v, mask_of([1])))


def test_rotate_preserves_edge_count_and_inverts(rng):
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(4, 9))
        u, v = rng.sample(range(g.n), 2)
        movable = g.adj[v] & ~g.adj[u] & ~(1 << u) & ~(1 << v)
        if not movable:
            continue
        spec = RotationSpec(u, v, movable)
        star = rotate(g, spec)
        assert star.edge_count() == g.edge_count()
        assert star.degree(u) == g.degree(u) + movable.bit_count()
        assert star.degree(v) == g.degree(v) - movable.bit_count()
        for w in range(g.n):
            if w not in (u, v):
                assert star.degree(w) == g.degree(w)
        assert rotate(star, RotationSpec(v, u, movable)) == g


def test_rotation_on_symmetric_cycle_increases_rho():
    # x(0) = x(2) on the cycle, so the move applies and must raise rho
    check = check_rotation_increase(cycle_graph(5), RotationSpec(0, 2, mask_of([3])))
    assert check.applicable
    assert check.rho_after > check.rho_before + 1e-10
    assert check.x_u == pytest.approx(check.x_v, abs=1e-9)


def test_rotation_vacuous_on_twins():
    # leaves of a star have identical neighborhoods: nothing to move
    star = complete_bipartite(1, 4)
    assert star.adj[2] & ~star.adj[1] & ~2 & ~4 == 0
    with pytest.raises(ValueError):
        rotate(star, RotationSpec(1, 2, 0))


def test_rotation_inapplicable_when_target_entry_smaller():
    # moving toward the low-entry endpoint of a star makes x(u) < x(v)
    star = complete_bipartite(1, 4)
    g = from_edges(6, list(star.edges()) + [(1, 5)])
    # u = leaf 2 (small entry), v = center 0 (large entry)
    movable = g.adj[0] & ~g.adj[2] & ~(1 << 2) & ~1
    check = check_rotation_increase(g, RotationSpec(2, 0, movable))
    assert not check.applicable
    assert check.rho_after is None


def test_rotation_rejects_a_disconnected_host():
    # K4 + P3: the Perron vector is 0 on the path, so its entries tie and
    # say nothing about the pair; the check refuses the host as the
    # monotonicity check does
    g = graph6_decode("FgCWw")
    assert len(components(g)) == 2
    with pytest.raises(ValueError, match="^the host graph must be connected$"):
        check_rotation_increase(g, RotationSpec(0, 1, mask_of([2])))


def test_monotonicity_examples():
    check = check_subgraph_monotonicity(complete_graph(5), complete_graph(4))
    assert check.rho_sub == pytest.approx(3, abs=1e-10)
    assert check.rho_super == pytest.approx(4, abs=1e-10)
    check = check_subgraph_monotonicity(cycle_graph(6), path_graph(6))
    assert check.rho_sub < 2 - 1e-6


def test_monotonicity_validation():
    with pytest.raises(ValueError):
        check_subgraph_monotonicity(cycle_graph(5), cycle_graph(5))  # not proper
    with pytest.raises(ValueError):
        check_subgraph_monotonicity(path_graph(4), cycle_graph(4))  # extra edge
    with pytest.raises(ValueError):
        check_subgraph_monotonicity(remove_edges(cycle_graph(4), [(0, 1)]), path_graph(3))


def test_rebalance_example_and_boundary():
    check = check_join_rebalance(2, [3, 3], 2)
    assert check.balanced_parts == (4, 2)
    assert check.rho_after > check.rho_before + 1e-10
    with pytest.raises(ValueError):
        check_join_rebalance(1, [2, 2, 2], 2)  # largest part not below bound
    with pytest.raises(ValueError):
        check_join_rebalance(1, [2, 3], 2)  # not descending
    with pytest.raises(ValueError):
        check_join_rebalance(1, [3, 1], 2)  # part below p


def test_rebalance_rejects_p_below_one():
    # checked before the parts, so the error names p, not a clique part
    for p in (0, -1):
        with pytest.raises(ValueError, match=rf"^p must be >= 1, got {p}$"):
            check_join_rebalance(1, [3, 2], p)


def test_rebalance_agrees_with_dense_comparison():
    check = check_join_rebalance(2, [3, 3], 2)
    from specconn.families import Shape

    before = spectral_radius(Shape(2, (3, 3)).build()).rho
    after = spectral_radius(Shape(2, (4, 2)).build()).rho
    assert check.rho_before == pytest.approx(before, abs=1e-9)
    assert check.rho_after == pytest.approx(after, abs=1e-9)


def test_rotation_connectivity_flag_matches_flood():
    # result_connected is read off the rotated graph's component flood
    rng = random.Random(34)
    seen = set()
    for _ in range(1500):
        n = rng.randint(3, 16)
        g = random_connected_graph(rng, n)
        u, v = rng.sample(range(n), 2)
        movable = g.adj[v] & ~g.adj[u] & ~(1 << u) & ~(1 << v)
        if not movable:
            continue
        pool = vertices_of(movable)
        chosen = [w for w in pool if rng.random() < 0.6] or [pool[0]]
        spec = RotationSpec(u, v, mask_of(chosen))
        check = check_rotation_increase(g, spec)
        if check.applicable:
            assert check.result_connected == is_connected(rotate(g, spec)), (g, spec)
            seen.add(check.result_connected)
    assert seen == {True, False}


def test_rotation_fuzz_small():
    report = fuzz_rotation_increase(trials=200, seed=11, max_n=9)
    assert report.ok
    assert report.applicable == 200
    assert report.min_margin > 1e-10


def test_monotonicity_fuzz_small():
    report = fuzz_subgraph_monotonicity(trials=200, seed=13, max_n=9)
    assert report.ok
    assert report.min_margin > 1e-10


def test_fuzz_rejects_max_n_outside_the_orders_it_draws():
    for fuzz, smallest in ((fuzz_rotation_increase, 4), (fuzz_subgraph_monotonicity, 3)):
        for max_n in (smallest - 1, 0, -5, 65):
            with pytest.raises(ValueError) as exc:
                fuzz(trials=1, seed=0, max_n=max_n)
            assert str(exc.value) == (f"fuzz orders start at {smallest}, "
                                      f"so max_n must be in {smallest}..64, got {max_n}")
        assert fuzz(trials=1, seed=0, max_n=smallest).ok


def test_fuzz_rejects_trials_below_one():
    # a run of no trials would report a pass that checked nothing
    for fuzz in (fuzz_rotation_increase, fuzz_subgraph_monotonicity):
        for trials in (0, -3):
            with pytest.raises(ValueError) as exc:
                fuzz(trials=trials, seed=0, max_n=5)
            assert str(exc.value) == f"trials must be >= 1, got {trials}"


def test_random_connected_graph_is_connected(rng):
    for _ in range(200):
        assert is_connected(random_connected_graph(rng, rng.randint(2, 12)))


def test_random_connected_graph_matches_edge_list_construction():
    # the same rng calls in the same order give the same graph
    for seed in range(200):
        for n in range(1, 17):
            ours, theirs = random.Random(seed * 17 + n), random.Random(seed * 17 + n)
            assert random_connected_graph(ours, n) == _edge_list_connected_graph(theirs, n)
            assert ours.getstate() == theirs.getstate()


def test_checks_decide_as_the_converged_comparison_does():
    # about 1,000 rotations and 1,000 edge and vertex deletions at n <= 12:
    # each check passes exactly when the float comparison of the two
    # converged rhos passes, and a certified bound lies on its side of
    # numpy's lambda1
    rng = random.Random(2400)
    rotations = deletions = certified = 0
    while rotations < 1000:
        n = rng.randint(4, 12)
        g = random_connected_graph(rng, n)
        u, v = rng.sample(range(n), 2)
        movable = g.adj[v] & ~g.adj[u] & ~(1 << u)
        if not movable:
            continue
        spec = RotationSpec(u, v, movable & -movable | rng.getrandbits(n) & movable)
        check = check_rotation_increase(g, spec)
        if not check.applicable:
            continue
        rotations += 1
        star = rotate(g, spec)
        before = spectral_radius(g).rho
        assert spectral_radius(star).rho > before + STRICT_MARGIN
        assert check.rho_before == before
        assert check.result_connected == is_connected(star)
        if check.certified:
            certified += 1
            assert check.rho_after <= dense_rho(star)
    while deletions < 1000:
        g = random_connected_graph(rng, rng.randint(3, 12))
        victim = rng.randrange(g.n)
        for h in (remove_edges(g, [rng.choice(sorted(g.edges()))]),
                  remove_edges(g, [(victim, w) for w in vertices_of(g.adj[victim])])):
            check = check_subgraph_monotonicity(g, h)
            deletions += 1
            rho_super = spectral_radius(g).rho
            assert spectral_radius(h).rho < rho_super - STRICT_MARGIN
            assert check.rho_super == rho_super
            if check.certified:
                certified += 1
                assert check.rho_sub >= dense_rho(h)
    assert certified > 1900


def test_decision_raises_as_the_converged_comparison_does():
    # thresholds at and one step either side of the converged rho, where the
    # brackets rarely clear: holds is the float comparison every time
    rng = random.Random(2401)
    outcomes = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 12), rng.choice((0.2, 0.5)))
        rho = spectral_radius(g).rho
        for t in (rho, math.nextafter(rho, 0.0), math.nextafter(rho, math.inf),
                  rho - 1e-9, rho + 1e-9):
            for above in (True, False):
                holds, value, certified, comps = _decide(g, t, above)
                assert holds == (rho > t if above else rho < t), (g, t, above)
                assert comps == len(components(g))
                if not certified:
                    assert value == rho
                outcomes.add((holds, certified))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_nested_and_twin_pairs_are_inapplicable_in_the_census():
    # the rotation fuzz skips these pairs before any solve: in every
    # connected graph with n <= 7, each such ordered pair either has nothing
    # to move from v to u or moves toward the smaller Perron entry
    skipped = 0
    for n in range(2, 8):
        for g in connected_census(n):
            perron = spectral_radius(g).perron
            for u in range(n):
                for v in range(n):
                    nu, nv = g.adj[u] & ~(1 << v), g.adj[v] & ~(1 << u)
                    if u == v or (nu & nv) not in (nu, nv):
                        continue
                    skipped += 1
                    movable = g.adj[v] & ~g.adj[u] & ~(1 << u)
                    assert not movable or perron[u] < perron[v] - PERRON_TIE_TOL, (g, u, v)
    assert skipped > 10000


def test_monotonicity_fuzz_decides_each_subgraph(monkeypatch):
    # a violation in the edge deletion still lets the vertex deletion of the
    # same trial be checked and recorded; the trial counts once
    calls = []
    decide = transforms._subgraph_check

    def planted(h, host):
        calls.append(h)
        if len(calls) % 2:
            raise ViolationError("planted")
        return decide(h, host)

    monkeypatch.setattr(transforms, "_subgraph_check", planted)
    report = fuzz_subgraph_monotonicity(trials=20, seed=3, max_n=9)
    assert report.applicable == report.trials == 20
    assert len(calls) == 40
    assert report.violations == ["planted"] * 20
    assert 1e-10 < report.min_margin < math.inf


@pytest.mark.parametrize("seed, rotation, monotonicity", [
    (0, (158, 100, 0, 3, "0x1.8595f45b80000p-14"), (100, 100, 0, 0, "0x1.25b0be0b36000p-9")),
    (1, (172, 100, 0, 4, "0x1.ba1480c7aa000p-11"), (100, 100, 0, 0, "0x1.9c644074a0000p-13")),
    (2, (154, 100, 0, 5, "0x1.7203dbf18e000p-10"), (100, 100, 0, 0, "0x1.a6b0c31e00000p-17")),
])
def test_fuzz_reports_are_pinned_to_the_bit(seed, rotation, monotonicity):
    # the trials each harness draws and the certified margins it reports,
    # to the bit: a change to the eigen path that moves any bound shows here
    for fuzz, expected in ((fuzz_rotation_increase, rotation),
                           (fuzz_subgraph_monotonicity, monotonicity)):
        report = fuzz(100, seed, 16)
        got = (report.trials, report.applicable, len(report.violations),
               report.disconnected_results, report.min_margin.hex())
        assert got == expected, (fuzz.__name__, seed)


def _recorded_checks(monkeypatch):
    """Run both harnesses at n <= 12, recording each check with the host's
    tolerance and result as the check saw them, and its result after."""
    rotations, deletions = [], []

    def record(check, log):
        def recorder(first, second):
            host = first if isinstance(first, _Host) else second
            tol, before = host.tol, host.result
            out = check(first, second)
            log.append((first, second, tol, before, host.result, out))
            return out
        return recorder

    monkeypatch.setattr(transforms, "_rotation_check", record(_rotation_check, rotations))
    monkeypatch.setattr(transforms, "_subgraph_check", record(_subgraph_check, deletions))
    assert fuzz_rotation_increase(1000, 2600, 12).ok
    assert fuzz_subgraph_monotonicity(500, 2601, 12).ok
    return rotations, deletions


def test_loose_host_checks_report_bounds_on_their_side_of_the_gap(monkeypatch):
    # 2,000 harness checks decided against loose hosts: every host bracket
    # holds numpy's lambda1, every certified bound lies on its side of it,
    # and every certified margin lies below the true gap
    rotations, deletions = _recorded_checks(monkeypatch)
    assert len(rotations) >= 1000 and len(deletions) == 1000
    loose = certified = 0
    for host, spec, tol, before, after, check in rotations:
        rho = dense_rho(host.g)
        for res in (before, after):
            assert res.lower <= rho <= res.upper
        loose += tol == HOST_TOL
        if not check.applicable:
            continue
        star = dense_rho(rotate(host.g, spec))
        if check.certified:
            certified += 1
            assert check.rho_after <= star
            assert check.margin == check.rho_after - before.upper
            assert check.margin <= star - rho
        else:
            assert check.margin == pytest.approx(star - rho, abs=1e-9)
    for h, host, tol, before, after, check in deletions:
        rho = dense_rho(host.g)
        for res in (before, after):
            assert res.lower <= rho <= res.upper
        loose += tol == HOST_TOL
        sub = dense_rho(h)
        if check.certified:
            certified += 1
            assert check.rho_sub >= sub
            assert check.margin == before.lower - check.rho_sub
            assert check.margin <= rho - sub
        else:
            assert check.margin == pytest.approx(rho - sub, abs=1e-9)
    assert loose > 1800 and certified > 1900


def test_fuzz_counts_survive_hosts_too_loose_to_decide(monkeypatch):
    # at HOST_TOL = 0.5 the host brackets often fail to decide, so the
    # checks converge their hosts; the harnesses draw and decide the same
    # trials as at the default
    def counts(report):
        assert report.ok
        return (report.trials, report.applicable, len(report.violations),
                report.disconnected_results)

    runs = ((fuzz_rotation_increase, 300, 31), (fuzz_subgraph_monotonicity, 300, 32))
    default = [counts(fuzz(trials, seed, 16)) for fuzz, trials, seed in runs]
    resolved = []
    converged = _Host.converged

    def spy(self):
        resolved.append(self.tol != DEFAULT_TOL)
        return converged(self)

    monkeypatch.setattr(transforms, "HOST_TOL", 0.5)
    monkeypatch.setattr(_Host, "converged", spy)
    loose = []
    for fuzz, trials, seed in runs:
        resolved.clear()
        loose.append(counts(fuzz(trials, seed, 16)))
        assert sum(resolved) > 50, fuzz.__name__
    assert loose == default


def test_checks_converge_a_host_they_cannot_decide():
    # a loose host whose bracket cannot decide is converged inside the
    # check, which then reports as the public check does
    g = from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5)])
    spec = RotationSpec(1, 2, mask_of([3]))
    host = _Host(g, 0.5)
    assert host.result.upper - host.result.lower > 0.1
    check = _rotation_check(host, spec)
    assert host.tol == DEFAULT_TOL and host.result == spectral_radius(g)
    assert check == check_rotation_increase(g, spec)
    assert check.applicable
    h = remove_edges(g, [(0, 1)])
    host = _Host(g, 0.5)
    assert check_subgraph_monotonicity(g, h).margin < host.result.upper - host.result.lower
    check = _subgraph_check(h, host)
    assert host.tol == DEFAULT_TOL
    assert check == check_subgraph_monotonicity(g, h)


def test_rotation_check_drops_a_pair_the_converged_host_reverses():
    # a loose Perron order that the converged host reverses makes the check
    # inapplicable, not a violation
    star = complete_bipartite(1, 4)
    g = from_edges(6, list(star.edges()) + [(1, 5)])
    spec = RotationSpec(2, 0, g.adj[0] & ~g.adj[2] & ~(1 << 2) & ~1)
    host = _Host(g, 0.5)
    x = list(host.result.perron)
    x[0], x[2] = x[2], x[0]
    host.result = dataclasses.replace(host.result, perron=tuple(x))
    check = _rotation_check(host, spec)
    assert not check.applicable and check.rho_after is None
    assert host.tol == DEFAULT_TOL


def test_rotation_fuzz_counts_only_applicable_checks(monkeypatch):
    # a check that the converged host made inapplicable is a trial, not an
    # applicable one
    default = fuzz_rotation_increase(50, 7, 12)
    calls = []

    def dropping(host, spec):
        check = _rotation_check(host, spec)
        calls.append(check)
        return dataclasses.replace(check, applicable=False) if len(calls) % 2 else check

    monkeypatch.setattr(transforms, "_rotation_check", dropping)
    report = fuzz_rotation_increase(50, 7, 12)
    assert report.ok and report.applicable == 50 and len(calls) == 100
    assert report.trials > default.trials


def test_host_rho_outside_its_bracket_is_a_violation(monkeypatch):
    # the checks read the host's bracket, so a solver that returns a rho
    # outside it is reported, by the public checks and by the harnesses
    solve = transforms.spectral_radius

    def planted(g, *args):
        res = solve(g, *args)
        return dataclasses.replace(res, rho=res.rho - 1.0)

    monkeypatch.setattr(transforms, "spectral_radius", planted)
    with pytest.raises(ViolationError, match="lies outside its bracket"):
        check_subgraph_monotonicity(complete_graph(5), complete_graph(4))
    with pytest.raises(ViolationError, match="lies outside its bracket"):
        check_rotation_increase(cycle_graph(5), RotationSpec(0, 2, mask_of([3])))
    assert len(fuzz_rotation_increase(20, 1, 9).violations) == 20
    assert len(fuzz_subgraph_monotonicity(20, 2, 9).violations) == 40
