import math
import sys

import pytest

from specconn.graphs import (
    add_edges,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_profile,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_connected,
    path_graph,
    permute,
)
from specconn.families import Family, FamilyParams, Shape, construct
from specconn.spectral import (
    DisconnectedGraphError,
    SpectralResult,
    iteration_cap,
    perron_compare,
    quotient_spectral_radius,
    rho_bounds,
    spectral_radius,
)
from specconn.transforms import random_connected_graph
from conftest import dense_rho, random_graph


def test_complete_graph_rho():
    # rho(K_m) = m - 1
    assert spectral_radius(complete_graph(8)).rho == pytest.approx(7, abs=1e-10)


def test_regular_graph_rho_is_degree():
    assert spectral_radius(cycle_graph(4)).rho == pytest.approx(2, abs=1e-12)


def test_star_rho_is_sqrt_of_leaves():
    # characteristic polynomial of K_{1,m} gives rho = sqrt(m)
    assert spectral_radius(complete_bipartite(1, 4)).rho == pytest.approx(2.0, abs=1e-10)
    assert spectral_radius(complete_bipartite(1, 9)).rho == pytest.approx(3.0, abs=1e-10)


def test_path_rho_closed_form():
    # rho(P_n) = 2 cos(pi / (n+1))
    for n in (2, 5, 9, 30):
        want = 2 * math.cos(math.pi / (n + 1))
        assert spectral_radius(path_graph(n)).rho == pytest.approx(want, abs=1e-10)


def test_against_dense_eigensolver(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        res = spectral_radius(g)
        assert res.rho == pytest.approx(dense_rho(g), abs=1e-9)
        assert res.residual <= 1e-12 * max(1.0, res.rho)


def test_result_shape_on_connected_graph():
    res = spectral_radius(cycle_graph(7))
    assert isinstance(res, SpectralResult)
    assert len(res.perron) == 7
    assert all(x > 0 for x in res.perron)
    assert sum(x * x for x in res.perron) == pytest.approx(1.0, abs=1e-12)


def test_disconnected_takes_max_over_components():
    g = disjoint_union(cycle_graph(4), complete_graph(5))
    res = spectral_radius(g)
    assert res.rho == pytest.approx(4, abs=1e-10)
    assert all(x == 0 for x in res.perron[:4])
    assert all(x > 0 for x in res.perron[4:])
    assert spectral_radius(empty_graph(3)).rho == 0.0


def test_result_bracket_holds_rho_at_any_tol(rng):
    # the bracket of the returned iterates, the max over components of each
    # end, holds numpy's lambda1 and the returned rho however loose the
    # solve; at the default tol it is as tight as the residual
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 14), rng.choice((0.15, 0.4)))
        exact = dense_rho(g)
        for tol in (1e-12, 1e-4, 0.5):
            res = spectral_radius(g, tol)
            assert res.lower <= exact <= res.upper, (g, tol)
            assert res.lower <= res.rho <= res.upper, (g, tol)
        assert spectral_radius(g).upper - spectral_radius(g).lower < 1e-9
    res = spectral_radius(disjoint_union(cycle_graph(4), complete_graph(5)), 0.5)
    assert res.lower <= 4.0 <= res.upper < 4.0 + 1e-12  # K5's regular bracket
    assert spectral_radius(empty_graph(3)).upper == 0.0


def test_tolerance_validation():
    for tol in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as exc:
            spectral_radius(cycle_graph(4), tol=tol)
        assert str(exc.value) == f"tolerance must be positive and finite, got {tol!r}"
    # a subnormal tol still gets a finite iteration cap (1 / tol overflows)
    assert spectral_radius(cycle_graph(4), tol=1e-310).rho == 2.0


def test_rho_bounds_decide_component_by_component():
    # C4 (rho 2) is the first component, K5 (rho 4) the second; both are
    # regular, so the first iterate is their Perron vector
    g = disjoint_union(cycle_graph(4), complete_graph(5))
    below = rho_bounds(g, 3.0)  # C4 clears below, K5 above
    assert below.components == 2
    assert 3.0 < below.lower <= 4.0 <= below.upper < 4.0 + 1e-12
    early = rho_bounds(g, 1.0)  # C4 clears above and K5 is never solved
    assert 1.0 < early.lower <= 2.0 and early.upper == math.inf
    above = rho_bounds(g, 5.0)  # both clear below
    assert 4.0 <= above.upper < 5.0
    tied = rho_bounds(g, 4.0)  # K5's bracket holds 4: it converged
    assert tied.lower <= 4.0 <= tied.upper
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError) as exc:
            rho_bounds(g, 3.0, tol=tol)
        assert str(exc.value) == f"tolerance must be positive and finite, got {tol!r}"


def test_rho_bounds_hold_the_dense_rho(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 14), rng.choice((0.15, 0.4)))
        exact = dense_rho(g)
        for t in (exact - 1e-7, exact + 1e-7, exact / 2, exact + 1.0, spectral_radius(g).rho):
            bounds = rho_bounds(g, t)
            assert bounds.lower <= exact <= bounds.upper, (g, t)
            if bounds.lower <= t <= bounds.upper:
                # a bracket that holds t converged, so t lies within its
                # width of the dense rho
                assert t == pytest.approx(exact, abs=1e-9)


def test_iteration_cap_floors_tol_at_machine_epsilon():
    eps = sys.float_info.epsilon
    assert iteration_cap(5, 1e-300) == iteration_cap(5, eps) == 36043
    assert iteration_cap(64, 1e-300) == 461358
    # tolerances above epsilon keep their cap
    assert iteration_cap(5, 1e-12) == int(200 * 5 * -math.log(1e-12))


def test_min_max_degree_bounds(rng):
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(2, 10))
        prof = degree_profile(g)
        rho = spectral_radius(g).rho
        assert prof.min_degree - 1e-9 <= rho <= prof.max_degree + 1e-9
        regular = prof.min_degree == prof.max_degree
        assert (abs(rho - prof.max_degree) <= 1e-9) == regular


def test_quotient_single_clique():
    assert quotient_spectral_radius(Shape(0, (8,))) == pytest.approx(7, abs=1e-12)
    assert quotient_spectral_radius(Shape(3, (5,))) == pytest.approx(7, abs=1e-12)


def test_quotient_path_three_vertices():
    # K_1 v (K_1 u K_1) is the path on 3 vertices: lambda^3 - 2 lambda
    got = quotient_spectral_radius(Shape(1, (1, 1)))
    assert got == pytest.approx(math.sqrt(2), abs=1e-12)


def test_quotient_agrees_with_dense():
    got = quotient_spectral_radius(Shape(2, (3, 2)))
    g = Shape(2, (3, 2)).build()
    assert got == pytest.approx(spectral_radius(g).rho, abs=1e-9)
    assert got == pytest.approx(dense_rho(g), abs=1e-9)


def test_quotient_dense_grid():
    shapes = []
    for s in (1, 2, 3):
        for parts in [(4,), (3, 2), (4, 1), (2, 2, 2), (5, 3, 1), (3, 3, 3, 3)]:
            shapes.append(Shape(s, parts))
    assert len(shapes) >= 15
    for shape in shapes:
        g = shape.build()
        assert quotient_spectral_radius(shape) == pytest.approx(
            spectral_radius(g).rho, abs=1e-9
        ), shape


def test_quotient_with_several_subdominant_roots():
    # regression: several quotient eigenvalues exceed the min row sum here;
    # naive sign bisection from that bracket lands on the wrong root
    shape = Shape(1, (9, 8, 4, 3, 3, 3))
    g = shape.build()
    assert quotient_spectral_radius(shape) == pytest.approx(dense_rho(g), abs=1e-9)


def test_quotient_fuzz_large_shapes(rng):
    for _ in range(200):
        s = rng.randint(1, 6)
        t = rng.randint(1, 8)
        parts = tuple(sorted((rng.randint(1, 9) for _ in range(t)), reverse=True))
        if s + sum(parts) > 64:
            continue
        shape = Shape(s, parts)
        got = quotient_spectral_radius(shape)
        assert got == pytest.approx(dense_rho(shape.build()), abs=1e-9), shape


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape(0, (2, 2))  # disconnected
    with pytest.raises(ValueError):
        Shape(-1, (2,))
    with pytest.raises(ValueError):
        Shape(1, ())
    with pytest.raises(ValueError):
        Shape(1, (0,))
    # the pendant vertex u: isolated, or missing a part of a coreless shape
    with pytest.raises(ValueError, match="disconnected"):
        Shape(2, (3,), ())
    with pytest.raises(ValueError, match="disconnected"):
        Shape(0, (3, 2, 2), ((1, 1), (2, 1)))
    # a target block outside 0..t, and a count outside 1..|block|
    for pendant in [((3, 1),), ((-1, 1),), ((1, 0),), ((1, 4),), ((0, 3),)]:
        with pytest.raises(ValueError, match="pendant"):
            Shape(2, (3, 2), pendant)
    # one block named twice: the same graph as Shape(2, (3, 2), ((1, 2),))
    for pendant in [((1, 1), (1, 2)), ((0, 1), (2, 1), (0, 1))]:
        with pytest.raises(ValueError, match="twice"):
            Shape(2, (3, 2), pendant)
    # core 0 is connected when u reaches every part (the zero-delta layout)
    for shape, order in [(Shape(0, (3, 2, 2), ((1, 2), (2, 1), (3, 1))), 8),
                         (Shape(0, (3,), ((1, 1),)), 4)]:
        assert shape.n == shape.build().n == order
        assert is_connected(shape.build())
    # the secular equation covers pendant-free shapes only
    with pytest.raises(ValueError, match="pendant"):
        quotient_spectral_radius(Shape(2, (3, 2), ((0, 1),)))


def test_perron_compare_star():
    star = complete_bipartite(1, 4)
    verdict = perron_compare(star, 0, 1)
    assert verdict.relation == "nested"
    assert verdict.x_u > verdict.x_v
    # two leaves are twins
    assert perron_compare(star, 1, 2).relation == "twin"


def test_perron_compare_complete_graph():
    verdict = perron_compare(complete_graph(4), 0, 3)
    assert verdict.relation == "twin"
    assert verdict.x_u == pytest.approx(verdict.x_v, abs=1e-9)


def test_perron_compare_family_clique_parts():
    p = FamilyParams(Family.DELTA_0, 8, 3, 2, 1, 2)
    g = construct(p)
    # the two vertices of the last small clique part
    verdict = perron_compare(g, 6, 7)
    assert verdict.relation == "twin"


def test_perron_compare_validation():
    with pytest.raises(ValueError):
        perron_compare(cycle_graph(4), 1, 1)
    with pytest.raises(DisconnectedGraphError):
        perron_compare(disjoint_union(cycle_graph(3), cycle_graph(3)), 0, 1)


def test_perron_compare_rejects_vertices_outside_the_graph():
    for u, v, bad in ((4, 0, 4), (-1, 0, -1), (0, 7, 7), (2, -3, -3)):
        with pytest.raises(ValueError, match=rf"^vertex {bad} is not in 0\.\.3$"):
            perron_compare(cycle_graph(4), u, v)


def test_perron_incomparable_pair():
    # P_4 endpoints vs middles with crossed neighborhoods
    verdict = perron_compare(path_graph(4), 0, 2)
    assert verdict.relation == "incomparable"


def test_edge_addition_strictly_increases_rho(rng):
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(3, 10))
        missing = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not missing:
            continue
        extra = missing[rng.randrange(len(missing))]
        bigger = add_edges(g, [extra])
        assert spectral_radius(bigger).rho > spectral_radius(g).rho + 1e-10


def test_vertex_deletion_strictly_decreases_rho(rng):
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(3, 10))
        victim = rng.randrange(g.n)
        sub = induced_subgraph(g, g.vertex_mask & ~(1 << victim))
        assert spectral_radius(sub).rho < spectral_radius(g).rho - 1e-10


def test_twin_classes_in_join_families():
    # all vertices of one clique part share the same Perron entry
    for shape in [Shape(2, (4, 2)), Shape(1, (3, 3, 2)), Shape(3, (5, 1))]:
        g = shape.build()
        x = spectral_radius(g).perron
        start = shape.core
        for size in shape.parts:
            part = x[start : start + size]
            assert max(part) - min(part) <= 1e-9
            start += size
        core = x[: shape.core]
        if core:
            assert max(core) - min(core) <= 1e-9


def test_permutation_invariance_of_rho(rng):
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert spectral_radius(permute(g, perm)).rho == pytest.approx(
            spectral_radius(g).rho, abs=1e-11
        )
