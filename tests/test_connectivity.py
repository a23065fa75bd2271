import pytest

from specconn import _kernels_py, kernels
from specconn.census import connected_census
from specconn.connectivity import (
    CutMode,
    CutQuery,
    is_valid_cut,
    min_cut,
    min_cut_values,
)
from specconn.families import Family, FamilyParams, construct
from specconn.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_profile,
    empty_graph,
    from_edges,
    graph6_encode,
    is_connected,
    mask_of,
    path_graph,
    permute,
    vertices_of,
)
from specconn.transforms import random_connected_graph
from specconn.verify import run_verification
from conftest import random_graph

FULL = CutMode.FULL


def test_cut_query_validation():
    with pytest.raises(ValueError):
        CutQuery(-1, 2)
    with pytest.raises(ValueError):
        CutQuery(0, 1)


def test_valid_cut_on_cycle():
    c6 = cycle_graph(6)
    cert = is_valid_cut(c6, mask_of([0, 3]), CutQuery(1, 2, FULL))
    assert cert is not None
    assert cert.component_sizes == (2, 2)
    assert cert.min_residual_degree == 1
    assert is_valid_cut(c6, mask_of([0, 2]), CutQuery(1, 2, FULL)) is None


def test_complete_graph_has_no_conditional_cut():
    k5 = complete_graph(5)
    q = CutQuery(0, 2, FULL)
    assert all(is_valid_cut(k5, f, q) is None for f in range(1, 1 << 5))
    assert min_cut(k5, q) is None
    assert min_cut(k5, CutQuery(1, 2, CutMode.NEIGHBOR)) is None


def test_min_cut_certificates_are_lex_least():
    result = min_cut(cycle_graph(5), CutQuery(0, 2, FULL))
    assert result.value == 2
    assert vertices_of(result.certificate.cut) == (0, 2)
    result = min_cut(cycle_graph(6), CutQuery(1, 2, FULL))
    assert result.value == 2
    assert vertices_of(result.certificate.cut) == (0, 3)


def test_family_graph_cut_matches_parameter():
    p = FamilyParams(Family.DELTAMG_G, 9, 2, 2, 1, 2)
    assert min_cut(construct(p), CutQuery(1, 2, FULL)).value == 2


def _kappa(g):
    return min_cut(g, CutQuery(mode=CutMode.CLASSIC)).value


def test_classic_connectivity():
    assert _kappa(cycle_graph(5)) == 2
    assert _kappa(complete_graph(5)) == 4  # single-vertex clause
    assert _kappa(complete_graph(2)) == 1
    assert _kappa(empty_graph(1)) == 0
    assert _kappa(path_graph(5)) == 1


def test_component_mode_accepts_small_leftovers():
    # deleting to fewer than r vertices counts
    result = min_cut(complete_graph(5), CutQuery(0, 3, CutMode.COMPONENT))
    assert result.value == 3
    result = min_cut(cycle_graph(5), CutQuery(0, 3, CutMode.COMPONENT))
    assert result.value == 3
    result = min_cut(cycle_graph(6), CutQuery(0, 3, CutMode.COMPONENT))
    assert result.value == 3  # {0,2,4} leaves three isolated vertices
    assert vertices_of(result.certificate.cut) == (0, 2, 4)


def test_neighbor_mode():
    assert min_cut(cycle_graph(6), CutQuery(1, 2, CutMode.NEIGHBOR)).value == 2
    # star: any cut containing the center isolates leaves; no cut avoids it
    assert min_cut(complete_bipartite(1, 5), CutQuery(1, 2, CutMode.NEIGHBOR)) is None


def test_connectivity_chain_on_random_graphs(rng):
    # kappa <= delta: deleting a vertex's neighbours isolates it
    for _ in range(1000):
        g = random_connected_graph(rng, rng.randint(2, 9))
        assert _kappa(g) <= degree_profile(g).min_degree


def test_certificate_soundness(rng):
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 8))
        query = CutQuery(rng.randint(0, 2), rng.randint(2, 3), CutMode(rng.randint(0, 3)))
        result = min_cut(g, query)
        if result is None:
            continue
        cert = is_valid_cut(g, result.certificate.cut, query)
        assert cert is not None
        assert cert == result.certificate
        assert result.value == result.certificate.cut.bit_count()


@pytest.mark.parametrize("n", range(2, 7))
def test_zero_good_two_component_cut_equals_classic(n):
    # on non-complete connected graphs the two notions coincide; neighbor
    # mode with threshold zero agrees as well
    for g in connected_census(n):
        if g.edge_count() == n * (n - 1) // 2:
            continue
        classic = min_cut(g, CutQuery(0, 2, CutMode.CLASSIC)).value
        full = min_cut(g, CutQuery(0, 2, FULL)).value
        neighbor = min_cut(g, CutQuery(0, 2, CutMode.NEIGHBOR)).value
        assert classic == full == neighbor


def test_zero_good_reduction_holds_at_order_eight():
    # the same identity over the full order-8 census
    census = [g for g in connected_census(8) if g.edge_count() < 28]
    classic = min_cut_values(census, CutQuery(0, 2, CutMode.CLASSIC))
    full = min_cut_values(census, CutQuery(0, 2, CutMode.FULL))
    assert None not in classic
    assert classic == full


def test_min_cut_values_match_min_cut(rng):
    for n in (2, 7, 9):
        graphs = [random_connected_graph(rng, n) for _ in range(60)] + [complete_graph(n)]
        for mode in CutMode:
            query = CutQuery(rng.randint(0, 2), rng.randint(2, 3), mode)
            want = [None if (cut := min_cut(h, query)) is None else cut.value for h in graphs]
            assert min_cut_values(graphs, query) == want
    assert min_cut_values([], CutQuery(1, 2)) == []


def test_min_cut_values_rejects_disconnected_and_mixed_orders():
    split = from_edges(5, [(0, 1), (2, 3), (3, 4)])
    lone = from_edges(5, [(1, 2), (2, 3), (3, 4)])
    # the error names the first disconnected graph
    for graphs in ([split], [path_graph(5), split], [path_graph(5)] * 3 + [split, lone]):
        with pytest.raises(ValueError) as exc:
            min_cut_values(graphs, CutQuery(1, 2))
        message = f"cut search expects a connected graph, got {graph6_encode(split)}"
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="orders 5 and 6"):
        min_cut_values([path_graph(5), path_graph(6)], CutQuery(1, 2))


@pytest.mark.parametrize("n", range(2, 7))
def test_cut_set_containment_is_literal(n):
    # every (g, r+1)-cut is a (g, r)-cut; every (g+1, r)-cut is a (g, r)-cut;
    # every (g, r)-cut is a neighbor cut with the same g
    for g in connected_census(n):
        for fmask in range(1, (1 << n) - 1):
            for gg in (0, 1):
                for r in (2, 3):
                    stronger_r = is_valid_cut(g, fmask, CutQuery(gg, r + 1, FULL))
                    stronger_g = is_valid_cut(g, fmask, CutQuery(gg + 1, r, FULL))
                    base = is_valid_cut(g, fmask, CutQuery(gg, r, FULL))
                    neighbor = is_valid_cut(g, fmask, CutQuery(gg, 2, CutMode.NEIGHBOR))
                    if stronger_r is not None:
                        assert base is not None
                    if stronger_g is not None:
                        assert base is not None
                    if base is not None:
                        assert neighbor is not None


@pytest.mark.parametrize("backend", ["c", "pure"])
def test_chunk_connectivity_check_on_both_backends(compiled, monkeypatch, backend):
    # one disconnected graph first, in the middle, last, and as the 129th
    # graph, past the pure kernel's first batch of 2^15 >> 8 = 128 graphs,
    # of a 512-graph chunk at n = 8: the whole chunk is refused before the
    # cut search, and so is a verify run over such a source
    module = compiled if backend == "c" else _kernels_py
    for name in ("min_cut_search", "min_cut_search_many"):
        monkeypatch.setattr(kernels, name, getattr(module, name))
    census = connected_census(8)[:511]
    lone_zero = from_edges(8, [(v, v + 1) for v in range(1, 7)])
    halves = from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    query = CutQuery(1, 2)
    for where in (0, 255, 511, 128):
        for bad in (lone_zero, halves):
            source = census[:where] + [bad] + census[where:]
            message = f"cut search expects a connected graph, got {graph6_encode(bad)}"
            with pytest.raises(ValueError) as exc:
                min_cut_values(source, query)
            assert str(exc.value) == message
            with pytest.raises(ValueError) as exc:
                run_verification(8, 1, 2, source=iter(source))
            assert str(exc.value) == message
    want = [None if (cut := min_cut(h, query)) is None else cut.value for h in census]
    assert min_cut_values(census, query) == want


def test_chunk_connectivity_check_matches_is_connected(rng):
    # rows are packed 8, 16, 32 or 64 bits per graph by order; past the
    # search cap a connected chunk gets as far as the kernel's order error
    for n in (1, 2, 5, 8, 9, 16, 17, 20, 32, 33, 64):
        graphs = [random_graph(rng, n, rng.random()) for _ in range(40)]
        # a path in random order floods over several sweeps
        graphs += [permute(path_graph(n), rng.sample(range(n), n)), complete_graph(n)]
        for h in graphs:
            try:
                min_cut_values([path_graph(n), h, path_graph(n)], CutQuery(1, 2))
            except ValueError as exc:
                message = f"cut search expects a connected graph, got {graph6_encode(h)}"
                connected = str(exc) != message
            else:
                connected = True
            assert connected == is_connected(h), (n, h)
