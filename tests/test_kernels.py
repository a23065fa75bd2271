"""Parity between the compiled kernels and the pure-Python fallback.

`compiled` is the C extension built by setup.py into a temp dir (see
conftest). The pure-Python module is the oracle, except for
`min_cut_search` and `min_cut_search_many`: both backends' searches are
checked against `conftest._brute_min_cut`, which tests every candidate set
in order with the pure `cut_valid`, the one reference predicate (the C
extension does not export one).
"""

import random

import numpy as np
import pytest

from specconn import _kernels_py
from specconn import kernels
from specconn.census import connected_census
from specconn.connectivity import CutMode, CutQuery, min_cut
from specconn.graphs import complete_graph, path_graph, vertices_of
from specconn.spectral import iteration_cap
from conftest import _brute_min_cut, _loop_power_iteration, _pairwise_neighbours, random_graph

TOP_BIT = 1 << 63
NAN = float("nan")


def test_backend_is_reported(compiled):
    assert kernels.BACKEND in ("c", "pure")
    assert _kernels_py.BACKEND == "pure"
    assert compiled.BACKEND == "c"


def test_keyword_arguments(compiled):
    # every kernel is positional-only: keyword calls raise TypeError on both
    # backends, and so do calls with too few or too many arguments
    adj = (0b110, 0b101, 0b011, 0b10000, 0b01000)
    for module in (compiled, _kernels_py):
        assert module.components_masks(adj, 5, 0b001) == [0b110, 0b11000]
        assert module.components_masks(adj, 5) == [0b111, 0b11000]
        assert module.min_cut_search(adj, 5, 0, 2, 0) == 0
        assert module.min_cut_search_many([adj, adj], 5, 0, 2, 0) == [0, 0]
        # x is indexed by vertex, 0.0 off the component; a NaN threshold
        # is none
        rho, x, _, _, ok, lower, upper = module.power_iteration(adj, 5, 0b111, 1e-12, 100, NAN)
        assert ok and rho == pytest.approx(2.0) and len(x) == 5
        assert x[3] == x[4] == 0.0
        assert lower <= 2.0 <= upper
        assert module.power_iteration(adj, 5, 0b1000, 1e-12, 100, NAN) == \
            (0.0, [0.0, 0.0, 0.0, 1.0, 0.0], 0, 0.0, True, 0.0, 0.0)
        for call in (
            lambda: module.components_masks(adj, 5, removed=0b001),
            lambda: module.components_masks(adj, n=5),
            lambda: module.min_cut_search(adj, 5, 0, 2, mode=0),
            lambda: module.min_cut_search_many(adjs=[adj], n=5, g=0, r=2, mode=0),
            lambda: module.power_iteration(adj, 5, 0b111, 1e-12, max_iter=100),
            lambda: module.power_iteration(adj, 5, 0b111, 1e-12, 100, threshold=NAN),
            # wrong arity
            lambda: module.components_masks(adj),
            lambda: module.components_masks(adj, 5, 0, 0),
            lambda: module.min_cut_search(adj, 5, 0, 2),
            lambda: module.min_cut_search_many([adj], 5, 0, 2, 0, 0),
            lambda: module.power_iteration(adj, 5, 0b111, 1e-12, 100),
            lambda: module.power_iteration(adj, 5, 0b111, 1e-12, 100, NAN, NAN),
        ):
            with pytest.raises(TypeError):
                call()
    assert not hasattr(compiled, "cut_valid")
    assert kernels.cut_valid is _kernels_py.cut_valid
    assert _kernels_py.cut_valid(adj, 5, 0, 0, 2, 0)
    with pytest.raises(TypeError):
        _kernels_py.cut_valid(adj, 5, 0, 0, 2, mode=0)


def test_components_parity(compiled, rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 16), rng.random())
        removed = rng.randrange(1 << g.n)
        assert compiled.components_masks(g.adj, g.n, removed) == \
            _kernels_py.components_masks(g.adj, g.n, removed)


def test_components_parity_order_64(compiled, rng):
    for p in (0.02, 0.05, 0.1, 0.5):
        g = random_graph(rng, 64, p)
        for removed in (0, TOP_BIT, rng.randrange(1 << 64), rng.randrange(1 << 63)):
            out = compiled.components_masks(g.adj, 64, removed)
            assert out == _kernels_py.components_masks(g.adj, 64, removed)
            assert any(comp & TOP_BIT for comp in out) == (not removed & TOP_BIT)


def test_min_cut_parity(compiled, rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        gg = rng.randint(0, 2)
        r = rng.randint(2, 3)
        for mode in range(4):
            assert compiled.min_cut_search(g.adj, g.n, gg, r, mode) == \
                _kernels_py.min_cut_search(g.adj, g.n, gg, r, mode)


# every connected graph of order <= 7 is searched in all four modes, and
# with a g or an r the mode ignores at ordinary values: (2, 3, 0), (2, 3, 1)
# and (1, 4, 2)
SMALL_QUERIES = [(0, 2, 0), (2, 3, 0), (0, 2, 1), (0, 3, 1), (2, 3, 1)]
SMALL_QUERIES += [(g, 2, 2) for g in range(3)] + [(1, 4, 2)]
SMALL_QUERIES += [(g, r, 3) for g in range(3) for r in (2, 3, 4)]


@pytest.fixture(scope="module")
def small_cuts():
    """{(n, g, r, mode): _brute_min_cut of each connected graph of order n}."""
    return {
        (n, *query): [_brute_min_cut(h.adj, n, *query) for h in connected_census(n)]
        for n in range(1, 8)
        for query in SMALL_QUERIES
    }


def test_capped_min_cut_matches_uncapped_search(compiled, small_cuts):
    # good-neighbor modes stop at size n - need*(g+1); on every connected
    # graph of order <= 7 that gives the mask of the search over all sizes
    # (modes 0 and 1 have no cap and are checked the same way)
    for (n, g, r, mode), want in small_cuts.items():
        for h, cut in zip(connected_census(n), want):
            for module in (compiled, _kernels_py):
                assert module.min_cut_search(h.adj, n, g, r, mode) == cut, \
                    (module.BACKEND, h, g, r, mode)


def _in_batches(module, adjs, size, n, g, r, mode):
    out = []
    for start in range(0, len(adjs), size):
        out += module.min_cut_search_many(adjs[start:start + size], n, g, r, mode)
    return out


def test_min_cut_search_many_matches_brute_force(compiled, small_cuts):
    # batches of 1, of an odd size, of the pure kernel's width W and of
    # W + 1; for the last two the census is repeated past W + 1 graphs, so
    # the pure kernel splits a batch into tables of W graphs and fewer
    for (n, g, r, mode), want in small_cuts.items():
        census = [h.adj for h in connected_census(n)]
        width = _kernels_py._batch_width(n)
        laps = width // len(census) + 2
        for module in (compiled, _kernels_py):
            for size in (1, 7):
                assert _in_batches(module, census, size, n, g, r, mode) == want, \
                    (module.BACKEND, n, g, r, mode, size)
            for size in (width, width + 1):
                assert _in_batches(module, census * laps, size, n, g, r, mode) == \
                    want * laps, (module.BACKEND, n, g, r, mode, size)


def test_min_cut_search_many_mixes_members_and_non_members(compiled, rng):
    # disconnected, sparse, dense and complete graphs in one batch: some
    # have a cut and some none, and each gets its own
    for n in (8, 11):
        graphs = [complete_graph(n), path_graph(n)]
        graphs += [random_graph(rng, n, rng.choice([0.1, 0.3, 0.6, 0.9])) for _ in range(40)]
        adjs = [h.adj for h in graphs]
        mixed = 0
        for g, r, mode in ((0, 2, 0), (0, 3, 1), (1, 2, 2), (1, 2, 3), (2, 3, 3)):
            want = [_kernels_py.min_cut_search(adj, n, g, r, mode) for adj in adjs]
            mixed += -1 in want and max(want) >= 0
            for module in (compiled, _kernels_py):
                assert module.min_cut_search_many(adjs, n, g, r, mode) == want, \
                    (module.BACKEND, n, g, r, mode)
                assert module.min_cut_search_many(adjs[::-1], n, g, r, mode) == want[::-1]
        assert mixed >= 2
    assert all(_brute_min_cut(adj, 11, 1, 2, 3) == cut
               for adj, cut in zip(adjs, _kernels_py.min_cut_search_many(adjs, 11, 1, 2, 3)))


def test_batch_gates_are_built_once_per_pair(rng):
    # the gate of (v, u) is that of (u, v): built once and shared, with the
    # same common neighbours and the same gates, in the same order, as
    # building each from v's rows
    census = connected_census(8)
    batches = [rng.sample(census, 128) for _ in range(3)]
    batches += [[random_graph(rng, n, rng.random()) for _ in range(rng.randrange(2, 40))]
                for n in (3, 5, 11) for _ in range(3)]
    for batch in batches:
        n = batch[0].n
        adjs = [h.adj for h in batch]
        common, gated = _kernels_py._neighbours(adjs, n)
        assert (common, gated) == _pairwise_neighbours(adjs, n)
        for v, gates in enumerate(gated):
            for u, gate in gates:
                assert any(w == v and other is gate for w, other in gated[u])


def test_min_cut_search_many_rejects_bad_input(compiled):
    for module in (compiled, _kernels_py):
        assert module.min_cut_search_many([], 5, 1, 2, 3) == []
        assert module.min_cut_search_many((), 20, 1, 2, 3) == []
    for n, message in ((-1, "n must be in 1..64, got -1"), (0, "n must be in 1..64, got 0"),
                       (65, "n must be in 1..64, got 65"),
                       (21, "exhaustive cut search is capped at 20 vertices, got n = 21")):
        for adjs in ([], [[0] * 66], [[0] * 66] * 3):
            for module in (compiled, _kernels_py):
                with pytest.raises(ValueError) as exc:
                    module.min_cut_search_many(adjs, n, 1, 2, 3)
                assert str(exc.value) == message
    # a graph with too few rows anywhere in the batch
    for bad in range(3):
        adjs = [[0b10, 0b101, 0b1010, 0b10100, 0b1000]] * 3
        adjs[bad] = [0b10, 0b101, 0b10, 0]
        for module in (compiled, _kernels_py):
            with pytest.raises(ValueError) as exc:
                module.min_cut_search_many(adjs, 5, 1, 2, 3)
            assert str(exc.value) == "adj has 4 rows, fewer than n = 5"


def test_min_cut_matches_brute_force_on_order_8_sample(compiled):
    sample = random.Random(8).sample(connected_census(8), 500)
    queries = [(g, r, mode) for mode in range(4) for g in range(3) for r in (2, 3)]
    for h in sample:
        for g, r, mode in queries:
            want = _brute_min_cut(h.adj, 8, g, r, mode)
            for module in (compiled, _kernels_py):
                assert module.min_cut_search(h.adj, 8, g, r, mode) == want, \
                    (module.BACKEND, h, g, r, mode)


def test_min_cut_matches_brute_force_past_order_8(compiled, rng):
    graphs = [path_graph(12), complete_graph(12)]
    graphs += [random_graph(rng, rng.randint(9, 12), rng.choice([0.3, 0.5, 0.8]))
               for _ in range(30)]
    for h in graphs:
        for mode in range(4):
            g, r = rng.randint(0, 2), rng.randint(2, 3)
            want = _brute_min_cut(h.adj, h.n, g, r, mode)
            for module in (compiled, _kernels_py):
                assert module.min_cut_search(h.adj, h.n, g, r, mode) == want, \
                    (module.BACKEND, h, g, r, mode)


def test_min_cut_order_cap(compiled):
    assert compiled.SEARCH_MAX_N == _kernels_py.SEARCH_MAX_N == kernels.SEARCH_MAX_N
    n = kernels.SEARCH_MAX_N + 1
    messages = set()
    for module in (compiled, _kernels_py):
        with pytest.raises(ValueError) as exc:
            module.min_cut_search([0] * n, n, 0, 2, 0)
        messages.add(str(exc.value))
        # order 20 is searched: an edgeless graph is cut by the empty set
        assert module.min_cut_search([0] * (n - 1), n - 1, 0, 2, 0) == 0
    assert messages == {f"exhaustive cut search is capped at {n - 1} vertices, got n = {n}"}


def test_min_cut_cap_with_threshold_past_int_range(compiled):
    # need*(g+1) does not fit in a C int: no size is admissible
    int_max = 2**31 - 1
    adj = (0b110, 0b101, 0b011, 0b10000, 0b01000)
    for g, r in ((int_max, 2), (int_max, int_max), (int_max // 2, 3)):
        for mode in (2, 3):
            assert compiled.min_cut_search(adj, 5, g, r, mode) == \
                _kernels_py.min_cut_search(adj, 5, g, r, mode) == -1
    # modes 0 and 1 ignore g, so the cap never applies there
    assert compiled.min_cut_search(adj, 5, int_max, 2, 0) == 0


def test_thresholds_past_c_int_range_give_one_answer(compiled, monkeypatch):
    # g or r of 2^31 or more no longer overflows the C kernel's int: both
    # kernels clamp them to SEARCH_MAX_N + 1, which gives the same cut, so
    # 2^31 and 2^70 answer alike on both backends, as the brute-force
    # search with the unclamped values does
    graphs = connected_census(5)
    for huge_g, huge_r in ((True, False), (False, True), (True, True)):
        for mode in range(4):
            want = None
            for big in (2**31, 2**70):
                g, r = (big if huge_g else 1), (big if huge_r else 2)
                query = CutQuery(g, r, CutMode(mode))
                brute = [_brute_min_cut(h.adj, 5, g, r, mode) for h in graphs]
                for module in (compiled, _kernels_py):
                    monkeypatch.setattr(kernels, "min_cut_search", module.min_cut_search)
                    got = (
                        [module.min_cut_search(h.adj, 5, g, r, mode) for h in graphs],
                        module.min_cut_search_many([h.adj for h in graphs], 5, g, r, mode),
                        [cut.certificate.cut if (cut := min_cut(h, query)) else -1
                         for h in graphs],
                    )
                    assert got == (brute, brute, brute), (module.BACKEND, g, r, mode)
                    if want is None:
                        want = got
                    assert got == want


def _assert_power_parity(compiled, g, comps):
    # the same floating-point operations in the same order: the same bits
    cap = iteration_cap(g.n, 1e-12)
    for comp in comps:
        got = compiled.power_iteration(g.adj, g.n, comp, 1e-12, cap, NAN)
        assert got[4]
        assert got == _kernels_py.power_iteration(g.adj, g.n, comp, 1e-12, cap, NAN)


def test_power_iteration_parity(compiled, rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 12), 0.5)
        _assert_power_parity(compiled, g, _kernels_py.components_masks(g.adj, g.n, 0))


def test_power_iteration_parity_order_64(compiled, rng):
    for p in (0.1, 0.3, 0.6):
        g = random_graph(rng, 64, p)
        comps = [c for c in _kernels_py.components_masks(g.adj, 64, 0) if c & TOP_BIT]
        assert comps
        _assert_power_parity(compiled, g, comps)


@pytest.mark.parametrize(
    "name, rest",
    [
        ("components_masks", (0,)),
        ("cut_valid", (1, 1, 2, 3)),
        ("min_cut_search", (1, 2, 3)),
        ("power_iteration", (1, 1e-12, 100, NAN)),
    ],
)
def test_bad_order_raises(compiled, name, rest):
    # the cut search also stops at kernels.SEARCH_MAX_N = 20; cut_valid is
    # the pure reference predicate only
    bad = (-1, 0, 65) + ((21,) if name == "min_cut_search" else ())
    for module in (_kernels_py,) if name == "cut_valid" else (compiled, _kernels_py):
        fn = getattr(module, name)
        for n in bad:
            with pytest.raises(ValueError):
                fn([0] * 66, n, *rest)
        with pytest.raises(ValueError):
            fn([0] * 3, 4, *rest)


@pytest.mark.parametrize("name", ["cut_valid", "min_cut_search", "min_cut_search_many"])
def test_bad_mode_raises(compiled, name):
    # a mode code outside 0..3 is checked after n and the search's order
    # cap and before the rows, with the same message on both backends
    def call(module, n, mode, rows):
        adj = [0] * rows
        if name == "cut_valid":
            return module.cut_valid(adj, n, 0b1, 1, 2, mode)
        if name == "min_cut_search":
            return module.min_cut_search(adj, n, 1, 2, mode)
        return module.min_cut_search_many([adj], n, 1, 2, mode)

    cases = [(5, mode, 5, f"mode must be in 0..3, got {mode}") for mode in (-1, 4, 5)]
    cases += [(5, 5, 3, "mode must be in 0..3, got 5"),
              (0, 5, 5, "n must be in 1..64, got 0"),
              (65, 4, 66, "n must be in 1..64, got 65")]
    if name != "cut_valid":
        cases.append((21, -1, 21, "exhaustive cut search is capped at 20 vertices, got n = 21"))
    for module in (_kernels_py,) if name == "cut_valid" else (compiled, _kernels_py):
        for n, mode, rows, message in cases:
            with pytest.raises(ValueError) as exc:
                call(module, n, mode, rows)
            assert str(exc.value) == message, (module.BACKEND, n, mode, rows)
        for mode in range(4):
            call(module, 5, mode, 5)


def test_power_iteration_rejects_vertices_outside_the_graph(compiled):
    adj = [0b10, 0b01]
    for module in (compiled, _kernels_py):
        for comp in (0, 0b100, TOP_BIT):
            with pytest.raises(ValueError):
                module.power_iteration(adj, 2, comp, 1e-12, 100, NAN)


@pytest.mark.parametrize("name", ["cut_valid", "min_cut_search", "min_cut_search_many"])
def test_negative_threshold_raises(compiled, name):
    # a negative g or r, however far below the C int range, is checked
    # after n and the search's order cap and before the mode and the rows,
    # with the same message on both backends
    def call(module, n, g, r, mode, rows):
        adj = (0b11110, 1, 1, 1, 1)[:rows]
        if name == "cut_valid":
            return module.cut_valid(adj, n, 0b1, g, r, mode)
        if name == "min_cut_search":
            return module.min_cut_search(adj, n, g, r, mode)
        return module.min_cut_search_many([adj], n, g, r, mode)

    cases = []
    for low in (-1, -2**31, -2**31 - 1, -2**70):
        cases += [(5, low, 2, 3, 5, f"g must be >= 0, got {low}"),
                  (5, 1, low, 3, 5, f"r must be >= 0, got {low}"),
                  (5, low, low, 0, 5, f"g must be >= 0, got {low}"),
                  (5, 1, low, 7, 2, f"r must be >= 0, got {low}"),
                  (0, low, low, 7, 2, "n must be in 1..64, got 0")]
    if name != "cut_valid":
        cases.append((21, -1, -1, 3, 5, "exhaustive cut search is capped at 20 vertices, got n = 21"))
    for module in (_kernels_py,) if name == "cut_valid" else (compiled, _kernels_py):
        for n, g, r, mode, rows, message in cases:
            with pytest.raises(ValueError) as exc:
                call(module, n, g, r, mode, rows)
            assert str(exc.value) == message, (module.BACKEND, n, g, r, mode)
        # zero is a threshold like any other
        for mode in range(4):
            call(module, 5, 0, 0, mode, 5)


def _power_cases(rng):
    """(adj, n, comp_mask) at every order 1-64: each component of a random
    graph, sparse enough at some orders to be disconnected, and then the
    union of its components and a random vertex set, which need not be
    connected either."""
    for n in range(1, 65):
        g = random_graph(rng, n, (0.04, 0.15, 0.5)[n % 3])
        comps = _kernels_py.components_masks(g.adj, n, 0)
        masks = comps + [g.vertex_mask, rng.getrandbits(n) or 1]
        for mask in masks:
            yield g.adj, n, mask


def _scattered_oracle(adj, n, comp_mask, tol, max_iter, threshold):
    """_loop_power_iteration with its x, listed over the component's
    vertices in ascending order, scattered into a list indexed by vertex."""
    rho, local, *rest = _loop_power_iteration(adj, n, comp_mask, tol, max_iter, threshold)
    x = [0.0] * n
    for v, xv in zip(vertices_of(comp_mask), local):
        x[v] = xv
    return rho, x, *rest


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
def test_power_iteration_matches_five_loop_oracle(rng, tol):
    # the one-pass loop runs the five loops' floating-point operations in
    # their order, so every field compares equal, the floats included
    for adj, n, mask in _power_cases(rng):
        args = (adj, n, mask, tol, 2000, NAN)
        assert _kernels_py.power_iteration(*args) == _scattered_oracle(*args), (n, mask)


def test_power_iteration_loose_tolerances_match_oracle(rng):
    # tolerances far past the solver's, and zero: the residual test stops at
    # the first entry over the bound and still decides as the full maximum
    for tol in (1e-3, 0.5, 10.0, 0.0):
        for adj, n, mask in _power_cases(rng):
            args = (adj, n, mask, tol, 40, NAN)
            assert _kernels_py.power_iteration(*args) == _scattered_oracle(*args)


def test_power_iteration_nan_tolerance_never_converges(compiled, rng):
    # a NaN tolerance fails every residual test, on both backends and in the
    # oracle: the run stops at the cap
    for n in (2, 5, 9, 17):
        g = random_graph(rng, n, 0.5)
        for mask in _kernels_py.components_masks(g.adj, n, 0):
            args = (g.adj, n, mask, NAN, 30, NAN)
            got = _kernels_py.power_iteration(*args)
            assert got == compiled.power_iteration(*args) == _scattered_oracle(*args)
            single = mask & mask - 1 == 0
            assert got[4] == single and got[2] == (0 if single else 30)


def test_power_iteration_unconverged_return_matches_oracle(rng):
    # a run cut off by max_iter returns the x of its last normalisation with
    # the full residual of its last iteration, not the early-exit scan's
    for n in (2, 3, 5, 8, 9, 16, 17, 33, 64):
        g = random_graph(rng, n, 0.3)
        for mask in _kernels_py.components_masks(g.adj, n, 0) + [g.vertex_mask]:
            for max_iter in range(6):
                args = (g.adj, n, mask, 1e-12, max_iter, NAN)
                got = _kernels_py.power_iteration(*args)
                assert got == _scattered_oracle(*args), (n, mask, max_iter)
                if not got[4]:
                    assert got[2] == max_iter


def _masked_lambda1(adj, mask):
    """numpy's largest eigenvalue of the adjacency matrix on mask."""
    vs = vertices_of(mask)
    a = np.zeros((len(vs), len(vs)))
    for i, v in enumerate(vs):
        for j, w in enumerate(vs):
            a[i, j] = adj[v] >> w & 1
    return float(np.linalg.eigvalsh(a)[-1])


def test_power_iteration_bracket_holds_lambda1(compiled, rng):
    # thresholds just above, just below and far from lambda1, so that some
    # runs stop on the bracket and others converge first; every bracket
    # holds numpy's lambda1, both backends agree to the bit, and the pure
    # one-pass loop agrees with the five-loop oracle
    stops = {True: 0, False: 0}
    for _ in range(120):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.6)))
        for mask in _kernels_py.components_masks(g.adj, n, 0) + [rng.getrandbits(n) or 1]:
            lam = _masked_lambda1(g.adj, mask)
            cap = iteration_cap(n, 1e-12)
            for t in (NAN, lam + 1e-9, lam - 1e-9, lam + 1e-6, lam - 1e-6,
                      lam / 2, lam + 1.0, lam + 1e-14):
                args = (g.adj, n, mask, 1e-12, cap, t)
                got = _kernels_py.power_iteration(*args)
                assert compiled.power_iteration(*args) == got, (n, mask, t)
                assert got == _scattered_oracle(*args), (n, mask, t)
                rho, _, _, _, converged, lower, upper = got
                assert lower <= lam <= upper, (n, mask, t, lower, lam, upper)
                assert lower <= rho <= upper
                assert converged or lower > t or upper < t
                stops[converged] += 1
    assert stops[True] and stops[False]
