import hashlib
import pickle
import random
from itertools import permutations

import pytest

from specconn.census import _orbit_minima, connected_census
from specconn.connectivity import CutMode, CutQuery, min_cut
from specconn.families import Family, FamilyParams, construct, witness_cut
from specconn.graphs import (
    Graph,
    _canonical_adj,
    _trusted,
    canonical_form,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    degree_profile,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    is_isomorphic,
    mask_of,
    permute,
    vertices_of,
)
from specconn import _kernels_py
from conftest import _brute_canonical_adj, _loop_graph_check, _loop_vertices_of, random_graph


def test_vertices_of_matches_loop_decoder(rng):
    # one table-driven decoder serves graphs and the pure kernels; it gives
    # the lowest-bit loop's tuple for every mask below 2^16, random 64-bit
    # masks, and masks past 64 bits
    assert vertices_of is _kernels_py.vertices_of
    for mask in range(1 << 16):
        assert vertices_of(mask) == _loop_vertices_of(mask)
    for bits in (17, 24, 63, 64, 65, 130, 300):
        for _ in range(500):
            mask = rng.getrandbits(bits)
            assert vertices_of(mask) == _loop_vertices_of(mask)
    for mask in (1 << 63, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, 1 << 200):
        assert vertices_of(mask) == _loop_vertices_of(mask)


def test_vertices_of_rejects_negative_masks():
    # the lowest-bit loop never ends on a negative int
    for mask in (-1, -2, -256, -(1 << 64), -(1 << 70) + 5):
        with pytest.raises(ValueError, match="nonnegative"):
            vertices_of(mask)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])


def _message(check, n, adj):
    """The ValueError message check(n, adj) raises, or None."""
    try:
        check(n, adj)
    except ValueError as exc:
        return str(exc)
    return None


def test_asymmetric_flips_match_edge_loop(rng):
    # every single-bit flip off the diagonal, at every order and so every
    # width of the packed transpose, names the pair the edge loop names
    for n in range(1, 65):
        rows = list(random_graph(rng, n, 0.3 if n <= 16 else 0.05).adj)
        for v in range(n):
            for w in range(n):
                if v == w:
                    continue
                rows[v] ^= 1 << w
                adj = tuple(rows)
                rows[v] ^= 1 << w
                want = _message(_loop_graph_check, n, adj)
                assert want is not None
                assert _message(Graph, n, adj) == want, (n, v, w)


def test_many_asymmetric_pairs_match_edge_loop(rng):
    # with several asymmetric pairs the edge loop names the least (v, w)
    for n in range(2, 65):
        for _ in range(20):
            adj = tuple(
                rng.getrandbits(n) & rng.getrandbits(n) & ~(1 << v) for v in range(n)
            )
            want = _message(_loop_graph_check, n, adj)
            assert _message(Graph, n, adj) == want, (n, adj)


def test_bad_rows_match_edge_loop(rng):
    # self-loops, rows out of range and negative rows are named as the edge
    # loop names them, also when an asymmetric pair or a second bad row
    # comes with them
    for n in (1, 2, 3, 7, 8, 9, 16, 17, 32, 33, 63, 64):
        base = random_graph(rng, n, 0.4).adj
        for v in range(n):
            for bad in (
                base[v] | 1 << v,
                base[v] | 1 << n,
                base[v] | 1 << 64,
                base[v] | 1 << 200,
                -1,
                -(1 << n),
                ~base[v],
            ):
                rows = list(base)
                rows[v] = bad
                cases = [rows]
                if n > 1:
                    other = rng.choice([u for u in range(n) if u != v])
                    skew = list(rows)
                    skew[other] ^= 1 << v
                    loop = list(rows)
                    loop[other] |= 1 << other
                    cases += [skew, loop]
                for case in cases:
                    adj = tuple(case)
                    want = _message(_loop_graph_check, n, adj)
                    assert want is not None
                    assert _message(Graph, n, adj) == want, (n, v, bad)


def test_valid_graphs_pass_validation(rng):
    for n in range(1, 65):
        for g in (random_graph(rng, n, rng.random()), complete_graph(n), empty_graph(n)):
            assert _message(_loop_graph_check, n, g.adj) is None
            assert Graph(n, g.adj) == g


def test_graph_is_slotted_and_pickles_by_value(rng):
    # a process pool ships chunks of Graphs to its workers
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        assert not hasattr(g, "__dict__")
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g)
        assert _trusted(g.n, g.adj) == Graph(g.n, g.adj)


def test_components_of_cycle_minus_two():
    got = components(cycle_graph(5), mask_of([0, 2]))
    assert [vertices_of(m) for m in got] == [(1,), (3, 4)]


def test_complete_graph_is_connected():
    assert components(complete_graph(5)) == [mask_of(range(5))]


def test_components_of_family_witness():
    p = FamilyParams(Family.DELTA_0, 8, 3, 2, 1, 2)
    comps = components(construct(p), witness_cut(p))
    assert sorted(m.bit_count() for m in comps) == [2, 3]


def test_components_cover_and_are_disjoint(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        removed = rng.randrange(1 << g.n)
        comps = components(g, removed)
        union = 0
        for m in comps:
            assert union & m == 0
            union |= m
        assert union == g.vertex_mask & ~removed
        assert (comps == []) == (removed & g.vertex_mask == g.vertex_mask)
        # sorted by least member
        leads = [vertices_of(m)[0] for m in comps]
        assert leads == sorted(leads)


def test_degree_profile_examples():
    assert degree_profile(complete_graph(4)) == (3, 3, (3, 3, 3, 3))
    star = complete_bipartite(1, 4)
    assert degree_profile(star) == (1, 4, (4, 1, 1, 1, 1))


def test_degree_profile_of_pendant_family():
    # the pendant vertex 0 attains the minimum degree
    p = FamilyParams(Family.ZERO_DELTA, 11, 1, 2, 3, 2)
    prof = degree_profile(construct(p))
    assert prof.min_degree == 2
    assert prof.degrees[0] == 2


def test_degree_sum_is_twice_edge_count(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        assert sum(degree_profile(g).degrees) == 2 * g.edge_count()


def test_permute_and_induced_subgraph():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = permute(g, [3, 2, 1, 0])
    assert sorted(h.edges()) == [(0, 1), (1, 2), (2, 3)]
    sub = induced_subgraph(g, mask_of([1, 2, 3]))
    assert sorted(sub.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        induced_subgraph(g, 0)


def test_canonical_form_invariant_under_relabeling():
    c5 = cycle_graph(5)
    assert canonical_form(c5) == canonical_form(permute(c5, [2, 4, 1, 0, 3]))


def test_canonical_form_separates_structures():
    two_triangles = disjoint_union(complete_graph(3), complete_graph(3))
    assert canonical_form(cycle_graph(6)) != canonical_form(two_triangles)
    assert not is_isomorphic(cycle_graph(6), two_triangles)


def test_canonical_size_cap():
    with pytest.raises(ValueError):
        canonical_form(complete_graph(13))


def test_canonical_partition_matches_brute_force(rng):
    # oracle: minimum over all n! relabelings; both functions must induce the
    # same isomorphism classes
    graphs = [random_graph(rng, rng.randint(2, 6), rng.choice([0.2, 0.5, 0.8]))
              for _ in range(150)]
    by_canon: dict = {}
    by_brute: dict = {}
    for i, g in enumerate(graphs):
        by_canon.setdefault((g.n, canonical_form(g)), set()).add(i)
        by_brute.setdefault((g.n, _brute_canonical_adj(g)), set()).add(i)
    assert sorted(map(sorted, by_canon.values())) == sorted(map(sorted, by_brute.values()))


def test_canonical_form_permutation_fuzz(rng):
    # 1000 random graphs of order <= 10, 100 random permutations each
    for _ in range(1000):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        reference = canonical_form(g)
        perm = list(range(n))
        for _ in range(100):
            rng.shuffle(perm)
            assert canonical_form(permute(g, perm)) == reference


def test_isomorphism_on_symmetric_graphs():
    assert is_isomorphic(complete_bipartite(2, 3), permute(complete_bipartite(2, 3), [4, 2, 0, 3, 1]))
    assert not is_isomorphic(complete_graph(5), cycle_graph(5))
    assert not is_isomorphic(complete_graph(4), complete_graph(5))


def test_min_cut_respects_search_cap():
    with pytest.raises(ValueError):
        min_cut(complete_graph(21), CutQuery(0, 2, CutMode.CLASSIC))


# canonical forms of the n <= 7 census under one seeded relabeling of each
# member, sorted and joined by newlines (generated with the earlier census
# generator, which kept other representatives in another order)
CANONICAL_RELABELED_SHA256 = "4f1294e607f26a198d9266876134bc7f82f13d651ab383c76032e82ada739799"


def test_canonical_forms_pinned_under_relabeling():
    rng = random.Random(20240817)
    forms = []
    for n in range(1, 8):
        for g in connected_census(n):
            perm = list(range(n))
            rng.shuffle(perm)
            forms.append(canonical_form(permute(g, perm)))
    assert len(forms) == 996
    forms.sort()
    assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == CANONICAL_RELABELED_SHA256


def test_automorphism_generators_are_automorphisms(rng):
    graphs = [g for n in range(1, 8) for g in connected_census(n)]
    graphs += [random_graph(rng, rng.randint(2, 10), rng.choice([0.2, 0.5, 0.8]))
               for _ in range(300)]
    for g in graphs:
        generators: list = []
        adj, order = _canonical_adj(g, generators)
        assert (adj, order) == _canonical_adj(g)
        # the canonical order relabels g into the canonical adjacency
        position = [0] * g.n
        for p, v in enumerate(order):
            position[v] = p
        assert permute(g, position).adj == adj
        for perm in generators:
            assert sorted(perm) == list(range(g.n)) and list(perm) != list(range(g.n))
            assert permute(g, perm) == g, (g, perm)


def test_automorphism_generators_span_the_group():
    # the subset orbits they induce are those of the whole automorphism group,
    # found by trying all n! relabelings
    for n in range(1, 7):
        for g in connected_census(n):
            group = [p for p in permutations(range(n)) if permute(g, p) == g]
            brute = [
                s for s in range(1, 1 << n)
                if all(s <= mask_of(p[v] for v in vertices_of(s)) for p in group)
            ]
            generators: list = []
            _canonical_adj(g, generators)
            assert _orbit_minima(generators, n) == brute, g
