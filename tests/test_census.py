import hashlib
from collections import Counter
from itertools import permutations

import pytest

from specconn import census, graphs
from specconn.census import (
    CONNECTED_COUNTS,
    connected_census,
    ingest_graph6,
)
from specconn.graphs import (
    Graph,
    canonical_form,
    components,
    graph6_encode,
    is_connected,
    vertices_of,
)
from conftest import _neighbour_degrees, _triangles


def _brute_force_connected_count(n: int) -> int:
    """Independent census oracle: enumerate all labeled graphs, filter
    connected, deduplicate by min-over-permutations encoding."""
    seen = set()
    nbits = n * (n - 1) // 2
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    for mask in range(1 << nbits):
        rows = [0] * n
        for i in vertices_of(mask):
            u, v = pairs[i]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        if not is_connected(g):
            continue
        best = None
        for perm in permutations(range(n)):
            relabeled = [0] * n
            for a in range(n):
                acc = 0
                for b in vertices_of(rows[a]):
                    acc |= 1 << perm[b]
                relabeled[perm[a]] = acc
            key = tuple(relabeled)
            if best is None or key < best:
                best = key
        seen.add(best)
    return len(seen)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)])
def test_counts_against_brute_force(n, count):
    assert _brute_force_connected_count(n) == count
    assert len(connected_census(n)) == count


def test_count_order_six_against_canonical_dedup():
    # all 2^15 labeled graphs, deduplicated by canonical form
    n = 6
    seen = set()
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    for mask in range(1 << 15):
        rows = [0] * n
        for i in vertices_of(mask):
            u, v = pairs[i]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        if is_connected(g):
            seen.add(canonical_form(g))
    assert len(seen) == 112
    assert len(connected_census(6)) == 112


def test_census_matches_published_counts():
    for n in range(1, 9):
        assert len(connected_census(n)) == CONNECTED_COUNTS[n]


def test_census_members_are_connected_and_distinct():
    graphs = connected_census(6)
    forms = {canonical_form(g) for g in graphs}
    assert len(forms) == len(graphs)
    assert all(is_connected(g) for g in graphs)


def test_generator_cap():
    with pytest.raises(ValueError):
        connected_census(10)
    with pytest.raises(ValueError):
        connected_census(0)


def test_enumerate_streams_in_stable_order(monkeypatch):
    # generate twice from an empty cache; the fixture restores the shared one
    runs = []
    for _ in range(2):
        monkeypatch.setattr(census, "_census_cache", {})
        runs.append([graph6_encode(g) for g in connected_census(5)])
    assert runs[0] == runs[1]


# sha256 of the ordered, newline-joined graph6 lines of connected_census(n):
# the representatives and their order that canonical augmentation keeps
CENSUS_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "ff300d6b5191490a6a2d507279c750a00c4d53fb98b6e1b3e8b59ef7894631ec",
    4: "59f05773e1599dbd0d7a4a269f3cf4b28b2db33e02c061f11cc56710029566f8",
    5: "0e370540a2934e6ed46b227b6ee2d0e3258614e2020397596f22d8ee109d3588",
    6: "1f17f4e200cd490be3273fc7b70a31d62d43e4afdb0edad78efe6551818f5484",
    7: "2e8ff5bcb5d7b94d09acac71697e5b6bfd531f0846224c68020f20fa8ba29074",
    8: "bb512ea78c13ff630745ee11dd4cbf5dd5b40fa63f7d92a1132fd843831adee5",
}


@pytest.mark.parametrize("n", sorted(CENSUS_SHA256))
def test_census_order_pinned(n):
    lines = "\n".join(graph6_encode(g) for g in connected_census(n))
    assert hashlib.sha256(lines.encode()).hexdigest() == CENSUS_SHA256[n]


# sha256 of the sorted, newline-joined canonical forms of connected_census(n),
# generated with the earlier generator that deduplicated on canonical form:
# the census holds the same isomorphism classes, each once
CANONICAL_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "2c1256ffd0617e16898c604363be63a1bf9bd24d83d6227d4b2adb3360248bd3",
    4: "3476f1ed7e7e1a2e417015b47a14176cd3449d71346f351860c4b95334771d1e",
    5: "8f268b88b0765ccd3e3d5723cba3828ff9ef6e7f0b1cc2adf1042332c799c13f",
    6: "d26fccaebdf35b38dd8b2dbb625418cc22829fa7b5c3aab401a50be19563d4a3",
    7: "aa0927187a0e2ddbb68c36451f3aa245a2e92b18e669a8b8c6c24c8b2aa5639a",
    8: "97d967279304221f1d7b1d948d4e73de63cfe85d2bd786d5fc5bd7f4a985d6c6",
}


@pytest.mark.parametrize("n", sorted(CANONICAL_SHA256))
def test_census_canonical_forms_pinned(n):
    forms = sorted(canonical_form(g) for g in connected_census(n))
    assert len(set(forms)) == len(forms) == CONNECTED_COUNTS[n]
    assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == CANONICAL_SHA256[n]


def test_generation_tries_one_subset_per_orbit(monkeypatch):
    # each level considers one child per subset orbit of each parent (the
    # Burnside count: 3,771 at level 7, not 112 * 63), but builds only the
    # children that no non-cut vertex beats on the invariant: the degree
    # floor skips the smaller orbits, and the parent-side stages (degree,
    # then the neighbours' degree sums, then the triangles) most of the
    # rest, so 874 and 11,537 children are built. A child is searched at
    # most once, and only when v shares the lowest root cell of the
    # candidates with a non-twin. A kept child's search also gives its
    # generators as a parent when its level is generated for the next one,
    # so no graph is searched twice. Every search is counted, through
    # graphs.canonical_form too
    monkeypatch.setattr(census, "_census_cache", {})
    connected_census(6)  # before the spies: a level-6 child is a level-7 parent
    built = Counter()
    searched = Counter()
    child_searches = Counter()
    parent_searches = Counter()
    judging = False
    real_test = census._is_canonical_augmentation
    real_search = graphs._canonical_adj

    def judge(child, tied):
        nonlocal judging
        built[child.n] += 1
        judging = True
        try:
            return real_test(child, tied)
        finally:
            judging = False

    def search(g, automorphisms=None, root=None):
        searched[g.n, g.adj] += 1
        (child_searches if judging else parent_searches)[g.n] += 1
        return real_search(g, automorphisms, root)

    monkeypatch.setattr(census, "_is_canonical_augmentation", judge)
    monkeypatch.setattr(census, "_canonical_adj", search)
    monkeypatch.setattr(graphs, "_canonical_adj", search)
    # level 7 is generated here as the parents of level 8
    assert len(connected_census(8)) == CONNECTED_COUNTS[8]
    assert set(searched.values()) == {1}
    assert built == {7: 874, 8: 11537}
    assert child_searches == {7: 120, 8: 1086}
    # level 6 was generated on its own, so all 112 of its members are
    # searched as parents; 120 of level 7's 853 reuse their child search
    assert parent_searches == {6: 112, 7: 853 - 120}
    # reused generators give the same children in the same order
    for n in (7, 8):
        lines = "\n".join(graph6_encode(g) for g in connected_census(n))
        assert hashlib.sha256(lines.encode()).hexdigest() == CENSUS_SHA256[n]
    # without the floor, the orbit minima are the Burnside counts
    considered = Counter()
    for m in (6, 7):
        for parent in connected_census(m):
            generators: list = []
            real_search(parent, generators)
            considered[m + 1] += len(census._orbit_minima(generators, m))
    assert considered == {7: 3771, 8: 67141}


def _reference_keeps(child: Graph) -> bool:
    """Whether the last vertex v of child lies in the canonical deletion
    orbit, by the definition alone: the non-cut vertices largest on
    (degree, sum of the neighbours' degrees, twice the triangles), the one
    at the least canonical position, and its orbit, from one full search."""
    adj = child.adj
    v = child.n - 1

    def invariant(u):
        nbrs = vertices_of(adj[u])
        return (
            len(nbrs),
            sum(adj[w].bit_count() for w in nbrs),
            sum((adj[u] & adj[w]).bit_count() for w in nbrs),
        )

    noncut = [u for u in range(child.n) if len(components(child, 1 << u)) <= 1]
    keys = {u: invariant(u) for u in noncut}
    best = max(keys.values())
    generators: list = []
    _, order = graphs._canonical_adj(child, generators)
    first = next(u for u in order if keys.get(u) == best)
    orbit = {first}
    stack = [first]
    while stack:
        u = stack.pop()
        for perm in generators:
            if perm[u] not in orbit:
                orbit.add(perm[u])
                stack.append(perm[u])
    return v in orbit


def test_kept_children_match_the_definition():
    # every orbit-least subset of every parent of order <= 6 is judged by
    # the definition alone, with no degree floor, no parent-side test and
    # no twin shortcut: the census keeps exactly those children, in order
    for m in range(1, 7):
        expected = []
        new_bit = 1 << m
        for parent in connected_census(m):
            generators: list = []
            graphs._canonical_adj(parent, generators)
            for smask in census._orbit_minima(generators, m):
                rows = [
                    row | new_bit if smask >> u & 1 else row
                    for u, row in enumerate(parent.adj)
                ]
                child = Graph(m + 1, (*rows, smask))
                if _reference_keeps(child):
                    expected.append(child)
        assert connected_census(m + 1) == expected


def _child_rows(parent: Graph, smask: int) -> tuple[int, ...]:
    """The rows of P + S, the new vertex last."""
    m = parent.n
    rows = [row | 1 << m if smask >> u & 1 else row for u, row in enumerate(parent.adj)]
    return (*rows, smask)


def _with_generators(m: int):
    """(parent, its Aut generators) for every census parent of order m."""
    for parent in connected_census(m):
        generators: list = []
        graphs._canonical_adj(parent, generators)
        yield parent, generators


def test_parent_side_keys_match_the_child():
    # the neighbours' degree sums and doubled triangle counts of P + S, at v
    # and at every vertex of P, follow from P's own rows and sums
    for m in range(1, 8):
        everyone = [m, *range(m)]
        for parent, generators in _with_generators(m):
            adj = parent.adj
            nsum = [_neighbour_degrees(adj, u) for u in range(m)]
            tri2 = [_triangles(adj, u) for u in range(m)]
            for smask in census._orbit_minima(generators, m):
                rows = _child_rows(parent, smask)
                assert census._nsum_keys(smask, everyone, adj, nsum) == [
                    _neighbour_degrees(rows, u) for u in everyone
                ]
                assert census._tri2_keys(smask, everyone, adj, tri2) == [
                    _triangles(rows, u) for u in everyone
                ]


def test_parent_side_stages_leave_the_deletion_candidates():
    # for every orbit-least S of every parent of order <= 6, S passes the
    # degree floor and the parent-side stages iff no non-cut vertex of
    # P + S beats v on (degree, neighbours' degree sum, twice the
    # triangles), and its tied list is then v and the others equal to v
    for m in range(1, 7):
        for parent, generators in _with_generators(m):
            survivors = dict(census._degree_survivors(parent, generators))
            for smask in census._orbit_minima(generators, m):
                child = Graph(m + 1, _child_rows(parent, smask))
                keys = {
                    u: (child.degree(u), _neighbour_degrees(child.adj, u),
                        _triangles(child.adj, u))
                    for u in range(m + 1)
                    if len(components(child, 1 << u)) <= 1
                }
                if max(keys.values()) > keys[m]:
                    assert smask not in survivors
                else:
                    tied = survivors[smask]
                    assert tied[0] == m
                    assert sorted(tied) == [u for u in sorted(keys) if keys[u] == keys[m]]


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "graphs.g6"
    graphs = connected_census(5)
    path.write_text("".join(graph6_encode(g) + "\n" for g in graphs))
    back = list(ingest_graph6(path))
    assert back == graphs


def test_ingest_collects_bad_lines(tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text("A_\n\nnot-a-record!!!\nD??\nB\n")
    errors: list[tuple[int, str]] = []
    decoded = list(ingest_graph6(path, errors))
    assert [g.n for g in decoded] == [2, 5]
    assert [lineno for lineno, _ in errors] == [3, 5]


def test_ingest_file_skips_non_ascii_line(tmp_path):
    # graph6 is ASCII: a file line with a non-ASCII byte is a bad record,
    # skipped like any other, and the stream goes on past it
    path = tmp_path / "latin.g6"
    path.write_bytes(b"A_\nB\xc3\xa9\nD??\n")
    errors: list[tuple[int, str]] = []
    decoded = list(ingest_graph6(path, errors))
    assert [g.n for g in decoded] == [2, 5]
    assert errors == [(2, "non-printable graph6 byte 195")]


def test_ingest_missing_file_raises():
    with pytest.raises(OSError):
        list(ingest_graph6("/nonexistent/path.g6"))
