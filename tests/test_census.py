import hashlib
from itertools import permutations

import pytest

from specconn import census
from specconn.census import (
    CONNECTED_COUNTS,
    connected_census,
    ingest_graph6,
)
from specconn.graphs import (
    Graph,
    bits,
    canonical_form,
    graph6_encode,
    is_connected,
)


def _brute_force_connected_count(n: int) -> int:
    """Independent census oracle: enumerate all labeled graphs, filter
    connected, deduplicate by min-over-permutations encoding."""
    seen = set()
    nbits = n * (n - 1) // 2
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    for mask in range(1 << nbits):
        rows = [0] * n
        for i in bits(mask):
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
                for b in bits(rows[a]):
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
        for i in bits(mask):
            u, v = pairs[i]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        if is_connected(g):
            seen.add(canonical_form(g))
    assert len(seen) == 112
    assert len(connected_census(6)) == 112


def test_census_matches_published_counts():
    for n in range(1, 8):
        assert len(connected_census(n)) == CONNECTED_COUNTS[n]


def test_census_members_are_connected_and_distinct():
    graphs = connected_census(6)
    forms = {canonical_form(g) for g in graphs}
    assert len(forms) == len(graphs)
    assert all(is_connected(g) for g in graphs)


def test_generator_cap():
    with pytest.raises(ValueError):
        connected_census(9)
    with pytest.raises(ValueError):
        connected_census(0)


def test_enumerate_streams_in_stable_order(monkeypatch):
    # generate twice from an empty cache; the fixture restores the shared one
    runs = []
    for _ in range(2):
        monkeypatch.setattr(census, "_census_cache", {})
        runs.append([graph6_encode(g) for g in connected_census(5)])
    assert runs[0] == runs[1]


# sha256 of the ordered, newline-joined graph6 lines of connected_census(n),
# generated before orbit pruning: members and their order must not change
CENSUS_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "ff300d6b5191490a6a2d507279c750a00c4d53fb98b6e1b3e8b59ef7894631ec",
    4: "59f05773e1599dbd0d7a4a269f3cf4b28b2db33e02c061f11cc56710029566f8",
    5: "b464d15021b10ce593e1ff4e3d8007961284f62b404d597fd548e42e19407975",
    6: "5b10ca0b43ce2f03e40ed371ee233b1653654334962c7e1613908db99a84af99",
    7: "c8e1cca3fdec9f27faddabd4eca8b34ad4db427ef26073aed433b8874a2bea34",
    8: "7b4360f5f590a8073cc969dfa8e886bd3f1228dc4cf553ad09c67344b4112e55",
}


@pytest.mark.parametrize("n", sorted(CENSUS_SHA256))
def test_census_order_pinned(n):
    lines = "\n".join(graph6_encode(g) for g in connected_census(n))
    assert hashlib.sha256(lines.encode()).hexdigest() == CENSUS_SHA256[n]


def test_generation_tries_one_subset_per_orbit(monkeypatch):
    # the level-7 children tried are the subset orbits of the 112 parents
    # (Burnside count), not 112 * 63; canonical_form sees only children
    monkeypatch.setattr(census, "_census_cache", {})
    tried = {}

    def spy(g):
        tried[g.n] = tried.get(g.n, 0) + 1
        return canonical_form(g)

    monkeypatch.setattr(census, "canonical_form", spy)
    assert len(connected_census(7)) == 853
    assert tried[7] == 3771


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


def test_ingest_missing_file_raises():
    with pytest.raises(OSError):
        list(ingest_graph6("/nonexistent/path.g6"))
