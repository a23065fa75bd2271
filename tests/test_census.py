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
