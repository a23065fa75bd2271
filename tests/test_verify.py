import hashlib
import json
from itertools import combinations

import pytest

from specconn import _kernels_py, census, kernels, verify
from specconn.census import CONNECTED_COUNTS, connected_census, ingest_graph6
from specconn.connectivity import CutMode, CutQuery, min_cut, min_cut_values
from specconn.families import Family
from specconn.graphs import (
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_profile,
    from_edges,
    graph6_decode,
    graph6_encode,
    mask_of,
    path_graph,
    permute,
)
from specconn.spectral import spectral_radius
from specconn.verify import (
    RHO_TOL,
    ClassSpec,
    reports_to_json,
    run_verification,
    write_csv,
    write_json,
    CSV_COLUMNS,
)


def test_class_membership_examples():
    # C6 (min degree 2) has a 1-good 2-component cut of size 2; a complete
    # graph has no cut and a star has no 1-good one, so only C6 is a member
    source = [cycle_graph(6), complete_graph(6), complete_bipartite(1, 5)]
    for mode in ("component", "neighbor"):
        reports = run_verification(6, 1, 2, mode=mode, source=source)
        assert [(rep.spec.delta, rep.spec.k, rep.population) for rep in reports] == [
            (2, 2, 1)
        ]


def test_seven_vertex_example_cell():
    (rep,) = run_verification(7, 0, 2, cells=[(2, 2)])
    assert rep.population > 0
    assert rep.claimed_family == Family.JOIN_VI.value
    assert rep.isomorphic is True
    assert rep.confirmed
    # claimed K_2 v (K_4 u K_1): rho must match the class maximum
    assert abs(rep.best_rho - rep.claimed_rho) <= RHO_TOL


def test_all_cells_n6_confirm():
    reports = run_verification(6, 0, 2)
    assert reports
    assert all(rep.confirmed for rep in reports)
    populations = sum(rep.population for rep in reports)
    assert populations <= CONNECTED_COUNTS[6]
    for rep in reports:
        if rep.population >= 2:
            assert rep.second_best_rho is not None
            assert rep.second_best_rho <= rep.best_rho
        assert rep.best_rho >= rep.claimed_rho - RHO_TOL


def test_empty_class_report():
    (rep,) = run_verification(6, 0, 2, cells=[(5, 1)])
    assert rep.population == 0
    assert rep.best_rho is None and rep.claimed_rho is None
    assert rep.isomorphic is None
    assert rep.confirmed  # vacuous


def test_out_of_hypothesis_gating():
    assert not ClassSpec(6, 2, 2, 2, 2).in_hypothesis()  # 6 < 2 + 2*3
    with pytest.raises(ValueError):
        run_verification(6, 2, 2, cells=[(2, 2)])


def test_cut_size_lemma():
    # each of the >= r components keeps g neighbours, so has >= g + 1
    # vertices: no nonempty set of more than n - r(g+1) vertices is a cut
    # (checked with the uncapped reference predicate), and no graph of
    # order n <= r(g+1) has a cut at all
    checked = 0
    for n in range(1, 8):
        graphs = connected_census(n)
        for g in range(4):
            for r in range(2, 5):
                for size in range(max(n - r * (g + 1) + 1, 1), n):
                    for fmask in map(mask_of, combinations(range(n), size)):
                        for h in graphs:
                            checked += 1
                            assert not _kernels_py.cut_valid(h.adj, n, fmask, g, r, 3)
                if n <= r * (g + 1):
                    assert min_cut_values(graphs, CutQuery(g, r)) == [None] * len(graphs)
    assert checked == 1_060_571


def test_neighbor_mode_matches_r2_component_mode():
    # with r = 2 the two class notions coincide
    comp = run_verification(6, 1, 2, mode="component")
    nbr = run_verification(6, 1, 2, mode="neighbor")
    assert [(r.spec.delta, r.spec.k, r.population) for r in comp] == [
        (r.spec.delta, r.spec.k, r.population) for r in nbr
    ]
    assert all(r.confirmed for r in nbr)


def test_incomplete_source_fails_the_claim():
    # violating the coverage precondition must surface as a failed verdict,
    # not silently pass: neither member of this partial class is extremal
    source = [path_graph(6), complete_bipartite(1, 5)]
    (rep,) = run_verification(6, 0, 2, source=source, cells=[(1, 1)])
    assert rep.population == 2
    assert rep.isomorphic is False
    assert not rep.confirmed


def test_json_report_schema(tmp_path):
    reports = run_verification(5, 0, 2)
    path = tmp_path / "reports.json"
    write_json(reports, str(path))
    data = json.loads(path.read_text())
    assert isinstance(data, list) and len(data) == len(reports)
    first = data[0]
    assert set(first) == {"schema", "mode", "class", "population", "best", "claimed",
                          "isomorphic", "second_best_rho", "warnings"}
    assert first["schema"] == 2
    assert first["mode"] == "component"
    assert set(first["class"]) == {"n", "delta", "g", "r", "k"}
    assert set(first["best"]) == {"rho", "graph6"}
    assert set(first["claimed"]) == {"family", "rho", "graph6"}
    # graph6 payloads decode
    graph6_decode(first["best"]["graph6"])
    graph6_decode(first["claimed"]["graph6"])


def test_csv_report_projection(tmp_path):
    reports = run_verification(5, 0, 2)
    path = tmp_path / "reports.csv"
    write_csv(reports, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(reports) + 1


def test_determinism_across_jobs(monkeypatch):
    # small chunks, so the 112 graphs make 8 tasks for the pool
    monkeypatch.setattr(verify, "SCAN_CHUNK", 16)
    solo = reports_to_json(run_verification(6, 1, 2, jobs=1))
    multi = reports_to_json(run_verification(6, 1, 2, jobs=3))
    assert solo == multi


def test_one_job_scan_streams_the_source_in_chunks(monkeypatch):
    # every chunk is scanned before the next is read, so at most one chunk
    # of the source is held at a time
    monkeypatch.setattr(verify, "SCAN_CHUNK", 100)
    read = 0
    scanned = []

    def source():
        nonlocal read
        for h in connected_census(7):
            read += 1
            yield h

    def spy(chunk, query):
        start = sum(size for _, size, _ in scanned)
        scanned.append((start, len(chunk), read))
        return real(chunk, query)

    real = verify.min_cut_values
    monkeypatch.setattr(verify, "min_cut_values", spy)
    streamed = run_verification(7, 1, 2, source=source())
    assert scanned == [(i, min(100, 853 - i), min(i + 100, 853)) for i in range(0, 853, 100)]
    monkeypatch.undo()
    assert reports_to_json(streamed) == reports_to_json(run_verification(7, 1, 2))


def test_explicit_source_stream():
    source = connected_census(6)
    reports = run_verification(6, 0, 2, source=source)
    assert all(rep.confirmed for rep in reports)


def test_jobs_below_one_is_rejected_before_the_scan(monkeypatch):
    scanned = []
    monkeypatch.setattr(verify, "min_cut_values", lambda chunk, query: scanned.append(chunk))
    for jobs in (0, -2):
        with pytest.raises(ValueError) as exc:
            run_verification(5, 1, 2, jobs=jobs)
        assert str(exc.value) == f"jobs must be >= 1, got {jobs}"
    assert scanned == []


def test_source_with_no_graph_is_rejected(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("bad!\n")
    for jobs in (1, 2):
        for source in ([], ingest_graph6(bad, [])):
            with pytest.raises(ValueError) as exc:
                run_verification(6, 1, 2, source=source, jobs=jobs)
            assert str(exc.value) == "the source holds no graph of order 6"


def test_neighbor_mode_rejects_r_other_than_two():
    for r in (1, 3):
        with pytest.raises(ValueError, match="r = 2"):
            run_verification(7, 0, r, mode="neighbor")
    with pytest.raises(ValueError, match="r = 2"):
        run_verification(7, 0, 3, mode="neighbor", cells=[(1, 1)])


def test_exact_top_tie_goes_to_least_canonical_form(monkeypatch):
    # K_{3,3} and the triangular prism are non-isomorphic, cubic and
    # 3-connected, and their computed rho is the same float; dropping every
    # other graph of minimum degree 3 makes them the top of cell (3, 3)
    k33 = complete_bipartite(3, 3)
    prism = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
    assert spectral_radius(k33).rho == spectral_radius(prism).rho
    assert canonical_form(k33) < canonical_form(prism)
    rest = [h for h in connected_census(6) if degree_profile(h).min_degree != 3]
    source = [prism, k33] + rest
    monkeypatch.setattr(verify, "SCAN_CHUNK", 16)
    assert len(source) > verify.SCAN_CHUNK  # enough records for --jobs to split the scan
    runs = [
        run_verification(6, 0, 2, source=source),
        run_verification(6, 0, 2, source=source[::-1]),
        run_verification(6, 0, 2, source=source, jobs=2),
    ]
    for reports in runs:
        (cell,) = [rep for rep in reports if (rep.spec.delta, rep.spec.k) == (3, 3)]
        assert cell.population == 2
        assert cell.best_graph6 == graph6_encode(k33)
        assert cell.best_canonical == canonical_form(k33)
        assert cell.second_best_rho == cell.best_rho
    first = reports_to_json(runs[0])
    assert all(reports_to_json(reports) == first for reports in runs[1:])


def test_one_pass_source_matches_list_source(tmp_path, rng):
    census = connected_census(7)
    shuffled = [permute(h, rng.sample(range(7), 7)) for h in census]
    rng.shuffle(shuffled)
    path = tmp_path / "shuffled.g6"
    path.write_text("".join(graph6_encode(h) + "\n" for h in shuffled))
    for g, r in ((0, 2), (1, 3)):
        want = reports_to_json(run_verification(7, g, r, source=shuffled))
        for jobs in (1, 2):
            streamed = run_verification(7, g, r, source=ingest_graph6(path), jobs=jobs)
            assert reports_to_json(streamed) == want


def test_wrong_order_mid_stream_raises():
    census = connected_census(6)
    source = census[:70] + [path_graph(5)] + census[70:]
    for jobs in (1, 2):
        with pytest.raises(ValueError) as exc:
            run_verification(6, 1, 2, source=iter(source), jobs=jobs)
        assert str(exc.value) == "source contains a graph of order 5, expected 6"


@pytest.mark.parametrize("where", [0, 7, 15, 16, 112])
def test_disconnected_source_graph_raises(monkeypatch, where):
    # first graph, middle and last graph of a chunk of 16, first of the
    # next chunk, and last of the source
    monkeypatch.setattr(verify, "SCAN_CHUNK", 16)
    census = connected_census(6)
    bad = from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    source = census[:where] + [bad] + census[where:]
    for jobs in (1, 2):
        with pytest.raises(ValueError) as exc:
            run_verification(6, 1, 2, source=iter(source), jobs=jobs)
        assert str(exc.value) == f"cut search expects a connected graph, got {graph6_encode(bad)}"


def test_scan_encodes_only_reported_graphs(monkeypatch):
    # graph6 is written once per cell for its best member and once for its
    # claimed family graph, not for every one of the 512 class members
    encoded = []
    real = verify.graph6_encode

    def spy(g):
        encoded.append(g)
        return real(g)

    monkeypatch.setattr(verify, "graph6_encode", spy)
    reports = run_verification(7, 1, 2, jobs=1)
    assert len(reports) == 10
    assert len(encoded) == 10 + 10


def test_rho_is_solved_only_where_a_top_two_can_move(monkeypatch):
    # 102 members of the 512 in the census's ten cells, plus one rho per
    # claimed family: 125 members with the Hong bound alone, before the
    # neighbour-degree bound skipped 23 more
    calls = []

    def spy(g, *args, **kwargs):
        calls.append(g)
        return spectral_radius(g, *args, **kwargs)

    monkeypatch.setattr(verify, "spectral_radius", spy)
    reports = run_verification(7, 1, 2)
    assert sum(rep.population for rep in reports) == 512
    assert len(calls) == 112


def _unpruned_cells(n, g, r, source):
    """Per cell: population, best rho, its graph6 and the second-best rho,
    from the rho of every member."""
    query = CutQuery(g, r, CutMode.FULL)
    cells = {}
    for h in source:
        result = min_cut(h, query)
        if result is not None:
            key = (degree_profile(h).min_degree, result.value)
            cells.setdefault(key, []).append((spectral_radius(h).rho, h))
    out = {}
    for key, members in cells.items():
        best = max(rho for rho, _ in members)
        tied = [(canonical_form(h), i, graph6_encode(h))
                for i, (rho, h) in enumerate(members) if rho == best]
        below = [rho for rho, _ in members if rho < best]
        second = best if len(tied) > 1 else max(below, default=None)
        out[key] = (len(members), best, min(tied)[2], second)
    return out


@pytest.mark.parametrize("g", [0, 1])
@pytest.mark.parametrize("r", [2, 3])
def test_pruned_cells_match_rho_of_every_member(g, r, rng):
    census = connected_census(7)
    shuffled = [permute(h, rng.sample(range(7), 7)) for h in census]
    rng.shuffle(shuffled)
    for source in (census, shuffled):
        reports = run_verification(7, g, r, source=source)
        got = {
            (rep.spec.delta, rep.spec.k):
                (rep.population, rep.best_rho, rep.best_graph6, rep.second_best_rho)
            for rep in reports
        }
        assert got == _unpruned_cells(7, g, r, source)


def test_isomorphic_top_tie_goes_to_first_in_input_order():
    census = connected_census(6)
    (cell,) = [rep for rep in run_verification(6, 0, 2)
               if (rep.spec.delta, rep.spec.k) == (1, 1)]
    best = graph6_decode(cell.best_graph6)
    copy = permute(best, [1, 0, 2, 3, 4, 5])
    assert graph6_encode(copy) != cell.best_graph6
    assert spectral_radius(copy).rho == cell.best_rho
    source = census + [copy]
    for ordered, first in ((source, cell.best_graph6), (source[::-1], graph6_encode(copy))):
        (tied,) = [rep for rep in run_verification(6, 0, 2, source=ordered)
                   if (rep.spec.delta, rep.spec.k) == (1, 1)]
        assert tied.population == cell.population + 1
        assert tied.best_rho == tied.second_best_rho == cell.best_rho
        assert tied.best_graph6 == first


def test_usage_error_comes_before_the_scan(monkeypatch):
    scanned = []

    def spy(chunk, query):
        scanned.append(len(chunk))
        return real(chunk, query)

    real = verify.min_cut_values
    monkeypatch.setattr(verify, "min_cut_values", spy)
    with pytest.raises(ValueError, match="outside the hypothesis"):
        run_verification(8, 1, 2, cells=[(1, 7)])
    assert scanned == []


def test_only_reported_cells_are_ranked(monkeypatch):
    # cell (3, 3) alone: 100 pruned rho solves of its 727 members plus one
    # for its claimed family graph (132 with the Hong bound alone), where
    # all 16 reports take 445 (613 with the Hong bound alone)
    calls = []

    def spy(g, *args, **kwargs):
        calls.append(g)
        return spectral_radius(g, *args, **kwargs)

    monkeypatch.setattr(verify, "spectral_radius", spy)
    (rep,) = run_verification(8, 1, 2, cells=[(3, 3)])
    assert rep.confirmed
    assert rep.population == 727
    assert len(calls) == 101


def test_pool_holds_a_bounded_window_of_chunks(monkeypatch):
    # with two jobs at most 2 * 2 chunks are in the pool, so the scan holds
    # at most that window plus the chunk just read when a result is paired
    monkeypatch.setattr(verify, "SCAN_CHUNK", 16)
    source = connected_census(7) * 3
    read = 0
    held_sizes = []
    real = verify._scanned

    def counted():
        nonlocal read
        for h in source:
            read += 1
            yield h

    def spy(graphs, query, pool, window):
        paired = 0
        for chunk, values in real(graphs, query, pool, window):
            held_sizes.append(read - paired)
            paired += len(chunk)
            yield chunk, values

    monkeypatch.setattr(verify, "_scanned", spy)
    multi = reports_to_json(run_verification(7, 1, 2, source=counted(), jobs=2))
    assert len(held_sizes) == -(-len(source) // 16)
    assert max(held_sizes) == (2 * 2 + 1) * 16
    assert multi == reports_to_json(run_verification(7, 1, 2, source=source, jobs=1))


# every kernel the pipeline calls, through specconn.kernels
PIPELINE_KERNELS = ("components_masks", "min_cut_search", "min_cut_search_many",
                    "power_iteration")


def test_reports_match_on_both_backends(monkeypatch, compiled):
    # the whole pipeline, census generation included, on each backend in turn
    runs = []
    for module in (compiled, _kernels_py):
        for name in PIPELINE_KERNELS:
            monkeypatch.setattr(kernels, name, getattr(module, name))
        monkeypatch.setattr(census, "_census_cache", {})
        digests = [
            hashlib.sha256("\n".join(graph6_encode(h) for h in connected_census(n)).encode())
            .hexdigest()
            for n in range(5, 8)
        ]
        reports = [
            reports_to_json(run_verification(n, g, r, mode=mode))
            for n in range(5, 8)
            for g in range(3)
            for mode, r in (("component", 2), ("component", 3), ("neighbor", 2))
        ]
        runs.append((digests, reports))
    assert runs[0] == runs[1]
