import io
import json

import pytest

from specconn.cli import main
from specconn.graphs import graph6_decode, graph6_encode, complete_graph, cycle_graph, path_graph
from specconn.families import FamilyParams, Family, construct
from specconn.census import connected_census


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rho_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
    code, out, _ = run(["rho", "-"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "1.0"


def test_rho_with_vector(capsys):
    code, out, _ = run(["rho", graph6_encode(complete_graph(3)), "--tol", "1e-10"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2.0"
    assert len(lines[1].split()) == 3


def test_rho_rejects_bad_record(capsys):
    code, _, err = run(["rho", "!!!"], capsys)
    assert code == 1
    assert "error" in err


def test_rho_rejects_tolerances_that_are_not_positive_and_finite(capsys):
    for tol in ("nan", "inf", "0", "-1e-3"):
        code, out, err = run(["rho", "D~{", f"--tol={tol}"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: tolerance must be positive and finite, got {float(tol)!r}\n"


def test_rho_reports_non_convergence_as_an_error(monkeypatch, capsys):
    monkeypatch.setattr("specconn.spectral.iteration_cap", lambda n, tol: 2)
    code, out, err = run(["rho", graph6_encode(path_graph(5))], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: no convergence after 2 iterations (residual ")


def test_rho_caps_iterations_at_machine_epsilon(capsys):
    # a tol below epsilon gets the cap of epsilon: 200 * 5 * ln(1 / eps)
    code, out, err = run(["rho", "D~{", "--tol", "1e-300"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: no convergence after 36043 iterations (residual ")


def test_argparse_errors_exit_one(capsys):
    # 2 is the exit code of a failed claim, so argparse's own must not be used
    for argv, message in (
        (["verify", "--n", "5"], "the following arguments are required: --g"),
        (["verify", "--n", "5", "--g", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["cut", "D~{", "--mode", "bad"], "argument --mode: invalid choice: 'bad'"),
        (["verify", "--n", "x", "--g", "1"], "argument --n: invalid int value: 'x'"),
        (["verify", "--n", "5", "--g", "0", "--all-classes", "--allow-out-of-hypothesis"],
         "unrecognized arguments: --allow-out-of-hypothesis"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: specconn")
        assert f"error: {message}" in err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: specconn")


def test_cut_certificate_output(capsys):
    code, out, _ = run(["cut", graph6_encode(cycle_graph(6)), "--g", "1", "--r", "2"], capsys)
    assert code == 0
    assert "value=2" in out
    assert "cut=[0, 3]" in out
    assert "component_sizes=[2, 2]" in out


def test_cut_reports_no_cut(capsys):
    code, out, _ = run(["cut", graph6_encode(complete_graph(5)), "--g", "0", "--r", "2"], capsys)
    assert code == 0
    assert "no valid cut" in out


def test_family_graph6_emission(capsys):
    code, out, _ = run(
        ["family", "join-vi", "--n", "8", "--k", "2", "--delta", "3", "--g", "1", "--r", "2"],
        capsys,
    )
    assert code == 0
    record = out.strip()
    expected = construct(FamilyParams(Family.JOIN_VI, 8, 2, 3, 1, 2))
    assert graph6_decode(record) == expected


def test_family_json_emission(capsys):
    code, out, _ = run(
        ["family", "delta0", "--n", "8", "--k", "3", "--delta", "2", "--g", "1",
         "--r", "2", "--emit", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["edges"] == 17
    assert payload["witness_valid"] is True
    assert payload["witness_cut"] == [0, 1, 2]


def test_family_unknown_id(capsys):
    code, _, err = run(
        ["family", "nope", "--n", "8", "--k", "2", "--delta", "3", "--g", "1"], capsys
    )
    assert code == 1
    assert "unknown family id" in err


def test_family_infeasible_params(capsys):
    code, _, err = run(
        ["family", "zero-delta", "--n", "9", "--k", "1", "--delta", "2", "--g", "1"],
        capsys,
    )
    assert code == 1
    assert "delta < g" in err


def test_transform_rotate(capsys):
    record = graph6_encode(cycle_graph(5))
    code, out, _ = run(["transform", "rotate", record, "--u", "0", "--v", "2", "--moved", "3"], capsys)
    assert code == 0
    got = graph6_decode(out.strip())
    assert sorted(got.edges()) == [(0, 1), (0, 3), (0, 4), (1, 2), (3, 4)]


def test_transform_rotate_prints_orders_past_62(capsys):
    # the rotated C63 is written with graph6's long size header
    record = graph6_encode(cycle_graph(63))
    code, out, _ = run(["transform", "rotate", record, "--u", "0", "--v", "2", "--moved", "3"], capsys)
    assert code == 0
    assert out.startswith("~??~")
    got = graph6_decode(out.strip())
    assert set(got.edges()) == set(cycle_graph(63).edges()) - {(2, 3)} | {(0, 3)}


def test_transform_rotate_with_check(capsys):
    record = graph6_encode(cycle_graph(5))
    code, out, _ = run(
        ["transform", "rotate", record, "--u", "0", "--v", "2", "--moved", "3", "--check"],
        capsys,
    )
    assert code == 0
    assert "rho_before" in out and "rho_after" in out


def test_transform_rotate_rejects_vertices_outside_the_graph(capsys):
    for flags, bad in (
        (["--u", "9", "--v", "0", "--moved", "1"], 9),
        (["--u", "-1", "--v", "0", "--moved", "1"], -1),
        (["--u", "0", "--v", "-2", "--moved", "1"], -2),
        (["--u", "0", "--v", "1", "--moved", "-1"], -1),
        (["--u", "0", "--v", "1", "--moved", "2,1000000000"], 1000000000),
    ):
        code, out, err = run(["transform", "rotate", "D~{", *flags], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: vertex {bad} is not in 0..4\n"


def test_transform_rotate_check_rejects_a_disconnected_host(capsys):
    # K4 + P3: a usage error, not a counterexample
    code, out, err = run(["transform", "rotate", "FgCWw", "--u", "0", "--v", "1",
                          "--moved", "2", "--check"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: the host graph must be connected\n"


def test_transform_monotone(capsys):
    host = graph6_encode(complete_graph(5))
    sub = graph6_encode(complete_graph(4))
    code, out, _ = run(["transform", "monotone", host, sub], capsys)
    assert code == 0
    assert "margin=" in out


def test_transform_rebalance(capsys):
    code, out, _ = run(["transform", "rebalance", "--s", "2", "--parts", "3,3", "--p", "2"], capsys)
    assert code == 0
    assert "rho_after" in out


def test_transform_rebalance_rejects_empty_parts(capsys):
    code, out, err = run(["transform", "rebalance", "--s", "1", "--parts", "", "--p", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_transform_rebalance_rejects_p_below_one(capsys):
    code, out, err = run(["transform", "rebalance", "--s", "1", "--parts", "3,2", "--p", "0"],
                         capsys)
    assert code == 1
    assert out == ""
    assert err == "error: p must be >= 1, got 0\n"


def test_transform_fuzz(capsys):
    code, out, _ = run(["transform", "fuzz", "--trials", "25", "--seed", "5", "--max-n", "7"], capsys)
    assert code == 0
    assert "violations" in out


def test_transform_fuzz_rejects_max_n_outside_the_orders_it_draws(capsys):
    # rotation fuzz, which runs first, draws orders 4..max_n; a graph has at
    # most 64 vertices
    for max_n in ("3", "2", "65", "80"):
        code, out, err = run(["transform", "fuzz", "--trials", "20", "--seed", "2",
                              "--max-n", max_n], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: fuzz orders start at 4, so max_n must be in 4..64, got {max_n}\n"


def test_transform_fuzz_rejects_trials_below_one(capsys):
    for trials in ("0", "-3"):
        code, out, err = run(["transform", "fuzz", "--trials", trials, "--max-n", "5"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: trials must be >= 1, got {trials}\n"


def test_enum_to_stdout(capsys):
    code, out, _ = run(["enum", "--n", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(graph6_decode(line).n == 4 for line in lines)


def test_enum_to_file(tmp_path, capsys):
    target = tmp_path / "n5.g6"
    code, _, _ = run(["enum", "--n", "5", "--out", str(target)], capsys)
    assert code == 0
    assert len(target.read_text().strip().splitlines()) == 21


def test_enum_usage_error_leaves_out_file(tmp_path, capsys):
    target = tmp_path / "kept.g6"
    target.write_text("kept\n")
    code, _, err = run(["enum", "--n", "10", "--out", str(target)], capsys)
    assert code == 1
    assert "capped" in err
    assert target.read_text() == "kept\n"


def test_verify_streams_input_and_reports_bad_lines(tmp_path, capsys, monkeypatch):
    import specconn.cli as cli
    from specconn.graphs import path_graph

    lines = [graph6_encode(g) for g in connected_census(6)]
    path = tmp_path / "census6.g6"
    path.write_text("\n".join(lines[:3] + ["bad!"] + lines[3:]) + "\n")
    sources = []
    real = cli.run_verification

    def spy(*args, source=None, **kwargs):
        sources.append(source)
        return real(*args, source=source, **kwargs)

    monkeypatch.setattr(cli, "run_verification", spy)
    argv = ["verify", "--n", "6", "--g", "0", "--r", "2", "--all-classes", "--input", str(path)]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert out.count("[CONFIRMED]") == 6
    assert f"warning: {path}:4: " in err
    # the file reaches the scan as an iterator, not a list held whole
    assert iter(sources[0]) is sources[0]
    # the warning is printed also when the scan stops on an error
    path.write_text("\n".join(lines[:3] + ["bad!", graph6_encode(path_graph(5))]) + "\n")
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "expected 6" in err
    assert f"warning: {path}:4: " in err


def test_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-2"):
        code, out, err = run(["verify", "--n", "5", "--g", "1", "--all-classes",
                              "--jobs", jobs], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: jobs must be >= 1, got {jobs}\n"


def test_verify_rejects_a_source_with_no_graph(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    bad = tmp_path / "bad.g6"
    bad.write_text("bad!\n")
    argv = ["verify", "--n", "10", "--g", "1", "--all-classes", "--input"]
    code, out, err = run(argv + [str(empty)], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: the source holds no graph of order 10\n"
    # the bad line's warning comes first, then the error
    code, out, err = run(argv + [str(bad)], capsys)
    assert code == 1
    assert out == ""
    warning, error = err.splitlines()
    assert warning.startswith(f"warning: {bad}:1: ")
    assert error == "error: the source holds no graph of order 10"


def test_verify_single_cell_json_csv(tmp_path, capsys):
    out_json = tmp_path / "cell.json"
    out_csv = tmp_path / "cell.csv"
    code, out, _ = run(
        ["verify", "--n", "7", "--g", "0", "--r", "2", "--delta", "2", "--k", "2",
         "--json", str(out_json), "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert "[CONFIRMED]" in out
    data = json.loads(out_json.read_text())
    assert len(data) == 1 and data[0]["isomorphic"] is True
    assert out_csv.read_text().count("\n") == 2


def test_verify_all_classes(capsys):
    code, out, _ = run(["verify", "--n", "6", "--g", "0", "--r", "2", "--all-classes"], capsys)
    assert code == 0
    assert out.count("[CONFIRMED]") == 6


def test_verify_usage_errors(capsys):
    code, _, err = run(["verify", "--n", "6", "--g", "0"], capsys)
    assert code == 1
    code, _, err = run(["verify", "--n", "6", "--g", "0", "--delta", "2"], capsys)
    assert code == 1
    code, _, err = run(["verify", "--n", "10", "--g", "0", "--all-classes"], capsys)
    assert code == 1
    assert "--input" in err


def test_verify_out_of_hypothesis_cell_is_a_usage_error(capsys):
    code, out, err = run(
        ["verify", "--n", "6", "--g", "2", "--r", "2", "--delta", "2", "--k", "2"], capsys
    )
    assert code == 1
    assert out == ""
    assert "outside the hypothesis" in err and "no graph is in it" in err


def test_verify_ingested_file(tmp_path, capsys):
    path = tmp_path / "census6.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in connected_census(6)))
    code, out, _ = run(
        ["verify", "--n", "6", "--g", "0", "--r", "2", "--all-classes", "--input", str(path)],
        capsys,
    )
    assert code == 0
    assert out.count("[CONFIRMED]") == 6


def test_verify_names_a_disconnected_input_graph(tmp_path, capsys):
    # geng output without -c holds disconnected graphs; the error names the
    # first one in the file
    lines = [graph6_encode(g) for g in connected_census(6)[:40]]
    lines[25:25] = ["EhC?", "EwCW"]  # P5 plus an isolated vertex, then 2K3
    path = tmp_path / "mixed.g6"
    path.write_text("".join(line + "\n" for line in lines))
    code, out, err = run(
        ["verify", "--n", "6", "--g", "1", "--r", "2", "--all-classes", "--input", str(path)],
        capsys,
    )
    assert code == 1
    assert err == "error: cut search expects a connected graph, got EhC?\n"


def test_verify_incomplete_census_exits_two(tmp_path, capsys):
    from specconn.graphs import path_graph, complete_bipartite

    path = tmp_path / "partial.g6"
    path.write_text(
        graph6_encode(path_graph(6)) + "\n" + graph6_encode(complete_bipartite(1, 5)) + "\n"
    )
    code, out, _ = run(
        ["verify", "--n", "6", "--g", "0", "--r", "2", "--delta", "1", "--k", "1",
         "--input", str(path)],
        capsys,
    )
    assert code == 2
    assert "[FAILED]" in out


def test_verify_neighbor_mode(capsys):
    code, out, _ = run(
        ["verify", "--n", "6", "--g", "1", "--r", "2", "--mode", "neighbor", "--all-classes"],
        capsys,
    )
    assert code == 0
    assert "[CONFIRMED]" in out


def test_verify_neighbor_mode_rejects_r_three(capsys):
    code, out, err = run(
        ["verify", "--n", "7", "--g", "0", "--r", "3", "--mode", "neighbor", "--all-classes"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "neighbor mode" in err and "r = 3" in err


def test_verify_all_classes_with_no_possible_class_is_a_usage_error(capsys):
    # by the cut-size lemma no class is nonempty when n <= r(g+1): a scan
    # that could verify nothing is refused before it starts
    for argv in (["--n", "5", "--g", "2", "--r", "2"], ["--n", "6", "--g", "1", "--r", "3"],
                 ["--n", "4", "--g", "1", "--r", "2", "--mode", "neighbor"]):
        code, out, err = run(["verify", *argv, "--all-classes"], capsys)
        assert code == 1
        assert out == ""
        assert "n <= r(g+1)" in err and "nothing to verify" in err


def test_verify_input_with_no_class_member_exits_one(tmp_path, capsys):
    # K5 has no cut, so this one-graph --input puts nothing in any class
    path = tmp_path / "complete.g6"
    path.write_text(graph6_encode(complete_graph(5)) + "\n")
    code, out, err = run(["verify", "--n", "5", "--g", "0", "--r", "2", "--all-classes",
                          "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "nothing was verified" in err


def test_transform_checks_label_certified_bounds(capsys):
    # a bracket that decides the check prints its bound, not an equality
    code, out, _ = run(["transform", "rotate", graph6_encode(cycle_graph(5)),
                        "--u", "0", "--v", "2", "--moved", "3", "--check"], capsys)
    assert code == 0
    before, after = out.splitlines()[:2]
    assert before.startswith("rho_before=") and after.startswith("rho_after>=")
    assert float(after.split(">=")[1]) > float(before.split("=")[1]) + 1e-10
    code, out, _ = run(["transform", "monotone", graph6_encode(complete_graph(5)),
                        graph6_encode(complete_graph(4))], capsys)
    assert code == 0
    sub, host, margin = out.splitlines()
    assert sub.startswith("rho_subgraph<=3.0") and host.startswith("rho_host=")
    assert margin.startswith("margin=") and float(margin.split("=")[1]) > 0.99
