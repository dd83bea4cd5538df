import subprocess
import sys

import pytest

from edgecolor.cli import cli_main


def run_cli(*argv):
    return cli_main(list(argv))


def test_usage_error_exit_code(capsys):
    assert run_cli("color") == 2  # missing --input
    assert run_cli("definitely-not-a-command") == 2
    capsys.readouterr()


def test_gen_color_verify_pipeline(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    coloring = tmp_path / "c.txt"
    stats = tmp_path / "s.txt"
    assert run_cli("gen", "--model", "complete", "--n", "4", "--out", str(graph)) == 0
    assert run_cli(
        "color", "--input", str(graph), "--epsilon", "0.5", "--seed", "3",
        "--output", str(coloring), "--stats", str(stats),
    ) == 0
    assert run_cli("verify", "--input", str(graph), "--coloring", str(coloring)) == 0
    out = capsys.readouterr()
    assert "OK" in out.out
    assert "fallback_used=" in stats.read_text()


def test_verify_rejects_corrupted_coloring(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    coloring = tmp_path / "c.txt"
    run_cli("gen", "--model", "complete", "--n", "4", "--out", str(graph))
    run_cli("color", "--input", str(graph), "--seed", "1", "--output", str(coloring))
    lines = coloring.read_text().strip().splitlines()
    # force two incident edges onto the same color
    u, v, _ = lines[0].split()
    w, z, c2 = lines[1].split()
    assert u in (w, z) or v in (w, z)
    lines[0] = f"{u} {v} {c2}"
    coloring.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--input", str(graph), "--coloring", str(coloring)) == 1
    err = capsys.readouterr().err
    assert "conflict" in err


def test_verify_rejects_incomplete_coloring(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    coloring = tmp_path / "c.txt"
    run_cli("gen", "--model", "complete", "--n", "3", "--out", str(graph))
    run_cli("color", "--input", str(graph), "--seed", "1", "--output", str(coloring))
    lines = coloring.read_text().strip().splitlines()
    u, v, _ = lines[0].split()
    lines[0] = f"{u} {v} 0"
    coloring.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--input", str(graph), "--coloring", str(coloring)) == 1
    assert "incomplete" in capsys.readouterr().err


def test_oracle_command(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--model", "complete", "--n", "4", "--out", str(graph))
    assert run_cli("oracle", "--input", str(graph)) == 0
    assert "chromatic_index 3" in capsys.readouterr().out


def test_oracle_too_large_is_failure(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--model", "complete", "--n", "7", "--out", str(graph))
    assert run_cli("oracle", "--input", str(graph)) == 1
    capsys.readouterr()


def test_malformed_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a a\n")
    assert run_cli("color", "--input", str(bad)) == 1
    capsys.readouterr()


def test_bench_command(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli(
        "bench", "--sizes", "200,400", "--epsilons", "0.5", "--trials", "1",
        "--delta", "10", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    assert out.read_text().splitlines()[0].startswith("instance,")
    assert "median_us_per_edge" in capsys.readouterr().out


def test_seed_env_var_with_flag_override(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--model", "gnp", "--n", "30", "--p", "0.3", "--seed", "1",
            "--out", str(graph))
    c1 = tmp_path / "c1.txt"
    c2 = tmp_path / "c2.txt"
    c3 = tmp_path / "c3.txt"
    monkeypatch.setenv("EDGECOLOR_SEED", "7")
    run_cli("color", "--input", str(graph), "--output", str(c1))
    monkeypatch.setenv("EDGECOLOR_SEED", "8")
    run_cli("color", "--input", str(graph), "--output", str(c2))
    run_cli("color", "--input", str(graph), "--seed", "7", "--output", str(c3))
    assert c1.read_text() != c2.read_text()
    assert c1.read_text() == c3.read_text()  # flag wins and matches env seed 7
    capsys.readouterr()


def test_round_trip_verify_stable(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    coloring = tmp_path / "c.txt"
    run_cli("gen", "--model", "hypercube", "--dim", "4", "--out", str(graph))
    run_cli("color", "--input", str(graph), "--seed", "5", "--output", str(coloring))
    assert run_cli("verify", "--input", str(graph), "--coloring", str(coloring)) == 0
    text = coloring.read_text()
    coloring.write_text(text)  # rewrite and verify again
    assert run_cli("verify", "--input", str(graph), "--coloring", str(coloring)) == 0
    capsys.readouterr()


def test_two_processes_byte_identical(tmp_path):
    graph = tmp_path / "g.txt"
    assert run_cli("gen", "--model", "gnp", "--n", "60", "--p", "0.2", "--seed", "3",
                   "--out", str(graph)) == 0
    outputs = []
    for i in (1, 2):
        coloring = tmp_path / f"c{i}.txt"
        stats = tmp_path / f"s{i}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "edgecolor", "color", "--input", str(graph),
             "--epsilon", "0.5", "--seed", "7", "--output", str(coloring),
             "--stats", str(stats)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((coloring.read_bytes(), stats.read_bytes()))
    assert outputs[0] == outputs[1]


def test_restart_causes_and_fallback_on_stderr(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--model", "random_regular", "--n", "300", "--d", "4", "--seed", "1",
            "--out", str(graph))
    capsys.readouterr()
    assert run_cli("color", "--input", str(graph), "--seed", "1",
                   "--output", str(tmp_path / "c.txt")) == 0
    err = capsys.readouterr().err.splitlines()
    # eps*D/6 < 1: no stage-1 attempt is made, so no attempt can fail.
    assert not [line for line in err if line.startswith("restart: ")]
    assert [line for line in err if line.startswith("fallback: ")] == [
        "fallback: eps*D/6 = 0.333 < 1; Vizing coloring with D+1 = 5 colors (budget 6)"]
    assert run_cli("color", "--input", str(graph), "--seed", "1", "--no-fallback",
                   "--output", str(tmp_path / "c2.txt")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("restart: ")]) == 4
    assert all("exceeds eps*D/6 = 0.333 after" in line for line in err[:4])
    assert err[-1].startswith("FAIL: all 4 attempts failed")


def test_fallback_after_failed_attempts_on_stderr(tmp_path, capsys):
    # eps*D/6 = 1, so the attempt is made; it fails and Vizing colors the graph.
    graph = tmp_path / "g.txt"
    run_cli("gen", "--model", "random_regular", "--n", "200", "--d", "12", "--seed", "1",
            "--out", str(graph))
    capsys.readouterr()
    assert run_cli("color", "--input", str(graph), "--seed", "0", "--max-restarts", "0",
                   "--output", str(tmp_path / "c.txt")) == 0
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("restart: attempt 0: ")]) == 1
    assert [line for line in err if line.startswith("fallback: ")] == [
        "fallback: all 1 attempts failed; Vizing coloring with D+1 = 13 colors (budget 18)"]
    assert run_cli("verify", "--input", str(graph), "--coloring", str(tmp_path / "c.txt")) == 0


def _assert_usage_error(capsys, *argv):
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _graph(tmp_path):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--model", "complete", "--n", "4", "--out", str(graph))
    return str(graph)


@pytest.mark.parametrize("params", [
    ("gnp", "--n", "-1", "--p", "0.5"),
    ("gnp", "--n", "5", "--p", "1.5"),
    ("random_regular", "--n", "5", "--d", "3"),
    ("hypercube", "--dim", "0"),
    ("complete_bipartite", "--a", "-1", "--b", "2"),
])
def test_gen_bad_parameters_are_usage_errors(tmp_path, capsys, params):
    _assert_usage_error(capsys, "gen", "--model", *params, "--out", str(tmp_path / "g.txt"))
    assert not (tmp_path / "g.txt").exists()


def test_color_epsilon_out_of_range_is_usage_error(tmp_path, capsys):
    _assert_usage_error(capsys, "color", "--input", _graph(tmp_path), "--epsilon", "1.5")


@pytest.mark.parametrize("flag, value", [
    ("--t-const", "inf"), ("--kappa-const", "inf"), ("--ell-const", "inf"), ("--t-const", "nan"),
])
def test_color_non_finite_constant_is_usage_error(tmp_path, capsys, flag, value):
    _assert_usage_error(capsys, "color", "--input", _graph(tmp_path), flag, value)


@pytest.mark.parametrize("flags", [("--t-const", "1e300"), ("--ell-const", "1e300"),
                                   ("--t-const", "1e300", "--ell-const", "1e300")])
def test_color_huge_constants_still_color(tmp_path, capsys, flags):
    graph = _graph(tmp_path)
    coloring = str(tmp_path / "c.txt")
    assert run_cli("color", "--input", graph, "--output", coloring, *flags) == 0
    assert run_cli("verify", "--input", graph, "--coloring", coloring) == 0
    assert capsys.readouterr().out.startswith("OK: 6 edges")


def test_color_negative_max_restarts_is_usage_error(tmp_path, capsys):
    _assert_usage_error(capsys, "color", "--input", _graph(tmp_path), "--max-restarts", "-1")


def test_color_negative_seed_is_usage_error(tmp_path, capsys):
    _assert_usage_error(capsys, "color", "--input", _graph(tmp_path), "--seed", "-1")


def test_non_integer_seed_env_var_is_usage_error(tmp_path, monkeypatch, capsys):
    graph = _graph(tmp_path)
    monkeypatch.setenv("EDGECOLOR_SEED", "abc")
    _assert_usage_error(capsys, "color", "--input", graph)


def test_bench_empty_epsilons_is_usage_error(tmp_path, capsys):
    _assert_usage_error(capsys, "bench", "--sizes", "200", "--epsilons", "", "--trials", "1",
                        "--out", str(tmp_path / "b.csv"))


def test_bench_non_numeric_sizes_is_usage_error(tmp_path, capsys):
    _assert_usage_error(capsys, "bench", "--sizes", "x", "--epsilons", "0.5", "--trials", "1",
                        "--out", str(tmp_path / "b.csv"))


def test_bench_zero_delta_is_usage_error(tmp_path, capsys):
    _assert_usage_error(capsys, "bench", "--sizes", "100", "--epsilons", "0.5", "--trials", "1",
                        "--delta", "0", "--out", str(tmp_path / "b.csv"))


def test_bench_negative_trials_is_usage_error(tmp_path, capsys):
    _assert_usage_error(capsys, "bench", "--sizes", "100", "--epsilons", "0.5", "--trials", "-1",
                        "--out", str(tmp_path / "b.csv"))


@pytest.mark.parametrize("sizes", ["0", "-5", "100,0"])
def test_bench_non_positive_sizes_is_usage_error(tmp_path, capsys, sizes):
    _assert_usage_error(capsys, "bench", "--sizes", sizes, "--epsilons", "0.5", "--trials", "1",
                        "--out", str(tmp_path / "b.csv"))
