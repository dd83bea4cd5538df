import gc
import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from edgecolor import cli, engine, generators
from edgecolor.cli import cli_main


def run_cli(*argv):
    return cli_main(list(argv))


def _blas_threads_seen_by_main(monkeypatch):
    """The OPENBLAS_NUM_THREADS value a command sees when main() runs it."""
    seen = []

    def spy(args):
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return 0

    monkeypatch.setitem(cli._COMMANDS, "gen", spy)
    monkeypatch.setattr(sys, "argv", ["edgecolor", "gen", "--model", "complete", "--n", "4"])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 0
    assert gc.get_freeze_count() == 0  # the freeze waits for the interpreter's exit
    return seen


def test_main_caps_blas_threads_unless_set(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")  # restored after the test
    assert _blas_threads_seen_by_main(monkeypatch) == ["3"]
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert _blas_threads_seen_by_main(monkeypatch) == ["1"]


def test_cli_main_leaves_the_environment_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    graph = str(tmp_path / "g.txt")
    assert run_cli("gen", "--model", "complete", "--n", "4", "--out", graph) == 0
    assert run_cli("color", "--input", graph, "--output", str(tmp_path / "c.txt")) == 0
    assert run_cli("verify", "--input", graph, "--coloring", str(tmp_path / "c.txt")) == 0
    assert dict(os.environ) == before
    assert gc.get_freeze_count() == 0


def test_main_freezes_the_collector_only_at_exit():
    # The collector runs as usual during the command; gc.freeze runs as the
    # interpreter exits (before a hook registered ahead of main()'s own).
    code = ("import atexit, gc, sys\n"
            "from edgecolor import cli\n"
            "atexit.register(lambda: print('at exit', gc.get_freeze_count() > 0))\n"
            "def spy(args):\n"
            "    print('in command', gc.isenabled(), gc.get_freeze_count())\n"
            "    return 0\n"
            "cli._COMMANDS['gen'] = spy\n"
            "sys.argv = ['edgecolor', 'gen', '--model', 'complete', '--n', '4']\n"
            "cli.main()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.splitlines()) == (0, ["in command True 0", "at exit True"])


def test_verify_program_prints_and_exits_as_cli_main(tmp_path, monkeypatch, capsys):
    # python -m edgecolor verify: 0 for OK, 1 for an improper coloring, 2 for
    # a usage error, with the output cli_main gives in-process.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this width
    graph, good, bad = (str(tmp_path / name) for name in ("g.txt", "c.txt", "bad.txt"))
    assert run_cli("gen", "--model", "hypercube", "--dim", "4", "--out", graph) == 0
    assert run_cli("color", "--input", graph, "--seed", "3", "--output", good) == 0
    lines = (tmp_path / "c.txt").read_text().splitlines()
    (tmp_path / "bad.txt").write_text("".join(line.rsplit(" ", 1)[0] + " 1\n" for line in lines))
    for argv, code in ((["verify", "--input", graph, "--coloring", good], 0),
                       (["verify", "--input", graph, "--coloring", bad], 1),
                       (["verify", "--input", graph], 2)):
        capsys.readouterr()
        assert run_cli(*argv) == code
        expected = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "edgecolor", *argv], capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)


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
    assert out.read_text().splitlines()[0].startswith("model,n,m,delta,")
    assert capsys.readouterr().out.startswith(
        "n epsilon runs fallbacks median_us_per_edge median_total_us\n")


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
    # There is no mode without the fallback: the old flag is a usage error.
    assert run_cli("color", "--input", str(graph), "--seed", "1", "--no-fallback",
                   "--output", str(tmp_path / "c2.txt")) == 2
    assert not (tmp_path / "c2.txt").exists()


def test_fallback_after_failed_attempts_on_stderr(tmp_path, capsys):
    # eps*D/6 = 1, so the attempt is made; with seed 255 it fails and Vizing
    # colors the graph.
    graph = tmp_path / "g.txt"
    run_cli("gen", "--model", "random_regular", "--n", "200", "--d", "12", "--seed", "1",
            "--out", str(graph))
    capsys.readouterr()
    assert run_cli("color", "--input", str(graph), "--seed", "255", "--max-restarts", "0",
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


def test_color_huge_kappa_const_is_clamped(tmp_path, capsys):
    # kappa is clamped to q1 * (ln q1 + 1) before anything is sized by it, so
    # a huge finite constant colors the graph instead of overflowing.
    graph = _graph(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "edgecolor", "color", "--input", graph, "--kappa-const", "1e300",
         "--output", str(tmp_path / "c.txt"), "--stats", str(tmp_path / "s.txt")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    # K4: D = 3, q1 = 4, and 4 * (ln 4 + 1) = 9.5 rounds up to 10.
    assert "kappa=10\n" in (tmp_path / "s.txt").read_text()
    capsys.readouterr()
    assert run_cli("verify", "--input", graph, "--coloring", str(tmp_path / "c.txt")) == 0


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


def _unreachable(*args):
    raise AssertionError("a generator ran on a spec its check should refuse")


@pytest.mark.parametrize("params", [
    ("gnp", "--n", "3000000000", "--p", "1e-10"),
    ("random_regular", "--n", str(2**31 + 2), "--d", "2"),
    ("random_regular", "--n", "100000", "--d", "50000"),  # 2.5e9 edges
    ("complete", "--n", str(2**31 + 1)),
    ("complete", "--n", "65537"),  # 2**31 + 2**15 edges
    ("complete", "--n", "100000"),
    ("complete_bipartite", "--a", str(2**31), "--b", "1"),
    ("complete_bipartite", "--a", "65536", "--b", "32768"),  # 2**31 edges
    ("hypercube", "--dim", "40"),
    ("hypercube", "--dim", "28"),  # 28 * 2**27 edges
])
def test_gen_refuses_graphs_too_large_to_hold(tmp_path, capsys, monkeypatch, params):
    # Refused by the spec check, before any generator allocates.
    for model in generators.MODELS:
        monkeypatch.setattr(generators, model, _unreachable)
    _assert_usage_error(capsys, "gen", "--model", *params, "--out", str(tmp_path / "g.txt"))
    assert not (tmp_path / "g.txt").exists()


def _no_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command", ["gen", "color"])
def test_out_of_memory_is_one_line_failure(tmp_path, capsys, monkeypatch, command):
    graph = _graph(tmp_path)
    monkeypatch.setattr(generators, "generate", _no_memory)
    monkeypatch.setattr(engine, "run_full", _no_memory)
    capsys.readouterr()
    argv = (["gen", "--model", "complete", "--n", "4"] if command == "gen"
            else ["color", "--input", graph])
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the edge list, the coloring, the --stats file and the stderr of
# verify on an all-1 coloring, then verify's stdout: for the gen file, and
# for the same graph with each label i written as v<i>.
_PINNED = {
    "ints": ("62b9811384189cb1f5cf45fd91ef31917a7f27ed3144a1c5f6e4c124a42e942e",
             "0af8396ba2197889e2bfa5d9a07b029e3f654fca899404d4b16f95f9ccb0e4e8",
             "9107fcb35a01a14770ce6aadf1ae10403c154c8f2b2d4e37962cd74cbf4f0e0e",
             "d8f17bc9b4c54c2b8fe7a0640e9df19db0eb662e3850c713a7119a18bfe7ee91",
             "OK: 600 edges, 5 max color\n"),
    "v-labels": ("5805fbd6aa884d4d7c041330f97b123e25f01d7038f0de9a4da65c6dba781d16",
                 "20a11828b4f9b87a51d9733fcdc0c4f26cca5fec29e62f58ca974e9616badc6b",
                 "9107fcb35a01a14770ce6aadf1ae10403c154c8f2b2d4e37962cd74cbf4f0e0e",
                 "27878f250328e4fccd69b931259b8b76bf997d81420b6c9565eeae78a301a8db",
                 "OK: 600 edges, 5 max color\n"),
}


@pytest.mark.parametrize("labels", sorted(_PINNED))
def test_cli_file_bytes_are_pinned(tmp_path, capsys, labels):
    graph = tmp_path / "g.txt"
    assert run_cli("gen", "--model", "random_regular", "--n", "300", "--d", "4", "--seed", "1",
                   "--out", str(graph)) == 0
    if labels == "v-labels":
        pairs = map(str.split, graph.read_text().splitlines())
        graph.write_text("".join(f"v{u} v{v}\n" for u, v in pairs))
    coloring, stats, all_ones = tmp_path / "c.txt", tmp_path / "s.txt", tmp_path / "ones.txt"
    assert run_cli("color", "--input", str(graph), "--seed", "1", "--output", str(coloring),
                   "--stats", str(stats)) == 0
    all_ones.write_text("".join(line.rsplit(" ", 1)[0] + " 1\n"
                                for line in coloring.read_text().splitlines()))
    capsys.readouterr()
    assert run_cli("verify", "--input", str(graph), "--coloring", str(all_ones)) == 1
    conflicts = hashlib.sha256(capsys.readouterr().err.encode()).hexdigest()
    assert run_cli("verify", "--input", str(graph), "--coloring", str(coloring)) == 0
    got = (_sha256(graph), _sha256(coloring), _sha256(stats), conflicts, capsys.readouterr().out)
    assert got == _PINNED[labels]


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


@pytest.mark.parametrize("flag, derived", [("--ell-const", "ell"), ("--t-const", "rounds")])
def test_color_overflowing_constant_is_clamped(tmp_path, capsys, flag, derived):
    # On K40, 1e308 times kappa**2 (or ln D) is inf as a float; the derived
    # cap is clamped to 2**31 - 1 before rounding, so the run colors.
    graph = tmp_path / "g.txt"
    run_cli("gen", "--model", "complete", "--n", "40", "--out", str(graph))
    coloring = str(tmp_path / "c.txt")
    assert run_cli("color", "--input", str(graph), "--output", coloring, flag, "1e308",
                   "--stats", str(tmp_path / "s.txt")) == 0
    assert f"\n{derived}=2147483647\n" in (tmp_path / "s.txt").read_text()
    capsys.readouterr()
    assert run_cli("verify", "--input", str(graph), "--coloring", coloring) == 0
    assert capsys.readouterr().out.startswith("OK: 780 edges")


def test_color_tiny_epsilon_keeps_the_extra_color(tmp_path, capsys):
    # eps*D = 2e-12 is positive, so the budget is ceil((1 + eps) * 2) = 3, not 2.
    graph = tmp_path / "g.txt"
    run_cli("gen", "--model", "complete", "--n", "3", "--out", str(graph))
    capsys.readouterr()
    assert run_cli("color", "--input", str(graph), "--epsilon", "1e-12",
                   "--output", str(tmp_path / "c.txt"), "--stats", str(tmp_path / "s.txt")) == 0
    assert "3 colors (budget 3," in capsys.readouterr().err
    assert "\nq_cap=3\n" in (tmp_path / "s.txt").read_text()


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


@pytest.mark.parametrize("command, bad_flag", [
    ("color", "--input"),
    ("verify", "--input"),
    ("verify", "--coloring"),
    ("oracle", "--input"),
])
def test_non_utf8_file_is_one_line_failure(tmp_path, capsys, command, bad_flag):
    graph = _graph(tmp_path)
    coloring = tmp_path / "c.txt"
    assert run_cli("color", "--input", graph, "--seed", "1", "--output", str(coloring)) == 0
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n\xff 2\n")
    paths = {"--input": graph, "--coloring": str(coloring), bad_flag: str(bad)}
    argv = [command, "--input", paths["--input"]]
    if command == "verify":
        argv += ["--coloring", paths["--coloring"]]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(bad) in err and "UTF-8" in err


# Every stderr line of color, verify and oracle starts with one of these.
_STDERR_PREFIXES = ("error:", "conflict:", "incomplete:", "restart:", "fallback:", "colored")

_FUZZ_LINE = st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"),
                       st.sampled_from(["", " 1", " 2", " 3", " 0", " -1", " x", " 1 2"]))
# File bytes: edge-list or coloring lines over four labels (often valid),
# any text, or any bytes (non-UTF-8 included).
_FUZZ_FILES = st.one_of(
    st.lists(_FUZZ_LINE.map("{0[0]} {0[1]}{0[2]}".format), max_size=8).map("\n".join).map(str.encode),
    st.text(max_size=40).map(str.encode),
    st.binary(max_size=40),
)


@given(graph=_FUZZ_FILES, coloring=_FUZZ_FILES)
@settings(max_examples=150, deadline=None)
def test_cli_exit_codes_on_any_file(tmp_path_factory, graph, coloring):
    work = tmp_path_factory.mktemp("fuzz")
    g, c, out = (str(work / name) for name in ("g.txt", "c.txt", "out.txt"))
    (work / "g.txt").write_bytes(graph)
    (work / "c.txt").write_bytes(coloring)
    for argv in (["verify", "--input", g, "--coloring", c],
                 ["color", "--input", g, "--seed", "1", "--output", out],
                 ["verify", "--input", g, "--coloring", out],
                 ["oracle", "--input", g]):
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        assert code in (0, 1), (argv, code)
        for line in err.getvalue().splitlines():
            assert line.startswith(_STDERR_PREFIXES), (argv, line)
