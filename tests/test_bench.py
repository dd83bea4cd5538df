import csv
import io
from dataclasses import replace

from edgecolor import RunConfig, RunStats, run_full
from edgecolor.bench import _make_instance, bench_sweep, summarize, write_csv


def _keys(stats: RunStats) -> list[str]:
    return [line.split("=", 1)[0] for line in stats.to_text(include_timings=True).splitlines()]


def test_zero_trials_header_only(tmp_path):
    out = tmp_path / "bench.csv"
    records = bench_sweep([1000], [0.5], 0, RunConfig(epsilon=0.5, seed=1), out=str(out))
    assert records == []
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == ["model"] + _keys(RunStats())


def test_sweep_schema_and_determinism(tmp_path):
    cfg = RunConfig(epsilon=0.5, seed=4)
    records = bench_sweep([400, 800], [0.5], 2, cfg, delta=20)
    assert len(records) == 4
    buf = io.StringIO()
    write_csv(buf, records, "random_regular")
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["model"] + _keys(records[0])
    assert len(rows) == 5
    for row, r in zip(rows[1:], records):
        assert row == ["random_regular"] + [v for _, v in r.items()]
    # same config, same seeds: identical instances and outcomes
    again = bench_sweep([400, 800], [0.5], 2, cfg, delta=20)
    for a, b in zip(records, again):
        assert a.to_text(include_timings=False) == b.to_text(include_timings=False)


def test_records_reflect_run(tmp_path):
    cfg = RunConfig(epsilon=0.5, seed=9)
    records = bench_sweep([500], [0.5], 1, cfg, delta=10)
    (r,) = records
    assert r.delta == 10 and r.epsilon == 0.5
    assert abs(r.m - 500) <= r.n  # n*d/2 rounds to the target
    # eps*D/6 < 1: Vizing colors the graph with D+1 colors, no attempt made.
    assert r.fallback_used and r.restarts_used == 0
    assert r.max_color_used <= 11
    assert r.total_us > 0
    g = _make_instance("random_regular", 500, 10, r.seed)
    _, direct = run_full(g, replace(cfg, seed=r.seed))
    assert r.to_text(include_timings=False) == direct.to_text(include_timings=False)


def test_summarize_lists_groups():
    cfg = RunConfig(epsilon=0.5, seed=2)
    records = bench_sweep([300], [0.5, 0.2], 2, cfg, delta=10)
    lines = summarize(records).strip().splitlines()
    assert lines[0] == "n epsilon runs fallbacks median_us_per_edge median_total_us"
    # eps*D/6 < 1 at both epsilons: every run falls back, and still counts.
    n = records[0].n
    assert [line.split()[:4] for line in lines[1:]] == [[str(n), "0.2", "2", "2"],
                                                       [str(n), "0.5", "2", "2"]]
