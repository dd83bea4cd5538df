import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest

from edgecolor import (
    FLAGGED,
    ColoringFailed,
    ColoringState,
    EmptyPool,
    FlagReason,
    InsufficientColors,
    RunConfig,
    RunStats,
    brute_chromatic_index,
    build_graph,
    color_one,
    edge_color,
    engine,
    flagged_subgraph,
    greedy_color,
    run_full,
    sample_palette,
    validate_proper,
    vizing_color,
)
from edgecolor.generators import complete, complete_bipartite, gnp, random_regular
from helpers import (
    CountingRng,
    blank_edges,
    check_color_one_contract,
    dom_and_flg,
    random_graph,
    random_partial_state,
    rng_for,
    traced_memory,
)


def cycle(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(epsilon=0.0).check()
    with pytest.raises(ValueError):
        RunConfig(epsilon=1.0).check()
    for bad in (0, math.inf, math.nan):
        for name in ("kappa_const", "ell_const", "t_const"):
            with pytest.raises(ValueError, match=name):
                RunConfig(epsilon=0.5, **{name: bad}).check()
    with pytest.raises(ValueError):
        RunConfig(epsilon=0.5, max_restarts=-1).check()
    RunConfig(epsilon=0.5).check()


def test_config_derived_values():
    cfg = RunConfig(epsilon=0.5)
    assert cfg.kappa(400) == math.ceil(4 * math.log(400) / 0.5)
    assert cfg.ell(400) == 2 * cfg.kappa(400) ** 2
    assert cfg.rounds(400) == math.ceil(100 * math.log(400))
    assert cfg.stage1_colors(400) == 500
    assert cfg.total_colors(400) == 600
    # clamps on a single-edge graph
    tiny = RunConfig(epsilon=0.9)
    assert tiny.kappa(1) >= 1
    assert tiny.ell(1) >= 2
    assert tiny.rounds(1) >= 1


def test_config_rounding_is_exact_for_decimal_epsilon():
    # 0.1 * 400 / 2 must round to 20, not 21, despite float representation
    cfg = RunConfig(epsilon=0.1)
    assert cfg.stage1_colors(400) == 420
    assert cfg.total_colors(400) == 440


def test_config_tiny_epsilon_keeps_the_extra_color():
    # eps*D is positive, so its ceiling is at least 1 despite _ceil's slack.
    cfg = RunConfig(epsilon=1e-12)
    assert cfg.total_colors(2) == 3
    assert cfg.stage1_colors(2) == 3
    assert cfg.total_colors(0) == cfg.stage1_colors(0) == 0


# ---------------------------------------------------------------------------
# sample_palette
# ---------------------------------------------------------------------------


def test_sample_palette_singleton_pool():
    assert sample_palette([7], 5, rng_for(0)) == [7]


def test_sample_palette_draw_order():
    # The output is the draws with repeats removed, in draw order; a pool of
    # 7 under 20 draws forces repeats.
    for pool, kappa in ((list(range(1, 1001)), 10), (list(range(11, 18)), 20)):
        draws = [pool[i] for i in rng_for(1).integers(0, len(pool), size=kappa)]
        expected = []
        for c in draws:
            if c not in expected:
                expected.append(c)
        out = sample_palette(pool, kappa, rng_for(1))
        assert out == expected
        assert len(out) == len(set(out)) <= kappa
        assert set(out) <= set(pool)


def test_sample_palette_deterministic():
    pool = list(range(1, 50))
    assert sample_palette(pool, 8, rng_for(3)) == sample_palette(pool, 8, rng_for(3))


def test_sample_palette_empty_pool():
    with pytest.raises(EmptyPool):
        sample_palette([], 3, rng_for(0))


# ---------------------------------------------------------------------------
# color_one
# ---------------------------------------------------------------------------


def test_color_one_blank_graph_first_iteration():
    g = complete(5)
    st = ColoringState(g, 8)
    cfg = RunConfig(epsilon=0.5)
    out = color_one(st, 0, g.edge_u[0], cfg, rng_for(4))
    assert out.colored
    assert out.iterations == 1
    assert validate_proper(st).ok


_FLAG_COUNTER = {
    FlagReason.FAN_FAIL: "flags_fan",
    FlagReason.PIVOT_FAIL: "flags_pivot",
    FlagReason.MAX_ITERATIONS: "flags_maxiter",
    FlagReason.PALETTE_FLOOR: "palette_floor_hits",
}


def check_flag_counted(stats, st, reason):
    # color_one counts the flag under its reason, and only there.
    for r, name in _FLAG_COUNTER.items():
        assert getattr(stats, name) == (r is reason), name
    assert stats.flags_total == st.flagged_count == 1


def test_color_one_forced_fan_failure():
    # saturate the non-pivot endpoint across the whole (overridden) stage-1
    # palette, so any sample fails at the first frontier
    q1 = 4
    pairs = [(0, 1)] + [(0, 2 + i) for i in range(q1)]
    g = build_graph(pairs, 2 + q1)
    st = ColoringState(g, 6)
    for i in range(q1):
        st.assign(1 + i, 1 + i)
    dom0, flg0 = dom_and_flg(st)
    cfg = RunConfig(epsilon=0.5)
    stats = RunStats.for_run(g, cfg)
    out = color_one(st, 0, 1, cfg, rng_for(5), stats=stats, q1=q1)
    assert not out.colored
    assert out.reason is FlagReason.FAN_FAIL
    assert out.iterations == 1
    assert out.flagged_edge == 0
    check_flag_counted(stats, st, FlagReason.FAN_FAIL)
    check_color_one_contract(dom0, flg0, 0, st, out)
    assert validate_proper(st).ok


def test_color_one_forced_pivot_failure():
    # A star whose pivot holds every stage-1 color: the fan closes on a
    # repeated leaf, and no sampled color is missing at the pivot.
    g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4)], 5)
    cfg = RunConfig(epsilon=0.5, kappa_const=50.0)
    for seed in range(5):
        st = ColoringState(g, 6)
        for c in (1, 2, 3):
            st.assign(c, c)
        dom0, flg0 = dom_and_flg(st)
        stats = RunStats.for_run(g, cfg)
        out = color_one(st, 0, 0, cfg, rng_for(seed), stats=stats, q1=3)
        assert not out.colored
        assert out.reason is FlagReason.PIVOT_FAIL
        assert out.flagged_edge == 0
        check_flag_counted(stats, st, FlagReason.PIVOT_FAIL)
        check_color_one_contract(dom0, flg0, 0, st, out)
        assert validate_proper(st).ok


def _shift_gadget():
    # A fan whose chain path always hits a cap of 2, followed by an exhausted
    # pool: x=0, y0=1, y1=2, v2=3, w=4, v3=5, v4=6, u=7 with
    # (x,y1)=1, (x,w)=3, (y1,v2)=2, (v2,v3)=1, (v3,v4)=2, (y0,u)=2; blank
    # (x,y0).  (y0,u) takes x's only missing color 2 from y0, so no color is
    # free at both ends of the blank edge and it cannot be colored at once.
    g = build_graph([(0, 1), (0, 2), (0, 4), (2, 3), (3, 5), (5, 6), (1, 7)], 8)
    st = ColoringState(g, 4)
    st.assign(1, 1)
    st.assign(2, 3)
    st.assign(3, 2)
    st.assign(4, 1)
    st.assign(5, 2)
    st.assign(6, 2)
    return g, st


def test_color_one_shift_then_palette_floor():
    # ell_const makes the cap 2.  The seeds are ones whose first draw is 1:
    # the fan then reaches a path of length 4 (other orders close a happy fan
    # or a short path, or sample no color missing at x), so it is cut,
    # forcing one shift.
    # Round two finds the pool under the floor (1 + eps/100) * 3 and flags.
    # With t_const so small that one round is allowed, the shift uses it up
    # and the cut edge is flagged for MAX_ITERATIONS instead.
    for t_const, reason in ((100.0, FlagReason.PALETTE_FLOOR),
                            (1e-6, FlagReason.MAX_ITERATIONS)):
        cfg = RunConfig(epsilon=0.5, kappa_const=50.0, ell_const=0.0001, t_const=t_const)
        for seed in (11, 14, 21, 23, 27, 30):
            g, st = _shift_gadget()
            stats = RunStats.for_run(g, cfg)
            dom0, flg0 = dom_and_flg(st)
            out = color_one(st, 0, 0, cfg, rng_for(seed), stats=stats, q1=3)
            assert not out.colored
            assert out.reason is reason
            assert out.iterations == 1
            check_flag_counted(stats, st, reason)
            assert stats.shift_count == 1
            # the flagged edge is the uncolored cut: (x,y1) or (y1,v2)
            assert out.flagged_edge in (1, 3)
            check_color_one_contract(dom0, flg0, 0, st, out)
            assert validate_proper(st).ok


def test_color_one_contract_fuzz():
    # scaled-down version of the acceptance fuzz
    rng = rng_for(1234)
    cfg = RunConfig(epsilon=0.5)
    done = 0
    while done < 1500:
        g = random_graph(rng, max_n=24)
        st = random_partial_state(g, RunConfig(epsilon=0.5).total_colors(g.max_degree), rng)
        blanks = blank_edges(st)
        if not blanks:
            continue
        e = blanks[int(rng.integers(0, len(blanks)))]
        x = (g.edge_u[e], g.edge_v[e])[int(rng.integers(0, 2))]
        dom0, flg0 = dom_and_flg(st)
        out = color_one(st, e, x, cfg, rng)
        check_color_one_contract(dom0, flg0, e, st, out)
        assert validate_proper(st).ok
        done += 1


def test_color_one_deterministic():
    cfg = RunConfig(epsilon=0.5)
    results = []
    for _ in range(2):
        g = complete(8)
        st = random_partial_state(g, cfg.total_colors(g.max_degree), rng_for(9), flag_frac=0.0)
        e = blank_edges(st)[0]
        out = color_one(st, e, g.edge_u[e], cfg, rng_for(10))
        results.append((out, tuple(st.slot)))
    assert results[0] == results[1]


def test_color_one_palette_stream_pinned():
    # Pins color_one's random stream: every outcome and final coloring over
    # 30 graphs and two configs (the second shifts, so later rounds sample
    # too), hashed.
    h = hashlib.sha256()
    shifts = 0
    for cfg in (RunConfig(epsilon=0.5), RunConfig(epsilon=0.3, kappa_const=1.0, ell_const=0.02)):
        rng = rng_for(1919)
        for _ in range(30):
            g = random_graph(rng, max_n=30)
            st = random_partial_state(g, cfg.total_colors(g.max_degree), rng)
            stats = RunStats.for_run(g, cfg)
            while blanks := blank_edges(st):
                e = blanks[int(rng.integers(0, len(blanks)))]
                out = color_one(st, e, g.edge_u[e], cfg, rng, stats=stats)
                h.update(repr((out.colored, out.iterations, out.flagged_edge,
                               out.reason and out.reason.value)).encode())
            h.update(repr(list(st.slot)).encode())
            shifts += stats.shift_count
    assert shifts > 0
    assert h.hexdigest() == "377d4e4e06a066fdde6e90518a74ae64577a9f27e44a508256ed1a023c74ba9f"


# ---------------------------------------------------------------------------
# greedy_color
# ---------------------------------------------------------------------------


def test_greedy_single_edge():
    g = build_graph([(0, 1)], 2)
    st = greedy_color(g, 3, rng_for(0))
    assert st.slot[0] in (1, 2, 3)


def test_greedy_star_proper():
    g = build_graph([(0, i) for i in range(1, 5)], 5)
    st = greedy_color(g, 12, rng_for(1))
    assert sorted(set(st.slot)) == sorted(st.slot)  # center forces distinct colors
    assert validate_proper(st).ok


def test_greedy_triangle_deterministic_and_proper():
    g = cycle(3)
    a = greedy_color(g, 6, rng_for(2))
    b = greedy_color(g, 6, rng_for(2))
    assert a.slot == b.slot
    assert validate_proper(a).ok


def test_greedy_insufficient_colors():
    g = complete(4)
    with pytest.raises(InsufficientColors):
        greedy_color(g, 2 * 3 - 2, rng_for(0))


def test_greedy_tracks_draws():
    g = complete(6)
    stats = RunStats()
    greedy_color(g, 3 * g.max_degree, rng_for(3), stats=stats)
    assert stats.greedy_edges == len(g.edges)
    assert stats.greedy_draws >= len(g.edges)


# ---------------------------------------------------------------------------
# vizing_color
# ---------------------------------------------------------------------------


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(outer + spokes + inner, 10)


_VIZING_GRAPHS = {
    # Class 2: every proper coloring needs Delta + 1 colors.
    "K5": lambda: complete(5),
    "K7": lambda: complete(7),
    "K9": lambda: complete(9),
    "petersen": petersen,
    **{f"C{n}": (lambda n=n: cycle(n)) for n in (5, 7, 9)},
    "K3,4": lambda: complete_bipartite(3, 4),
    "star": lambda: build_graph([(0, i) for i in range(1, 7)], 7),
    "edge": lambda: build_graph([(0, 1)], 2),
    "empty": lambda: build_graph([], 3),
}


@pytest.mark.parametrize("name", sorted(_VIZING_GRAPHS))
def test_vizing_color_within_delta_plus_one(name):
    g = _VIZING_GRAPHS[name]()
    for seed in range(5):
        stats = RunStats()
        st = vizing_color(g, rng_for(seed), stats)
        report = validate_proper(st)
        assert report.ok and report.blank_count == 0 and report.flagged_count == 0
        used = st.max_color_used()
        assert used <= g.max_degree + 1
        if g.m <= 16:
            assert used >= brute_chromatic_index(g).chromatic_index
        assert vizing_color(g, rng_for(seed)).slot == st.slot
        assert stats.greedy_colors == stats.greedy_edges == stats.greedy_draws == 0
        assert sum(stats.path_hist.values()) == g.m


def test_vizing_color_chains_never_flag(monkeypatch):
    # Dense graphs leave some edges with no free color in [1, D+1]; the
    # stage-1 routine must color each of them without a flag.
    outcomes = []
    real = engine._color_one_raw

    def spy(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    monkeypatch.setattr(engine, "_color_one_raw", spy)
    for seed, g in enumerate([gnp(60, 0.3, rng_for(5)), complete(9), complete(12)]):
        stats = RunStats()
        st = vizing_color(g, rng_for(seed), stats)
        assert validate_proper(st).ok and st.max_color_used() <= g.max_degree + 1
        assert sum(stats.path_hist.values()) == g.m
    assert outcomes and all(colored for colored, *_ in outcomes)
    assert any(length > 0 for length in stats.path_hist)


# ---------------------------------------------------------------------------
# edge_color / run_full
# ---------------------------------------------------------------------------


def test_edge_color_empty_graph():
    g = build_graph([], 4)
    st, stats = edge_color(g, RunConfig(epsilon=0.5))
    assert list(st.slot) == []
    assert stats.delta_gstar == 0


def test_edge_color_small_graphs_proper_and_within_budget():
    rng = rng_for(42)
    for eps in (0.1, 0.2, 0.5, 0.9):
        cfg = RunConfig(epsilon=eps, seed=17)
        for _ in range(6):
            g = random_graph(rng, max_n=60)
            try:
                st, stats = edge_color(g, cfg, rng)
            except ColoringFailed:
                continue  # legitimate on tiny out-of-regime graphs
            report = validate_proper(st)
            assert report.ok
            assert report.blank_count == 0 and report.flagged_count == 0
            assert stats.max_color_used <= cfg.total_colors(g.max_degree)
            assert stats.colored_stage1 + stats.flagged_count == len(g.edges)


def test_edge_color_medium_random_regular():
    # mid-size in-regime check: proper, complete, within budget, sparse flags
    rng = rng_for(7)
    g = random_regular(600, 60, rng)
    cfg = RunConfig(epsilon=0.5, seed=3)
    st, stats = edge_color(g, cfg)
    report = validate_proper(st)
    assert report.ok and report.blank_count == 0 and report.flagged_count == 0
    assert stats.max_color_used <= cfg.total_colors(60)
    assert stats.delta_gstar <= 0.5 * 60 / 6


def test_edge_color_dense_in_regime_seeds():
    # n = 2000, degree 100, epsilon 0.5: at most ceil(1.5 * 100) colors and a
    # sparse flagged subgraph, across seeds
    g = random_regular(2000, 100, rng_for(88))
    for seed in (0, 1):
        cfg = RunConfig(epsilon=0.5, seed=seed)
        st, stats = edge_color(g, cfg)
        report = validate_proper(st)
        assert report.ok and report.blank_count == 0 and report.flagged_count == 0
        assert stats.max_color_used <= 150
        assert stats.delta_gstar <= 0.5 * 100 / 6


def test_edge_color_deterministic():
    g = gnp(80, 0.2, rng_for(12))
    cfg = RunConfig(epsilon=0.5, seed=99)
    st1, stats1 = edge_color(g, cfg)
    st2, stats2 = edge_color(g, cfg)
    assert st1.slot == st2.slot
    assert stats1.to_text(include_timings=False) == stats2.to_text(include_timings=False)


def test_run_full_cycle_five_fallback_budget():
    g = cycle(5)
    for seed in range(5):
        cfg = RunConfig(epsilon=0.9, seed=seed)
        st, stats = run_full(g, cfg)
        assert validate_proper(st).ok
        assert all(c > 0 for c in st.slot)
        # q1 = 3 = 2*Delta - 1, so stage success and fallback both fit in 3
        assert stats.max_color_used <= 3
        assert stats.max_color_used <= cfg.total_colors(g.max_degree)


def test_run_full_always_proper_with_fallback():
    rng = rng_for(2024)
    for _ in range(20):
        g = random_graph(rng, max_n=40)
        eps = float(rng.choice([0.1, 0.3, 0.5, 0.9]))
        st, stats = run_full(g, RunConfig(epsilon=eps, seed=int(rng.integers(0, 1 << 32))))
        report = validate_proper(st)
        assert report.ok and report.blank_count == 0 and report.flagged_count == 0
        if stats.fallback_used:
            assert stats.max_color_used <= g.max_degree + 1
        assert stats.max_color_used <= RunConfig(epsilon=eps).total_colors(g.max_degree)


def test_run_full_restart_seed_derivation():
    # eps*D/6 = 1, so stage-1 attempts are made; with seed 126 the first fails
    # (golden case restart-d12).
    g = random_regular(200, 12, rng_for(1))
    cfg = RunConfig(epsilon=0.5, seed=126, max_restarts=3)
    st1, stats1 = run_full(g, cfg)
    st2, stats2 = run_full(g, cfg)
    assert st1.slot == st2.slot
    assert stats1.restarts_used == stats2.restarts_used
    assert stats1.restarts_used >= 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_full_short_chains_in_draw_order(seed):
    # Stage 1 colors an edge at once with the first sampled color free at both
    # ends, else builds a fan from the first one missing at the far end, in
    # draw order.  Taking the smallest missing color instead walks 1.049-1.063
    # path edges per edge on these graphs, and the fan from the first missing
    # color with no first fit 0.404-0.410 with 0.87 of edges at length 0;
    # first fit walks 0.032-0.035 with 0.99 at length 0.
    g = random_regular(1000, 100, rng_for(seed))
    _, stats = run_full(g, RunConfig(epsilon=0.5, seed=seed))
    assert not stats.fallback_used
    walked = sum(k * count for k, count in stats.path_hist.items())
    assert walked / g.m <= 0.1, walked / g.m
    assert stats.path_hist[0] / g.m >= 0.95, stats.path_hist[0] / g.m


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_edge_color_draws_only_the_round1_colors_first_fit_reads(seed):
    # Round-1 colors are drawn as first fit reads them, not kappa per edge:
    # about 5 per edge here (whole blocks counted) against kappa = 37.
    g = random_regular(1000, 100, rng_for(seed))
    cfg = RunConfig(epsilon=0.5, seed=seed)
    rng = CountingRng(rng_for(seed))
    _, stats = edge_color(g, cfg, rng)
    assert stats.kappa == 37
    drawn = rng.drawn("integers", 1, stats.q1 + 1)
    assert drawn / g.m <= 10, drawn / g.m


# ---------------------------------------------------------------------------
# Early abort of a doomed attempt, and the once-per-run contract checks
# ---------------------------------------------------------------------------


def _flag_degrees(state):
    """Per-vertex count of incident FLAGGED edges, read off the slot array."""
    g = state.graph
    counts = [0] * g.n
    for e in state.flagged_edges():
        counts[g.edge_u[e]] += 1
        counts[g.edge_v[e]] += 1
    return counts


# (graph, config) pairs whose seeded attempts both fail and succeed.
_ABORT_GRID = [
    (random_regular(300, 4, rng_for(1)), RunConfig(epsilon=0.5)),        # bound 0.33
    (random_regular(200, 12, rng_for(1)), RunConfig(epsilon=0.5)),       # bound 1
    (random_regular(200, 24, rng_for(2)), RunConfig(epsilon=0.5, kappa_const=0.3)),  # bound 2
]


def test_failed_attempt_stops_at_first_flag_past_bound(monkeypatch):
    made = []

    def capture(*args):
        made.append(ColoringState(*args))
        return made[-1]

    monkeypatch.setattr(engine, "ColoringState", capture)
    failures = 0
    for g, cfg in _ABORT_GRID:
        bound = cfg.epsilon * g.max_degree / 6.0
        for seed in range(4):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
            try:
                edge_color(g, cfg, rng)
            except ColoringFailed as exc:
                failures += 1
                state, stats = made[-1], exc.stats
                degrees = _flag_degrees(state)
                assert stats.delta_gstar > bound
                assert max(degrees) == stats.delta_gstar
                assert stats.flagged_count == stats.gstar_edges == sum(
                    1 for c in state.slot if c == FLAGGED)
                assert stats.colored_stage1 == state.colored_count
                processed = stats.colored_stage1 + stats.flagged_count
                assert processed < len(g.edges)
                assert f"after {processed} of {len(g.edges)} edges" in str(exc)
                assert stats.flags_total == stats.flagged_count
    assert failures >= 4


def test_success_reports_stage1_flagged_degree(monkeypatch):
    seen = []

    def spy(state, graph=None):
        result = flagged_subgraph(state, graph)
        seen.append((max(_flag_degrees(state)), result[1]))
        return result

    monkeypatch.setattr(engine, "flagged_subgraph", spy)
    checked = 0
    for g, cfg in _ABORT_GRID[1:] + [(random_regular(400, 40, rng_for(2)), RunConfig(epsilon=0.5))]:
        bound = cfg.epsilon * g.max_degree / 6.0
        for seed in range(4):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
            seen.clear()
            try:
                _, stats = edge_color(g, cfg, rng)
            except ColoringFailed:
                continue
            if not seen:
                assert stats.flagged_count == stats.delta_gstar == 0
                continue
            checked += 1
            assert seen == [(stats.delta_gstar, stats.delta_gstar)]
            assert 0 < stats.delta_gstar <= bound
    assert checked >= 3


def test_run_full_keeps_restart_causes():
    g = random_regular(300, 4, rng_for(1))
    _, stats = run_full(g, RunConfig(epsilon=0.5, seed=1))
    # eps*D/6 = 0.333 < 1: Vizing colors the graph without a stage-1 attempt.
    assert stats.fallback_used and stats.restarts_used == 0
    assert stats.restart_causes == []
    assert stats.max_color_used <= g.max_degree + 1
    g12 = random_regular(200, 12, rng_for(1))
    _, ok = run_full(g12, RunConfig(epsilon=0.5, seed=126))
    assert not ok.fallback_used and len(ok.restart_causes) == ok.restarts_used == 1
    _, fell = run_full(g12, RunConfig(epsilon=0.5, seed=126, max_restarts=0))
    assert fell.fallback_used and fell.restarts_used == 0
    assert fell.restart_causes == ok.restart_causes
    assert fell.max_color_used <= g12.max_degree + 1


def test_run_full_empty_graph_makes_no_fallback():
    st, stats = run_full(build_graph([], 4), RunConfig(epsilon=0.5))
    assert list(st.slot) == [] and not stats.fallback_used and stats.restarts_used == 0


@pytest.mark.parametrize("n, d, bound", [(1000, 40, 120), (10000, 4, 96)])
def test_run_full_peak_memory_per_edge(n, d, bound):
    # m = 20k.  Stage 1 (d=40) and the Vizing fallback (d=4) keep their
    # per-edge scratch in typed arrays: tracemalloc peak 49.7 and 76.4 B/edge
    # here, against 150.6 and 116.0 with a Python int object per edge.
    g = random_regular(n, d, rng_for(0))
    (_, stats), _, peak = traced_memory(run_full, g, RunConfig(epsilon=0.5))
    assert stats.fallback_used == (d == 4)
    assert peak / g.m <= bound, peak / g.m


_CONTRACT_UNDER_O = """
import numpy as np
from edgecolor import ImproperAugment, RunConfig, edge_color, engine
from edgecolor.generators import random_regular

real = engine.flagged_subgraph
engine.flagged_subgraph = lambda state, g: (real(state, g)[0], 1000)
g = random_regular(400, 40, np.random.default_rng(np.random.SeedSequence(2)))
# This attempt flags one edge, so stage 2 and its q1 + q2 check run.
try:
    edge_color(g, RunConfig(epsilon=0.5), np.random.default_rng(np.random.SeedSequence((0, 0))))
except ImproperAugment as exc:
    print(exc)
"""


def test_contract_checks_survive_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", _CONTRACT_UNDER_O],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "contract violated: q1 + q2" in proc.stdout


# ---------------------------------------------------------------------------
# RunStats serialization
# ---------------------------------------------------------------------------


def test_stats_text():
    g = complete(6)
    cfg = RunConfig(epsilon=0.5, seed=1)
    _, stats = edge_color(g, cfg)
    stats.restart_causes.append("attempt 0: planted cause")
    bare = stats.to_text(include_timings=False)
    keys = [line.split("=", 1)[0] for line in bare.splitlines()]
    assert keys == [
        "n", "m", "delta", "epsilon", "kappa", "ell", "rounds", "q1", "q_cap", "seed",
        "colored_stage1", "flagged_count", "flags_fan", "flags_pivot", "flags_maxiter",
        "palette_floor_hits", "shift_count", "delta_gstar", "gstar_edges",
        "greedy_colors", "greedy_edges", "greedy_draws", "restarts_used",
        "fallback_used", "max_color_used", "iteration_hist", "path_hist",
    ]
    text = stats.to_text()
    assert [line.split("=", 1)[0] for line in text.splitlines()] == keys + ["stage1_us", "stage2_us"]
    assert text.startswith(bare)
    for out in (bare, text):
        assert "restart_causes" not in out and "planted cause" not in out
    assert "fallback_used=0\n" in bare  # bools print as ints
    assert f"path_hist={','.join(f'{k}:{v}' for k, v in sorted(stats.path_hist.items()))}\n" in bare
