"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight criteria
use both cores (independent trials only), per the package's concurrency
model.
"""

import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from edgecolor import (
    ChainFailure,
    ColoringFailed,
    RunConfig,
    RunStats,
    augment,
    brute_chromatic_index,
    build_graph,
    color_one,
    edge_color,
    find_conflicts,
    flip_path,
    follow_path,
    greedy_color,
    make_fan,
    run_full,
    shift_fan,
    validate_proper,
    vizing_chain,
)
from edgecolor.bench import bench_sweep
from edgecolor.generators import complete, complete_bipartite, gnp, random_regular
from helpers import (
    blank_edges,
    check_color_one_contract,
    dom_and_flg,
    random_graph,
    random_partial_state,
    rng_for,
)

pytestmark = pytest.mark.slow

EPSILONS = (0.1, 0.2, 0.5, 0.9)


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. Correctness on 200 fuzzed graphs.
# ---------------------------------------------------------------------------


def _fuzz_instance(i, rng):
    if i < 150:
        return random_graph(rng, max_n=120)
    if i < 185:
        n = int(rng.integers(150, 500))
        if rng.random() < 0.5:
            d = int(rng.integers(8, 50))
            if (n * d) % 2:
                n += 1
            return random_regular(n, d, rng)
        return gnp(n, float(rng.uniform(0.02, 0.15)), rng)
    if i < 195:
        n = int(rng.integers(700, 1200))
        d = int(rng.integers(50, 100))
        if (n * d) % 2:
            n += 1
        return random_regular(n, d, rng)
    bigs = [
        lambda: random_regular(2000, 200, rng),
        lambda: gnp(2000, 0.05, rng),
        lambda: random_regular(1500, 100, rng),
        lambda: complete_bipartite(180, 180),
        lambda: gnp(1000, 0.15, rng),
    ]
    return bigs[i - 195]()


def test_criterion_1_correctness():
    t0 = time.perf_counter()
    rng = rng_for(20260101)
    fallbacks = 0
    straight_to_vizing = 0
    edges_total = 0
    for i in range(200):
        g = _fuzz_instance(i, rng)
        eps = EPSILONS[i % 4]
        cfg = RunConfig(epsilon=eps, seed=1000 + i)
        state, stats = run_full(g, cfg)
        report = validate_proper(state)
        assert report.ok, f"graph {i}: {report.summary()}"
        assert report.blank_count == 0 and report.flagged_count == 0, f"graph {i} incomplete"
        if stats.fallback_used:
            fallbacks += 1
            straight_to_vizing += not stats.restart_causes
            assert stats.max_color_used <= max(1, 2 * g.max_degree - 1), f"graph {i}"
        assert stats.max_color_used <= cfg.total_colors(g.max_degree), f"graph {i}"
        edges_total += len(g.edges)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"correctness sweep took {elapsed:.0f}s, budget 120s"
    finished = 200 - fallbacks
    # Most small fuzz graphs have eps*D/6 < 1 and skip stage 1; enough must
    # still finish it for the sweep to test the paper's algorithm.
    assert finished >= 50, f"only {finished} of 200 graphs finished stage 1"
    _report(1, "correctness", f"200 graphs, {edges_total} edges, {finished} finished stage 1, "
                              f"{straight_to_vizing} straight to Vizing, "
                              f"{fallbacks - straight_to_vizing} fell back after attempts, "
                              f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Flagged-subgraph degree bound on random_regular(4000, 400).
# ---------------------------------------------------------------------------


_CRIT2_GRAPH = None  # built in the parent before the pool forks


def _crit2_one_run(seed):
    import gc

    gc.disable()  # the engine allocates no cycles; children are short-lived
    g = _CRIT2_GRAPH
    cfg = RunConfig(epsilon=0.5, seed=seed)
    restarts = 0
    first_gstar = None
    for attempt in range(2):  # at most one restart allowed
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, attempt)))
        try:
            state, stats = edge_color(g, cfg, rng)
        except ColoringFailed as exc:
            if first_gstar is None:
                first_gstar = exc.stats.delta_gstar
            restarts = attempt + 1
            continue
        if first_gstar is None:
            first_gstar = stats.delta_gstar
        ok = True
        if seed == 0:  # spot-check full validation on one run
            report = validate_proper(state)
            ok = report.ok and report.blank_count == 0 and report.flagged_count == 0
        return {"seed": seed, "first_gstar": first_gstar, "restarts": attempt,
                "max_color": stats.max_color_used, "proper": ok}
    return {"seed": seed, "first_gstar": first_gstar, "restarts": restarts,
            "max_color": None, "proper": False}


def test_criterion_2_flagged_degree_bound():
    global _CRIT2_GRAPH
    t0 = time.perf_counter()
    bound = 0.5 * 400 / 6.0
    _CRIT2_GRAPH = random_regular(4000, 400, rng_for(4000400))
    # Independent trials run concurrently; each child inherits the read-only
    # graph through fork, so only the 20 algorithm seeds differ.
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_crit2_one_run, range(20)))
    within = sum(1 for r in results if r["first_gstar"] <= bound)
    assert within >= 19, f"only {within}/20 runs had flagged degree <= {bound:.1f}"
    for r in results:
        assert r["max_color"] is not None, f"seed {r['seed']}: failed even after a restart"
        assert r["restarts"] <= 1
        assert r["proper"], f"seed {r['seed']}: validation failed"
        assert r["max_color"] <= 600
    elapsed = time.perf_counter() - t0
    _CRIT2_GRAPH = None  # release ~200MB before the later criteria run
    assert elapsed < 300.0, f"flag-degree sweep took {elapsed:.0f}s, budget 300s"
    worst = max(r["first_gstar"] for r in results)
    restarted = sum(1 for r in results if r["restarts"])
    _report(2, "flagged-degree bound", f"{within}/20 within {bound:.1f} "
                                       f"(worst {worst}), {restarted} restarts, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Near-linear scaling at fixed degree.
# ---------------------------------------------------------------------------


def test_criterion_3_near_linear_scaling():
    sizes = [20_000, 40_000, 80_000, 160_000]
    cfg = RunConfig(epsilon=0.5, seed=77)
    run_full(random_regular(400, 100, rng_for(1)), cfg)  # warm-up
    records = bench_sweep(sizes, [0.5], trials=5, cfg=cfg, delta=100)
    assert not any(r.fallback_used for r in records)
    ratios = {}
    for size in sizes:
        rows = [r for r in records if abs(r.m - size) <= r.n]
        assert len(rows) == 5
        ratios[size] = statistics.median(r.total_us / r.m for r in rows)
    spread = max(ratios.values()) / min(ratios.values())
    assert spread <= 1.5, f"time-per-edge spread {spread:.2f} exceeds 1.5: {ratios}"
    detail = ", ".join(f"m={s}: {v:.2f}us" for s, v in ratios.items())
    _report(3, "near-linear scaling", f"spread {spread:.2f} ({detail})")


# ---------------------------------------------------------------------------
# 4. The color-one contract: exact domain/flag bookkeeping.
# ---------------------------------------------------------------------------


def test_criterion_4_color_one_contract():
    rng = rng_for(4004)
    cfg = RunConfig(epsilon=0.5)
    done = 0
    while done < 10_000:
        g = random_graph(rng, max_n=24)
        q = cfg.total_colors(g.max_degree)
        st = random_partial_state(g, q, rng)
        blanks = blank_edges(st)
        if not blanks:
            continue
        for _ in range(min(4, len(blanks))):
            blanks = blank_edges(st)
            if not blanks:
                break
            e = blanks[int(rng.integers(0, len(blanks)))]
            x = (g.edge_u[e], g.edge_v[e])[int(rng.integers(0, 2))]
            dom0, flg0 = dom_and_flg(st)
            out = color_one(st, e, x, cfg, rng)
            check_color_one_contract(dom0, flg0, e, st, out)
            done += 1
        assert validate_proper(st).ok
    _report(4, "color-one contract", f"{done} fuzzed calls, zero violations")


# ---------------------------------------------------------------------------
# 5. Chain primitives preserve properness.
# ---------------------------------------------------------------------------


def test_criterion_5_chain_primitives():
    rng = rng_for(5005)
    flips = shifts = augments = 0
    while min(flips, shifts, augments) < 10_000:
        g = random_graph(rng, max_n=20)
        q = g.max_degree + 2
        st = random_partial_state(g, q, rng, fill=0.6, flag_frac=0.0)
        blanks = blank_edges(st)
        if not blanks:
            continue
        for _ in range(6):
            blanks = blank_edges(st)
            if not blanks:
                break
            e = blanks[int(rng.integers(0, len(blanks)))]
            x = (g.edge_u[e], g.edge_v[e])[int(rng.integers(0, 2))]
            kind = int(rng.integers(0, 3))
            if kind == 0 and shifts < 10_500:
                colors = sorted(set(rng.integers(1, q + 1, size=6).tolist()))
                out = make_fan(st, e, x, colors)
                if out is not None:
                    shift_fan(st, out.fan)
                    shifts += 1
            elif kind == 1 and flips < 10_500:
                alpha, beta = (int(c) for c in rng.choice(range(1, q + 1), size=2, replace=False))
                if st.is_missing(x, beta):
                    flip_path(st, follow_path(st, x, alpha, beta, cap=g.n))
                    flips += 1
            elif kind == 2 and augments < 10_500:
                colors = sorted(set(rng.integers(1, q + 1, size=6).tolist()))
                chain = vizing_chain(st, e, x, colors, cap=g.n)
                if not isinstance(chain, ChainFailure) and not chain.path.truncated:
                    dom0, _ = dom_and_flg(st)
                    colored = augment(st, chain)
                    dom1, _ = dom_and_flg(st)
                    assert colored == e
                    assert dom1 == dom0 | {e}
                    augments += 1
            assert validate_proper(st).ok
    _report(5, "chain primitives", f"{flips} flips, {shifts} shifts, "
                                   f"{augments} augments, all proper")


# ---------------------------------------------------------------------------
# 6. Oracle agreement on desk-size graphs.
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_agreement():
    rng = rng_for(6006)
    fixtures = [
        ("K4", complete(4)),
        ("C5", build_graph([(i, (i + 1) % 5) for i in range(5)], 5)),
        ("P4", build_graph([(0, 1), (1, 2), (2, 3)], 4)),
        ("K33", complete_bipartite(3, 3)),
    ]
    count = 0
    while count < 200:
        n = int(rng.integers(2, 8))
        g = gnp(n, float(rng.uniform(0.15, 0.9)), rng)
        if not g.edges or len(g.edges) > 16:
            continue
        fixtures.append((f"rand{count}", g))
        count += 1
    for name, g in fixtures:
        res = brute_chromatic_index(g)
        assert g.max_degree <= res.chromatic_index <= g.max_degree + 1, name
        assert not find_conflicts(g, list(res.witness)), name
        st, stats = run_full(g, RunConfig(epsilon=0.5, seed=660))
        assert not find_conflicts(g, st.slot), name
        assert all(c > 0 for c in st.slot), name
        assert stats.max_color_used >= res.chromatic_index, name
        fb = greedy_color(g, max(1, 2 * g.max_degree - 1), rng_for(661))
        assert not find_conflicts(g, fb.slot), name
    _report(6, "oracle agreement", f"{len(fixtures)} graphs, all within the "
                                   f"degree/degree+1 band, all colorings proper")


# ---------------------------------------------------------------------------
# 7. Greedy stage retry budget.
# ---------------------------------------------------------------------------


def test_criterion_7_greedy_retries():
    rng = rng_for(7007)
    draws = 0
    edges = 0
    for _ in range(100):
        g = random_graph(rng, max_n=60)
        stats = RunStats()
        st = greedy_color(g, 3 * g.max_degree, rng, stats=stats)
        assert validate_proper(st).ok
        draws += stats.greedy_draws
        edges += stats.greedy_edges
    mean = draws / edges
    assert mean <= 3.5, f"mean draws per edge {mean:.2f} exceeds 3.5"
    _report(7, "greedy retries", f"{edges} edges, mean {mean:.2f} draws/edge (<= 3.5)")


# ---------------------------------------------------------------------------
# 8. Determinism across processes.
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    graph = tmp_path / "g.txt"
    code = subprocess.run(
        [sys.executable, "-m", "edgecolor", "gen", "--model", "gnp", "--n", "300",
         "--p", "0.07", "--seed", "8", "--out", str(graph)],
        capture_output=True,
    )
    assert code.returncode == 0
    blobs = []
    for i in (1, 2):
        coloring = tmp_path / f"c{i}.txt"
        stats = tmp_path / f"s{i}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "edgecolor", "color", "--input", str(graph),
             "--epsilon", "0.5", "--seed", "88", "--output", str(coloring),
             "--stats", str(stats)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        blobs.append(coloring.read_bytes() + b"--" + stats.read_bytes())
    assert blobs[0] == blobs[1]
    _report(8, "determinism", f"two processes, byte-identical coloring and stats "
                              f"({len(blobs[0])} bytes)")
