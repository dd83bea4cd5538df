"""Benchmark sweeps over instance sizes and epsilons, with CSV output.

Timings cover the coloring algorithm only (stage 1 + stage 2), never graph
generation, I/O, or validation, so size scaling can be read off the
time-per-edge column directly.
"""

from __future__ import annotations

import csv
import gc
import io
import statistics
from dataclasses import dataclass, fields, replace

import numpy as np

from .engine import RunConfig, RunStats, run_full
from .errors import Exhausted
from .generators import GenSpec, generate
from .graph import Graph


@dataclass(frozen=True)
class BenchRecord:
    """One row per run."""

    instance: str
    model: str
    n: int
    m: int
    delta: int
    epsilon: float
    kappa: int
    ell: int
    rounds: int
    seed: int
    stage1_us: int
    stage2_us: int
    total_us: int
    flags_fan: int
    flags_pivot: int
    flags_maxiter: int
    delta_gstar: int
    restarts: int
    max_color: int
    failed: int
    us_per_edge: float


CSV_HEADER = [f.name for f in fields(BenchRecord)]


def _derive_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence((base,) + key).generate_state(1)[0])


def _make_instance(model: str, target_m: int, delta: int, seed: int) -> Graph:
    if model == "random_regular":
        n = max(delta + 1, round(2 * target_m / delta))
        if (n * delta) % 2:
            n += 1
        return generate(GenSpec("random_regular", n=n, d=delta, seed=seed))
    if model == "gnp":
        n = max(delta + 1, round(2 * target_m / delta))
        p = min(1.0, delta / max(1, n - 1))
        return generate(GenSpec("gnp", n=n, p=p, seed=seed))
    raise ValueError(f"bench supports random_regular and gnp, got {model!r}")


def bench_sweep(
    sizes,
    epsilons,
    trials: int,
    cfg: RunConfig,
    delta: int = 100,
    model: str = "random_regular",
    out=None,
) -> list[BenchRecord]:
    """Run trials x |sizes| x |epsilons| independent runs; one record per run.

    ``sizes`` are target edge counts.  ``out`` may be a path or file-like
    object for the CSV (header always written, even with zero trials).
    Failures (a run that exhausts its restarts) are recorded, not raised.
    Trials run round-robin across the size/epsilon grid so slow host drift
    spreads evenly over the groups being compared; seeds (and therefore
    results) depend only on the grid position, not the execution order.
    """
    records: list[BenchRecord] = []
    for trial in range(trials):
        for si, size in enumerate(sizes):
            for ei, eps in enumerate(epsilons):
                seed = _derive_seed(cfg.seed, si, ei, trial)
                g = _make_instance(model, size, delta, seed)
                run_cfg = replace(cfg, epsilon=eps, seed=seed, small_delta_fallback=False)
                failed = 0
                # The engine allocates no reference cycles; keeping the cyclic
                # collector out of the timed region removes heap-size noise.
                gc_was_on = gc.isenabled()
                gc.disable()
                try:
                    _, stats = run_full(g, run_cfg)
                except Exhausted:
                    failed = 1
                    stats = None
                finally:
                    if gc_was_on:
                        gc.enable()
                records.append(_record(model, size, g, run_cfg, stats, failed, seed))
    if out is not None:
        write_csv(out, records)
    return records


def _record(model, size, g, cfg, stats, failed, seed) -> BenchRecord:
    m = g.m
    if stats is None:
        stats = RunStats.for_run(g, cfg)
    return BenchRecord(
        instance=f"{model}-m{size}-e{cfg.epsilon}",
        model=model,
        n=g.n,
        m=m,
        delta=g.max_degree,
        epsilon=cfg.epsilon,
        kappa=stats.kappa,
        ell=stats.ell,
        rounds=stats.rounds,
        seed=seed,
        stage1_us=stats.stage1_us,
        stage2_us=stats.stage2_us,
        total_us=stats.total_us,
        flags_fan=stats.flags_fan,
        flags_pivot=stats.flags_pivot,
        flags_maxiter=stats.flags_maxiter,
        delta_gstar=stats.delta_gstar,
        restarts=stats.restarts_used,
        max_color=stats.max_color_used,
        failed=failed,
        us_per_edge=round(stats.total_us / m, 4) if m else 0.0,
    )


def write_csv(out, records) -> None:
    own = isinstance(out, (str, bytes))
    fh = open(out, "w", newline="", encoding="utf-8") if own else out
    try:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([getattr(r, name) for name in CSV_HEADER])
    finally:
        if own:
            fh.close()


def summarize(records) -> str:
    """Median time-per-edge and failure counts, grouped by (m target, epsilon)."""
    groups: dict[tuple[str, float], list[BenchRecord]] = {}
    for r in records:
        groups.setdefault((r.instance, r.epsilon), []).append(r)
    out = io.StringIO()
    out.write("instance epsilon runs fails median_us_per_edge median_total_us\n")
    for (instance, eps), rows in sorted(groups.items()):
        ok = [r for r in rows if not r.failed]
        med_ratio = statistics.median([r.us_per_edge for r in ok]) if ok else float("nan")
        med_total = statistics.median([r.total_us for r in ok]) if ok else float("nan")
        fails = sum(r.failed for r in rows)
        out.write(f"{instance} {eps} {len(rows)} {fails} {med_ratio:.3f} {med_total:.0f}\n")
    return out.getvalue()
