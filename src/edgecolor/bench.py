"""Benchmark sweeps over instance sizes and epsilons, with CSV output.

Timings cover the coloring algorithm only (stage 1 + stage 2), never graph
generation, I/O, or validation, so size scaling can be read off the
time-per-edge column directly.  A run's CSV row is its RunStats: the model,
then every --stats field with the two timings.
"""

from __future__ import annotations

import csv
import gc
import io
import statistics
from dataclasses import replace

import numpy as np

from .engine import RunConfig, RunStats, run_full
from .generators import GenSpec, generate
from .graph import Graph


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
) -> list[RunStats]:
    """Run trials x |sizes| x |epsilons| independent runs; one RunStats per run.

    ``sizes`` are target edge counts.  ``out`` may be a path or file-like
    object for the CSV (header always written, even with zero trials).
    Trials run round-robin across the size/epsilon grid so slow host drift
    spreads evenly over the groups being compared; seeds (and therefore
    results) depend only on the grid position, not the execution order.
    """
    runs: list[RunStats] = []
    for trial in range(trials):
        for si, size in enumerate(sizes):
            for ei, eps in enumerate(epsilons):
                seed = _derive_seed(cfg.seed, si, ei, trial)
                g = _make_instance(model, size, delta, seed)
                # The engine allocates no reference cycles; keeping the cyclic
                # collector out of the timed region removes heap-size noise.
                gc_was_on = gc.isenabled()
                gc.disable()
                try:
                    _, stats = run_full(g, replace(cfg, epsilon=eps, seed=seed))
                finally:
                    if gc_was_on:
                        gc.enable()
                runs.append(stats)
    if out is not None:
        write_csv(out, runs, model)
    return runs


def write_csv(out, runs, model: str) -> None:
    own = isinstance(out, (str, bytes))
    fh = open(out, "w", newline="", encoding="utf-8") if own else out
    try:
        writer = csv.writer(fh)
        writer.writerow(["model"] + [name for name, _ in RunStats().items()])
        for r in runs:
            writer.writerow([model] + [text for _, text in r.items()])
    finally:
        if own:
            fh.close()


def summarize(runs) -> str:
    """Fallback counts and median time per edge, grouped by (n, epsilon).

    At a fixed Delta, n is a function of the target size.
    """
    groups: dict[tuple[int, float], list[RunStats]] = {}
    for r in runs:
        groups.setdefault((r.n, r.epsilon), []).append(r)
    out = io.StringIO()
    out.write("n epsilon runs fallbacks median_us_per_edge median_total_us\n")
    for (n, eps), rows in sorted(groups.items()):
        med_ratio = statistics.median([r.total_us / max(1, r.m) for r in rows])
        med_total = statistics.median([r.total_us for r in rows])
        fallbacks = sum(r.fallback_used for r in rows)
        out.write(f"{n} {eps} {len(rows)} {fallbacks} {med_ratio:.3f} {med_total:.0f}\n")
    return out.getvalue()
