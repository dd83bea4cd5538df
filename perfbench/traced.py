"""Traced in-process run: spans around the public call into each layer.

The spans are recorded here, in the benchmark, around calls into the
package; nothing inside the package is changed.  Three module-level names
are re-pointed for the duration of the run: ``graph.build_graph`` then shows
as a child of the call that makes it (``fileio.read_edge_list``,
``generators.generate``), and each ``engine.edge_color`` attempt of
``run_full`` gets a span and hands over its ``RunStats``, failed attempts
included.  ``gc.callbacks`` adds one ``runtime.gc`` span per collection as a
child of whatever span is open.  Byte counts per edge come from a separate
``tracemalloc`` pass, so they do not slow the timed spans.  Spans stay in
memory and are written once, at the end.

Times follow the returned ``RunStats`` (stage 1 and stage 2 of the attempt
that succeeded, or the fallback's greedy pass as stage 2), so
``engine.failed_attempts_s`` is the rest of ``run_full``.  The ``engine.*``
and ``chains.*`` counts add up every attempt ``run_full`` made, so restarts
show in them; ``engine.delta_gstar`` is the largest over attempts.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from common import SRC, Workload, check_coloring, run_child, sha256_file

# Unit of every per-layer metric, in the order they are printed.
LAYER_UNITS = {
    "cli.import_s": "s",
    "generators.generate_s": "s",
    "generators.self_s": "s",
    "fileio.read_edge_list_s": "s",
    "fileio.write_edge_list_s": "s",
    "fileio.write_coloring_s": "s",
    "fileio.read_coloring_s": "s",
    "fileio.edge_list_bytes": "B",
    "fileio.coloring_bytes": "B",
    "fileio.self_s": "s",
    "graph.build_graph_s": "s",
    "graph.bytes_per_edge": "B/edge",
    "graph.self_s": "s",
    "state.alloc_s": "s",
    "state.bytes_per_edge": "B/edge",
    "state.validate_proper_s": "s",
    "state.self_s": "s",
    "engine.run_full_s": "s",
    "engine.stage1_s": "s",
    "engine.stage1_us_per_edge": "us/edge",
    "engine.stage2_s": "s",
    "engine.failed_attempts_s": "s",
    "engine.attempts": "count",
    "engine.fallback": "count",
    "engine.flagged_edges": "count",
    "engine.flagged_share": "ratio",
    "engine.flags_fan": "count",
    "engine.flags_pivot": "count",
    "engine.palette_floor_hits": "count",
    "engine.delta_gstar": "count",
    "engine.greedy_draws_per_edge": "ratio",
    "engine.self_s": "s",
    "chains.fast_share": "ratio",
    "chains.path_edges_walked": "count",
    "chains.path_len_max": "count",
    "chains.shift_count": "count",
    "runtime.gc_collections": "count",
    "runtime.gc_s": "s",
    "runtime.self_s": "s",
    "trace.untraced_color_s": "s",
    "trace.overhead_share": "ratio",
}

IMPORT_SAMPLES = 5


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 is the root."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield self.spans[idx]
        finally:
            self._end(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._begin("runtime.gc")
        elif self._open and self.spans[self._open[-1]][0] == "runtime.gc":
            self._end(self._open[-1])

    def self_times(self) -> dict[str, float]:
        """Layer (name prefix) -> summed span duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def duration(self, name: str, parent: str | None = None) -> float:
        total = 0.0
        for name_, start, end, p in self.spans:
            if name_ == name and (parent is None or (p >= 0 and self.spans[p][0] == parent)):
                total += end - start
        return total


def _peak_bytes(fn):
    """tracemalloc peak of one call above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


def run_traced(w: Workload, seed: int, work: Path, deadline: float) -> dict:
    """One traced pass of gen -> color -> verify on the graph of ``seed``.

    Returns {"metrics", "problems", "record", "spans"}; problems is empty when the
    traced coloring checks out and matches the untraced CLI run byte for
    byte.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import edgecolor
    from edgecolor import engine, fileio, generators
    from edgecolor import ColoringFailed, ColoringState, GenSpec, RunConfig, build_graph, generate
    from edgecolor import run_full, validate_proper
    from edgecolor.fileio import read_coloring, read_edge_list, write_coloring, write_edge_list

    if not Path(edgecolor.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"edgecolor imported from {edgecolor.__file__}, not {SRC}")

    def remaining() -> float:
        return deadline - time.perf_counter()

    gseed = seed * 1000
    graph_path = work / "graph.txt"
    cli_coloring = work / "coloring_cli.txt"
    cli_stats = work / "stats_cli.txt"
    coloring_path = work / "coloring.txt"
    problems: list[str] = []

    imports = []
    for i in range(IMPORT_SAMPLES):
        r = run_child(["-c", "import edgecolor.cli"], work, f"import{i}", remaining())
        if r.rc:
            problems.append(f"import edgecolor.cli exited {r.rc}: {r.stderr.strip()[-200:]}")
        imports.append(r.wall_s)

    tracer = Tracer()
    cfg = RunConfig(epsilon=w.epsilon, ell_const=w.ell_const, seed=gseed)
    real_build = build_graph
    real_edge_color = engine.edge_color
    attempts = []

    def edge_color_attempt(*args, **kwargs):
        try:
            state, stats = real_edge_color(*args, **kwargs)
        except ColoringFailed as exc:
            attempts.append(exc.stats)
            raise
        attempts.append(stats)
        return state, stats

    gc.callbacks.append(tracer.on_gc)
    fileio.build_graph = generators.build_graph = tracer.wrap("graph.build_graph", real_build)
    engine.edge_color = tracer.wrap("engine.edge_color", edge_color_attempt)
    try:
        with tracer.span("generators.generate"):
            g = generate(GenSpec("random_regular", n=w.n, d=w.d, seed=gseed))
        with tracer.span("fileio.write_edge_list"):
            write_edge_list(graph_path, g)
        del g

        # The untraced CLI run on the same graph and seed: its wall time is
        # the base of the tracing overhead and its files the reference the
        # traced run must reproduce.
        cli = run_child(
            ["color", "--input", graph_path.name, "--epsilon", str(w.epsilon),
             "--ell-const", str(w.ell_const), "--seed", str(gseed),
             "--output", cli_coloring.name, "--stats", cli_stats.name],
            work, "color_cli", remaining(),
        )
        if cli.rc:
            problems.append(f"edgecolor color exited {cli.rc}: {cli.stderr.strip()[-200:]}")

        with tracer.span("fileio.read_edge_list"):
            g, labels = read_edge_list(graph_path)
        q_cap = cfg.total_colors(g.max_degree)
        with tracer.span("state.alloc"):
            fresh = ColoringState(g, q_cap)
        del fresh
        with tracer.span("engine.run_full") as run_span:
            state, stats = run_full(g, cfg)
        with tracer.span("fileio.write_coloring"):
            write_coloring(coloring_path, g, state.slot, labels)
        with tracer.span("fileio.read_coloring"):
            colors = read_coloring(coloring_path, g, labels)
        with tracer.span("state.validate_proper"):
            report = validate_proper(state)
    finally:
        fileio.build_graph = generators.build_graph = real_build
        engine.edge_color = real_edge_color
        gc.callbacks.remove(tracer.on_gc)

    if not report.ok:
        problems.append(f"validate_proper: {report.summary()}")
    if colors != list(state.slot):
        problems.append("read_coloring does not return the coloring just written")
    verdict = check_coloring(graph_path, coloring_path, None, w)
    problems.extend(verdict.problems)
    if not cli.rc:
        if sha256_file(cli_coloring) != sha256_file(coloring_path):
            problems.append("traced coloring differs from the CLI's on the same graph and seed")
        if cli_stats.read_text(encoding="utf-8") != stats.to_text(include_timings=False):
            problems.append("traced stats differ from the CLI's on the same graph and seed")

    graph_bytes = _peak_bytes(lambda: real_build(g.edges, g.n))
    state_bytes = _peak_bytes(lambda: ColoringState(g, q_cap))

    m = stats.m
    run_full_s = run_span[2] - run_span[1]
    stage1_s = stats.stage1_us / 1e6
    stage2_s = stats.stage2_us / 1e6
    # The fallback's greedy pass is not an edge_color attempt.
    runs = attempts + ([stats] if stats.fallback_used else [])

    def total(field):
        return sum(getattr(r, field) for r in runs)

    path_hist: dict[int, int] = {}
    for r in runs:
        for length, count in r.path_hist.items():
            path_hist[length] = path_hist.get(length, 0) + count
    colored_stage1 = total("colored_stage1")
    greedy_edges = total("greedy_edges")
    gc_in_run = [s for s in tracer.spans
                 if s[0] == "runtime.gc" and run_span[1] <= s[1] and s[2] <= run_span[2]]
    self_s = tracer.self_times()
    import_s = statistics.median(imports)
    read_s = tracer.duration("fileio.read_edge_list")
    write_col_s = tracer.duration("fileio.write_coloring")
    metrics = {
        "cli.import_s": import_s,
        "generators.generate_s": tracer.duration("generators.generate"),
        "generators.self_s": self_s.get("generators", 0.0),
        "fileio.read_edge_list_s": read_s,
        "fileio.write_edge_list_s": tracer.duration("fileio.write_edge_list"),
        "fileio.write_coloring_s": write_col_s,
        "fileio.read_coloring_s": tracer.duration("fileio.read_coloring"),
        "fileio.edge_list_bytes": graph_path.stat().st_size,
        "fileio.coloring_bytes": coloring_path.stat().st_size,
        "fileio.self_s": self_s.get("fileio", 0.0),
        "graph.build_graph_s": tracer.duration("graph.build_graph", parent="fileio.read_edge_list"),
        "graph.bytes_per_edge": graph_bytes / m,
        "graph.self_s": self_s.get("graph", 0.0),
        "state.alloc_s": tracer.duration("state.alloc"),
        "state.bytes_per_edge": state_bytes / m,
        "state.validate_proper_s": tracer.duration("state.validate_proper"),
        "state.self_s": self_s.get("state", 0.0),
        "engine.run_full_s": run_full_s,
        "engine.stage1_s": stage1_s,
        "engine.stage1_us_per_edge": stats.stage1_us / m,
        "engine.stage2_s": stage2_s,
        "engine.failed_attempts_s": run_full_s - stage1_s - stage2_s,
        "engine.attempts": len(attempts),
        "engine.fallback": int(stats.fallback_used),
        "engine.flagged_edges": total("flagged_count"),
        "engine.flagged_share": total("flagged_count") / (m * len(attempts)) if attempts else 0.0,
        "engine.flags_fan": total("flags_fan"),
        "engine.flags_pivot": total("flags_pivot"),
        "engine.palette_floor_hits": total("palette_floor_hits"),
        "engine.delta_gstar": max((r.delta_gstar for r in runs), default=0),
        "engine.greedy_draws_per_edge": total("greedy_draws") / greedy_edges if greedy_edges else 0.0,
        "engine.self_s": self_s.get("engine", 0.0),
        "chains.fast_share": path_hist.get(0, 0) / colored_stage1 if colored_stage1 else 0.0,
        "chains.path_edges_walked": sum(k * v for k, v in path_hist.items()),
        "chains.path_len_max": max(path_hist, default=0),
        "chains.shift_count": total("shift_count"),
        "runtime.gc_collections": len(gc_in_run),
        "runtime.gc_s": sum(s[2] - s[1] for s in gc_in_run),
        "runtime.self_s": self_s.get("runtime", 0.0),
        "trace.untraced_color_s": cli.wall_s,
        "trace.overhead_share": (import_s + read_s + run_full_s + write_col_s) / cli.wall_s - 1.0,
    }

    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    record = {
        "graph_seed": gseed,
        "color_seed": gseed,
        "coloring_sha256": sha256_file(coloring_path),
        "stats_sha256": sha256_file(cli_stats) if not cli.rc else None,
        "colors": verdict.colors,
        "q_cap": verdict.q_cap,
        "delta": verdict.delta,
    }
    spans = {
        "fields": ["name", "start_s", "end_s", "parent"],
        "rows": [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in tracer.spans],
    }
    return {"metrics": metrics, "problems": problems, "record": record, "spans": spans}
