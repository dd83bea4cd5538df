#!/usr/bin/env python3
"""End-to-end benchmark of the edgecolor user path: gen -> color -> verify.

Run from the repository root:

    python3 perfbench/run.py --workload dense-d100 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

``all`` runs every workload in common.WORKLOADS, tight-eps02 included; only
the workloads listed in BENCHMARK.json are gated runs.

``--trace 0`` runs the three CLI commands as separate processes, one at a
time, with the interpreter's defaults (gc on).  Passes repeat until
``--seconds`` seconds have gone by.  Each pass runs ``gen`` SETUP_REPS
times, each with a fresh seed derived from (seed, pass), colors the last
graph, and runs ``verify`` VERIFY_REPS times on it.  Every pass is
checked before its numbers count: exit codes, every ``verify`` saying OK, an
independent properness and completeness check of the coloring file, and the
stats file's m and max_color_used against the files.  A pass that uses more
than ceil((1 + eps) * Delta) colors (the greedy fallback) is over budget, not
failed.  Each metric is the median of all its samples in the run;
pipeline_s is the sum of the setup_s, color_s and verify_s medians.

The timings (setup_s, color_s, verify_s, pipeline_s) are reported in
seconds of the reference host.  The shared host this benchmark was tuned on
changes speed by a quarter over minutes, which moves every command alike and
no median within one run can remove.  So the runner starts probe.py, a
fixed program that imports nothing from the package, once before the first
command and again after every command, and scales each command's time by
PROBE_REF_S / (mean time of the two probes that bracket it); the metric is
the median of the scaled times.  The measured wall-clock medians and the
probe median are printed on the ``# measured`` line and kept in the record.

``--trace 1`` runs one traced in-process pass instead (see traced.py) and
reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  The lines before it print every metric by
name and unit, plus over_budget_share and failed_share, the sha256 of each
coloring and stats file, and provenance.  A full record goes to
``.perfbench_out/results/``.  Exits 2, printing no result, when the checkout
holds no package source.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time

from common import (OUT, PROBE, WORKLOADS, check_checkout, check_coloring, provenance, run_child,
                    sha256_file)

# Unit of every end-to-end metric, in the order they are printed.
E2E_UNITS = {
    "setup_s": "s",
    "color_s": "s",
    "verify_s": "s",
    "pipeline_s": "s",
    "color_peak_rss_mb": "MB",
    "verify_peak_rss_mb": "MB",
    "colors_over_delta": "ratio",
    "colors_over_budget": "ratio",
}

# Every child gets killed and the run ends well inside three minutes.
RUN_LIMIT_S = 170.0


# Metrics sampled once per command run; pipeline_s is the sum of the
# medians of the three timings.
SAMPLED = ("setup_s", "color_s", "verify_s", "color_peak_rss_mb", "verify_peak_rss_mb",
           "colors_over_delta", "colors_over_budget", "probe_s")
TIMED = ("setup_s", "color_s", "verify_s")

# gen and verify take a fraction of color's time; repeating them in each
# pass gives their medians more samples within the same run length.
SETUP_REPS = 2
VERIFY_REPS = 2

# Median wall time of probe.py on the reference host (2-core 2.1 GHz Xeon
# VM, Python 3.11, numpy 2.x) when it runs at its usual speed.
PROBE_REF_S = 0.5


def run_probe(work, deadline: float) -> tuple[float, str | None]:
    """Wall time of one probe.py run, and a problem if it failed."""
    r = run_child([str(PROBE)], work, "probe", deadline - time.perf_counter())
    return r.wall_s, (f"probe exited {r.rc}: {r.stderr.strip()[-200:]}" if r.rc else None)


def pipeline(w, first_seed: int, work, deadline: float, last_probe: list[float]) -> dict:
    """One pass: ``gen`` SETUP_REPS times with seeds first_seed, first_seed+1,
    ...; ``color`` the last graph with its seed; ``verify`` VERIFY_REPS times.
    Every command is followed by a probe; last_probe[0] holds the wall time of
    the probe that ran just before the pass and is updated as it goes.
    Returns the pass's samples (measured and scaled) and verdict."""
    gseed = first_seed + SETUP_REPS - 1
    rec = {"graph_seed": gseed, "color_seed": gseed, "problems": [],
           "samples": {name: [] for name in SAMPLED},
           "scaled": {name: [] for name in TIMED}}
    problems, samples = rec["problems"], rec["samples"]

    def step(tag, name, args):
        r = run_child(args, work, tag, deadline - time.perf_counter())
        if r.rc:
            problems.append(f"{tag} exited {r.rc}: {r.stderr.strip()[-200:]}")
        before = last_probe[0]
        last_probe[0], problem = run_probe(work, deadline)
        if problem:
            problems.append(problem)
        samples["probe_s"].append(last_probe[0])
        samples[name].append(r.wall_s)
        # Seconds at the reference host's speed, taken as the mean speed of
        # the two probes that bracket this command.
        rec["scaled"][name].append(r.wall_s * 2 * PROBE_REF_S / (before + last_probe[0]))
        return r

    for s in range(first_seed, gseed + 1):
        gen = step("gen", "setup_s", ["gen", "--model", "random_regular", "--n", str(w.n),
                                      "--d", str(w.d), "--seed", str(s), "--out", "graph.txt"])
        if gen.rc:
            return rec
    color = step("color", "color_s", ["color", "--input", "graph.txt", "--epsilon", str(w.epsilon),
                                      "--ell-const", str(w.ell_const), "--seed", str(gseed),
                                      "--output", "coloring.txt", "--stats", "stats.txt"])
    samples["color_peak_rss_mb"].append(color.peak_rss_mb)
    if color.rc:
        return rec
    for _ in range(VERIFY_REPS):
        verify = step("verify", "verify_s",
                      ["verify", "--input", "graph.txt", "--coloring", "coloring.txt"])
        samples["verify_peak_rss_mb"].append(verify.peak_rss_mb)
        if not verify.rc and not verify.stdout.startswith("OK:"):
            problems.append(f"verify printed {verify.stdout.strip()[:200]!r}")

    verdict = check_coloring(work / "graph.txt", work / "coloring.txt", work / "stats.txt", w)
    problems.extend(verdict.problems)
    samples["colors_over_delta"].append(verdict.colors / verdict.delta if verdict.delta else 0.0)
    samples["colors_over_budget"].append(verdict.colors / verdict.q_cap if verdict.q_cap else 0.0)
    rec.update(
        colors=verdict.colors, delta=verdict.delta, q_cap=verdict.q_cap,
        over_budget=verdict.over_budget,
        coloring_sha256=sha256_file(work / "coloring.txt"),
        stats_sha256=sha256_file(work / "stats.txt"),
    )
    return rec


def run_e2e(w, seed: int, seconds: int, work, t_start: float) -> dict:
    deadline = t_start + RUN_LIMIT_S
    # Compile the package's bytecode once so no timed pass pays for it.
    run_child(["-c", "import edgecolor.cli"], work, "warm", deadline - time.perf_counter())
    wall, problem = run_probe(work, deadline)
    if problem:
        raise SystemExit(f"perfbench: {problem}")
    last_probe = [wall]
    passes = []
    t0 = time.perf_counter()
    while True:
        first_seed = seed * 1000 + len(passes) * SETUP_REPS
        passes.append(pipeline(w, first_seed, work, deadline, last_probe))
        elapsed = time.perf_counter() - t0
        per_pass = elapsed / len(passes)
        # Start another pass only if it should end within half a pass of
        # --seconds, and at most 10% past it, so a run lasts about --seconds
        # whatever the pass length.
        if (elapsed + per_pass / 2 >= seconds or elapsed + per_pass > 1.1 * seconds
                or time.perf_counter() + per_pass > deadline - 10):
            break
    failed = sum(1 for p in passes if p["problems"])
    good = [p for p in passes if not p["problems"]] or passes

    def median(key, name):
        values = [v for p in good for v in p[key][name]]
        return statistics.median(values) if values else 0.0

    measured = {name: median("samples", name) for name in SAMPLED}
    metrics = dict(measured, **{name: median("scaled", name) for name in TIMED})
    for m in (measured, metrics):
        m["pipeline_s"] = m["setup_s"] + m["color_s"] + m["verify_s"]
    return {
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: metrics[name] for name in E2E_UNITS},
        "measured": {name: measured[name] for name in TIMED + ("pipeline_s", "probe_s")},
        "shares": {
            "over_budget_share": sum(1 for p in passes if p.get("over_budget")) / len(passes),
            "failed_share": failed / len(passes),
        },
        "passes": passes,
    }


def run_trace(w, seed: int, work, t_start: float) -> dict:
    from traced import run_traced

    res = run_traced(w, seed, work, t_start + RUN_LIMIT_S)
    return {
        "attempted": 1,
        "failed": int(bool(res["problems"])),
        "metrics": res["metrics"],
        "shares": {},
        "passes": [dict(res["record"], problems=res["problems"])],
        "spans": res["spans"],
    }


def run_workload(w, seed: int, seconds: int, trace: bool, prov: dict) -> dict:
    from traced import LAYER_UNITS

    t_start = time.perf_counter()
    name = w.name
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    try:
        res = run_trace(w, seed, work, t_start) if trace else run_e2e(w, seed, seconds, work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = LAYER_UNITS if trace else E2E_UNITS

    print(f"# workload {name}: n={w.n} d={w.d} epsilon={w.epsilon} ell_const={w.ell_const} "
          f"seed={seed} trace={int(trace)} passes={res['attempted']} failed={res['failed']}")
    print(f"# why: {w.why}")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for key, value in res["metrics"].items():
        print(f"{key:32s} {value:>16.6f} {units[key]}")
    for key, value in res["shares"].items():
        print(f"{key:32s} {value:>16.6f} ratio")
    if "measured" in res:
        print("# measured wall s: " + " ".join(f"{k}={v:.6f}" for k, v in res["measured"].items()))
    for p in res["passes"]:
        print(f"# graph_seed={p['graph_seed']} coloring_sha256={p.get('coloring_sha256')} "
              f"stats_sha256={p.get('stats_sha256')}")
        for problem in p["problems"]:
            print(f"# FAILED graph_seed={p['graph_seed']}: {problem}")

    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }
    record = dict(result, workload=name, why=w.why, seed=seed, seconds=seconds,
                  trace=int(trace), provenance=prov, shares=res["shares"],
                  measured=res.get("measured"), passes=res["passes"],
                  spans=res.get("spans"), wall_s=time.perf_counter() - t_start)
    path = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every graph's vertex count by this factor (self-test only)")
    args = parser.parse_args(argv)
    # A terminated run unwinds, so run_child kills the command it waits on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1 or not 0.0 < args.scale <= 1.0:
        parser.error("need --seed >= 0, --seconds >= 1 and 0 < --scale <= 1")
    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    prov = provenance()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        w = WORKLOADS[name].scaled(args.scale) if args.scale != 1.0 else WORKLOADS[name]
        result = run_workload(w, args.seed, args.seconds, bool(args.trace), prov)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
