"""Command-line surface: gen, color, verify, oracle, bench.

Exit codes: 0 success, 1 failure or violation, 2 usage error (one line on
stderr, no traceback).  The EDGECOLOR_SEED environment variable overrides the
default seed; explicit --seed flags win over both.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench as bench_mod
from .engine import RunConfig, run_full
from .errors import EdgeColorError, Exhausted, InvalidSpec
from .fileio import read_coloring, read_edge_list, write_coloring, write_edge_list
from .generators import GenSpec, generate
from .oracle import brute_chromatic_index
from .state import find_conflicts


class UsageError(Exception):
    """A bad command-line value; reported in one line with exit code 2."""


def _seed(args) -> int:
    """The --seed flag, else EDGECOLOR_SEED, else 0; always a non-negative int."""
    seed = args.seed
    if seed is None:
        text = os.environ.get("EDGECOLOR_SEED") or "0"
        try:
            seed = int(text)
        except ValueError:
            raise UsageError(f"EDGECOLOR_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    return seed


def _checked(cfg: RunConfig) -> RunConfig:
    try:
        cfg.check()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _number_list(text: str, kind, flag: str) -> list:
    try:
        values = [kind(s) for s in text.split(",") if s]
    except ValueError:
        raise UsageError(f"{flag} takes comma-separated numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} needs at least one value")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgecolor")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph and write it as an edge list")
    p_gen.add_argument("--model", required=True,
                       choices=["gnp", "random_regular", "complete", "complete_bipartite", "hypercube"])
    p_gen.add_argument("--n", type=int, default=0)
    p_gen.add_argument("--p", type=float, default=0.0)
    p_gen.add_argument("--d", type=int, default=0)
    p_gen.add_argument("--a", type=int, default=0)
    p_gen.add_argument("--b", type=int, default=0)
    p_gen.add_argument("--dim", type=int, default=0)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")

    p_color = sub.add_parser("color", help="edge-color a graph")
    p_color.add_argument("--input", required=True)
    p_color.add_argument("--epsilon", type=float, default=0.5)
    p_color.add_argument("--seed", type=int, default=None)
    p_color.add_argument("--output", default=None, help="coloring path (default: stdout)")
    p_color.add_argument("--kappa-const", type=float, default=4.0)
    p_color.add_argument("--ell-const", type=float, default=2.0)
    p_color.add_argument("--t-const", type=float, default=100.0)
    p_color.add_argument("--max-restarts", type=int, default=3)
    p_color.add_argument("--no-fallback", action="store_true",
                         help="never color with D+1 colors by Vizing chains: always make "
                              "the stage-1 attempts and exit 1 when all fail")
    p_color.add_argument("--stats", default=None, help="write run counters to this path")

    p_verify = sub.add_parser("verify", help="check a coloring file against its graph")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--coloring", required=True)

    p_oracle = sub.add_parser("oracle", help="exact chromatic index (m <= 16)")
    p_oracle.add_argument("--input", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep, emit CSV")
    p_bench.add_argument("--sizes", required=True, help="comma-separated target edge counts")
    p_bench.add_argument("--epsilons", required=True, help="comma-separated epsilons")
    p_bench.add_argument("--trials", type=int, required=True)
    p_bench.add_argument("--delta", type=int, default=100)
    p_bench.add_argument("--model", default="random_regular", choices=["random_regular", "gnp"])
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", required=True)
    return parser


def _cmd_gen(args) -> int:
    spec = GenSpec(args.model, n=args.n, p=args.p, d=args.d, a=args.a, b=args.b,
                   dim=args.dim, seed=_seed(args))
    try:
        spec.check()
    except InvalidSpec as exc:
        raise UsageError(str(exc)) from None
    g = generate(spec)
    if args.out:
        write_edge_list(args.out, g)
    else:
        from .fileio import format_edge_list

        sys.stdout.write(format_edge_list(g))
    print(f"generated {args.model}: n={g.n} m={g.m} max_degree={g.max_degree}",
          file=sys.stderr)
    return 0


def _cmd_color(args) -> int:
    cfg = _checked(RunConfig(
        epsilon=args.epsilon,
        kappa_const=args.kappa_const,
        ell_const=args.ell_const,
        t_const=args.t_const,
        seed=_seed(args),
        max_restarts=args.max_restarts,
        small_delta_fallback=not args.no_fallback,
    ))
    g, labels = read_edge_list(args.input)
    try:
        state, stats = run_full(g, cfg)
    except Exhausted as exc:
        for cause in exc.causes:
            print(f"restart: {cause}", file=sys.stderr)
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    for cause in stats.restart_causes:
        print(f"restart: {cause}", file=sys.stderr)
    if stats.fallback_used:
        if stats.restart_causes:
            reason = f"all {len(stats.restart_causes)} attempts failed"
        else:
            reason = f"eps*D/6 = {cfg.flag_bound(stats.delta):.3f} < 1"
        print(
            f"fallback: {reason}; Vizing coloring with D+1 = {stats.delta + 1} colors "
            f"(budget {stats.q_cap})",
            file=sys.stderr,
        )
    if args.output:
        write_coloring(args.output, g, state.slot, labels)
    else:
        from .fileio import format_coloring

        sys.stdout.write(format_coloring(g, state.slot, labels))
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            # Timings omitted so equal (graph, config, seed) gives equal bytes.
            fh.write(stats.to_text(include_timings=False))
    print(
        f"colored m={g.m} with {stats.max_color_used} colors "
        f"(budget {stats.q_cap}, restarts {stats.restarts_used}, "
        f"fallback {int(stats.fallback_used)}, {stats.total_us} us)",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    g, labels = read_edge_list(args.input)
    colors = read_coloring(args.coloring, g, labels)
    problems = [
        f"conflict: edges {labels[g.edge_u[e1]]}-{labels[g.edge_v[e1]]} and "
        f"{labels[g.edge_u[e2]]}-{labels[g.edge_v[e2]]} share color {c} at vertex {labels[x]}"
        for e1, e2, x, c in find_conflicts(g, colors)
    ]
    uncolored = sum(1 for c in colors if c == 0)
    if uncolored:
        problems.append(f"incomplete: {uncolored} edges have color 0")
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    print(f"OK: {len(colors)} edges, {max(colors, default=0)} max color")
    return 0


def _cmd_oracle(args) -> int:
    g, _ = read_edge_list(args.input)
    result = brute_chromatic_index(g)
    print(f"chromatic_index {result.chromatic_index}")
    return 0


def _cmd_bench(args) -> int:
    sizes = _number_list(args.sizes, int, "--sizes")
    if min(sizes) < 1:
        raise UsageError(f"--sizes must be positive edge counts, got {min(sizes)}")
    epsilons = _number_list(args.epsilons, float, "--epsilons")
    seed = _seed(args)
    for eps in epsilons:
        _checked(RunConfig(epsilon=eps))
    if args.trials < 0:
        raise UsageError(f"--trials must be non-negative, got {args.trials}")
    if args.delta < 1:
        raise UsageError(f"--delta must be at least 1, got {args.delta}")
    cfg = RunConfig(epsilon=epsilons[0], seed=seed)
    records = bench_mod.bench_sweep(
        sizes, epsilons, args.trials, cfg, delta=args.delta, model=args.model, out=args.out
    )
    sys.stdout.write(bench_mod.summarize(records))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "color": _cmd_color,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EdgeColorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
