"""Command-line surface: gen, color, verify, oracle, bench.

Exit codes: 0 success, 1 a bad input file, an improper coloring (verify) or
too little memory, 2 usage error (one line on stderr, no traceback).  color
always writes a coloring within the budget; fallback_used and restarts_used
in --stats, and its restart: and fallback: lines on stderr, say how it got
there.  The EDGECOLOR_SEED environment variable overrides the default seed;
explicit --seed flags win over both.

Each command imports the modules it runs when it starts, so verify loads
neither the engine nor the generators, and only bench loads the harness.
Importing this module loads no numpy either: main() first caps OpenBLAS at
one thread (OPENBLAS_NUM_THREADS=1, unless the user set it), and numpy loads
inside the command after that.  The package makes no BLAS call, and the
worker threads OpenBLAS starts at load time otherwise cost every command
time at startup and compete with the main thread while it runs.

main() also registers gc.freeze to run at exit: the interpreter's final
collections then skip every object that numpy and the command made, which
they would only walk to free nothing (9-12 ms per command on a 2-core
host).  The collector stays on while the command runs, and cli_main(argv)
leaves it as it finds it.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from .errors import EdgeColorError, InvalidSpec


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


def _checked(cfg):
    """The RunConfig cfg, once its check passes."""
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
    from .fileio import format_edge_list, write_edge_list
    from .generators import GenSpec, generate

    spec = GenSpec(args.model, n=args.n, p=args.p, d=args.d, a=args.a, b=args.b,
                   dim=args.dim, seed=_seed(args))
    try:
        g = generate(spec)
    except InvalidSpec as exc:
        raise UsageError(str(exc)) from None
    if args.out:
        write_edge_list(args.out, g)
    else:
        sys.stdout.write(format_edge_list(g))
    print(f"generated {args.model}: n={g.n} m={g.m} max_degree={g.max_degree}",
          file=sys.stderr)
    return 0


def _cmd_color(args) -> int:
    from .engine import RunConfig, run_full
    from .fileio import format_coloring, read_edge_list, write_coloring

    cfg = _checked(RunConfig(
        epsilon=args.epsilon,
        kappa_const=args.kappa_const,
        ell_const=args.ell_const,
        t_const=args.t_const,
        seed=_seed(args),
        max_restarts=args.max_restarts,
    ))
    g, labels = read_edge_list(args.input)
    state, stats = run_full(g, cfg)
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
    import numpy as np

    from .fileio import read_colors, read_edge_list
    from .state import find_conflicts

    g, labels = read_edge_list(args.input)
    colors = read_colors(args.coloring, g, labels)
    problems = [
        f"conflict: edges {labels[g.edge_u[e1]]}-{labels[g.edge_v[e1]]} and "
        f"{labels[g.edge_u[e2]]}-{labels[g.edge_v[e2]]} share color {c} at vertex {labels[x]}"
        for e1, e2, x, c in find_conflicts(g, colors)
    ]
    uncolored = int(np.count_nonzero(colors == 0))
    if uncolored:
        problems.append(f"incomplete: {uncolored} edges have color 0")
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    print(f"OK: {len(colors)} edges, {int(colors.max(initial=0))} max color")
    return 0


def _cmd_oracle(args) -> int:
    from .fileio import read_edge_list
    from .oracle import brute_chromatic_index

    g, _ = read_edge_list(args.input)
    result = brute_chromatic_index(g)
    print(f"chromatic_index {result.chromatic_index}")
    return 0


def _cmd_bench(args) -> int:
    from .bench import bench_sweep, summarize
    from .engine import RunConfig

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
    records = bench_sweep(
        sizes, epsilons, args.trials, cfg, delta=args.delta, model=args.model, out=args.out
    )
    sys.stdout.write(summarize(records))
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    # Before any command imports numpy; see the module docstring.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    atexit.register(gc.freeze)
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
