"""Randomized coloring drivers.

Stage 1 visits the edges in one uniformly random order and samples a small
random palette for each: first sampled color free at both ends, else a fan
from the first missing at the far end, grown into a Vizing chain.  When a
chain's path hits the length cap, the blank edge is shifted to a random point
along the path and the attempt continues with a fresh, disjoint palette.
Edges whose attempts fail are flagged.  Stage 2 greedy-colors the flagged
subgraph with a disjoint block of colors.  A run fails when the flagged
subgraph is too dense for the stage-2 budget.  run_full restarts failed runs
and, when every attempt failed or epsilon*Delta/6 < 1, falls back to
vizing_color, which colors the whole graph with Delta + 1 colors: a first
fit over per-vertex bitsets, then Vizing chains for the edges it missed.
"""

from __future__ import annotations

import enum
import math
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from .chains import _augment_core, _follow_core, _make_fan_core
from .errors import AlreadyColored, ColoringFailed, EmptyPool, ImproperAugment, InsufficientColors
from .graph import Graph
from .state import BLANK, ColoringState, flagged_subgraph


def _ceil(value: float) -> int:
    # ceil with a tiny slack so decimal parameters like 0.1 * 400 / 2 do not
    # round 20.000000000000004 up to 21; a positive value still rounds to >= 1.
    return max(math.ceil(value - 1e-9), 1 if value > 0 else 0)


_INT32_MAX = 2**31 - 1  # the range edge ids live in; caps ell and rounds


@dataclass(frozen=True)
class RunConfig:
    """Parameters of a coloring run.

    epsilon is the palette slack: a successful run uses at most
    ceil((1 + epsilon) * max_degree) colors.  The remaining knobs scale the
    derived per-attempt parameters and are exposed for benchmarking sweeps:

    * sample size  kappa  = ceil(kappa_const * ln(max_degree) / epsilon)
    * path cap     ell    = ceil(ell_const * kappa^2)
    * max rounds   rounds = ceil(t_const * ln(max_degree))

    Defaults keep kappa^2 / ell <= 1/2 so repeated shifting dies off
    geometrically.  All three are clamped to usable minimums on tiny graphs,
    and kappa to q1 * (ln q1 + 1), q1 = stage1_colors(max_degree): that is
    at least q1 * H(q1), the expected number of draws that see all q1
    colors, and more draws mostly repeat colors.  ell and rounds are clamped
    to 2**31 - 1, so a huge finite constant cannot overflow.

    run_full makes up to 1 + max_restarts stage-1 attempts.  It colors the
    graph with max_degree + 1 colors by vizing_color instead when
    epsilon * max_degree / 6 < 1 (one flag already fails an attempt, so none
    is made) or when every attempt failed.
    """

    epsilon: float
    kappa_const: float = 4.0
    ell_const: float = 2.0
    t_const: float = 100.0
    seed: int = 0
    max_restarts: int = 3

    def check(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        for name in ("kappa_const", "ell_const", "t_const"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")

    def kappa(self, delta: int) -> int:
        q1 = self.stage1_colors(delta)
        kappa = min(self.kappa_const * math.log(delta) / self.epsilon, q1 * (math.log(q1) + 1))
        return max(1, _ceil(kappa))

    def ell(self, delta: int) -> int:
        return max(2, _ceil(min(self.ell_const * self.kappa(delta) ** 2, _INT32_MAX)))

    def rounds(self, delta: int) -> int:
        return max(1, _ceil(min(self.t_const * math.log(delta), _INT32_MAX)))

    def stage1_colors(self, delta: int) -> int:
        """Stage-1 palette size: ceil((1 + epsilon/2) * delta)."""
        return delta + _ceil(self.epsilon * delta / 2.0)

    def total_colors(self, delta: int) -> int:
        """Overall color budget: ceil((1 + epsilon) * delta)."""
        return delta + _ceil(self.epsilon * delta)

    def palette_floor(self, delta: int) -> float:
        """Minimum pool size below which further sampling is pointless."""
        return (1.0 + self.epsilon / 100.0) * delta

    def flag_bound(self, delta: int) -> float:
        """Largest flagged-subgraph degree stage 2 can absorb: epsilon*delta/6."""
        return self.epsilon * delta / 6.0


class FlagReason(enum.Enum):
    FAN_FAIL = "fan_fail"
    PIVOT_FAIL = "pivot_fail"
    MAX_ITERATIONS = "max_iterations"
    PALETTE_FLOOR = "palette_floor"  # a later round's pool fell under palette_floor


@dataclass(frozen=True, slots=True)
class ColorOneOutcome:
    """Result of one color_one call: the edge was colored, or some edge was flagged."""

    colored: bool
    iterations: int
    flagged_edge: int | None = None
    reason: FlagReason | None = None


@dataclass(eq=False)
class RunStats:
    """Counters and histograms collected during a run.

    Totals are consistent by construction: colored_stage1 + flagged_count
    equals m after stage 1, and every flagged edge is colored in stage 2
    (or the run fails).  Each flag is counted by its reason where it is
    set, so flags_total equals flagged_count after stage 1, and the number
    of edges flagged after color_one calls.  Fields are declared in
    ``to_text`` order.
    """

    n: int = 0
    m: int = 0
    delta: int = 0
    epsilon: float = 0.0
    kappa: int = 0
    ell: int = 0
    rounds: int = 0
    q1: int = 0
    q_cap: int = 0
    seed: int = 0
    colored_stage1: int = 0
    flagged_count: int = 0
    flags_fan: int = 0
    flags_pivot: int = 0
    flags_maxiter: int = 0
    palette_floor_hits: int = 0
    shift_count: int = 0
    delta_gstar: int = 0
    gstar_edges: int = 0
    greedy_colors: int = 0
    greedy_edges: int = 0
    greedy_draws: int = 0
    restarts_used: int = 0
    fallback_used: bool = False
    max_color_used: int = 0
    iteration_hist: dict[int, int] = field(default_factory=dict)
    path_hist: dict[int, int] = field(default_factory=dict)
    stage1_us: int = 0
    stage2_us: int = 0
    # One line per failed attempt of run_full; kept out of to_text so stats
    # files do not change with the message wording.
    restart_causes: list[str] = field(default_factory=list)

    @classmethod
    def for_run(cls, g: Graph, cfg: RunConfig) -> "RunStats":
        stats = cls(n=g.n, m=g.m, delta=g.max_degree, epsilon=cfg.epsilon, seed=cfg.seed)
        if g.max_degree >= 1:
            stats.kappa = cfg.kappa(g.max_degree)
            stats.ell = cfg.ell(g.max_degree)
            stats.rounds = cfg.rounds(g.max_degree)
            stats.q1 = cfg.stage1_colors(g.max_degree)
            stats.q_cap = cfg.total_colors(g.max_degree)
        return stats

    @property
    def flags_total(self) -> int:
        return self.flags_fan + self.flags_pivot + self.flags_maxiter + self.palette_floor_hits

    @property
    def total_us(self) -> int:
        return self.stage1_us + self.stage2_us

    def items(self, include_timings: bool = True) -> list[tuple[str, str]]:
        """(name, text) per field in declaration order, restart_causes left out;
        dicts print as k:v,... and bools as ints."""
        pairs = []
        for f in fields(self):
            if f.name == "restart_causes" or (f.name.endswith("_us") and not include_timings):
                continue
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = ",".join(f"{k}:{v}" for k, v in sorted(value.items()))
            pairs.append((f.name, str(int(value) if isinstance(value, bool) else value)))
        return pairs

    def to_text(self, include_timings: bool = True) -> str:
        """Flat key=value block; timings are optional so output can be byte-reproducible."""
        return "".join(f"{k}={v}\n" for k, v in self.items(include_timings))


# ---------------------------------------------------------------------------
# Palette sampling.
# ---------------------------------------------------------------------------


def sample_palette(pool, kappa: int, rng) -> list[int]:
    """Draw kappa colors from ``pool`` with replacement; return them deduplicated, in draw order."""
    if len(pool) == 0:
        raise EmptyPool("cannot sample from an empty color pool")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    idx = rng.integers(0, len(pool), size=kappa)
    return list(dict.fromkeys(pool[i] for i in idx))


# Round-1 colors drawn per refill of edge_color's draw list; part of the RNG stream.
_DRAW_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# Color One.
# ---------------------------------------------------------------------------

def _color_one_raw(state, e, x, q1, kappa, ell, rounds, floor_q, first_C, rng, path_counts, stats):
    """Try to color blank edge e, shifting it along capped chains as needed.

    ``first_C`` is the round-1 palette sample (duplicates allowed); later
    rounds sample their own disjoint palettes.  Each round scans its sample
    in draw order and ends in one outcome: first fit (a color free at both
    ends); a happy fan or a path shorter than ``ell``, augmented; a shift,
    which cuts a random edge of the capped path, augments the path prefix
    before it and moves on to the cut edge; or a flag, counted in ``stats``
    by its reason where it is set, so every caller's stats count it.
    ``path_counts`` is a length histogram indexed by path length.
    Returns (colored, iterations, flagged_edge, reason), reason a FlagReason
    or None when colored.  Exactly one of two postconditions holds: e joined
    the colored set and nothing was flagged, or one edge (possibly a shifted
    descendant of e) moved from colored-or-e to flagged and everything else
    is unchanged.
    """
    g = state.graph
    slot = state.slot
    miss = state.missing
    eu = g.edge_u
    ev = g.edge_v
    C = first_C
    pool = None
    sampled = None
    for t in range(1, rounds + 1):
        if t > 1:
            if pool is None:
                sampled = set(first_C)
                pool = [c for c in range(1, q1 + 1) if c not in sampled]
            # len(pool) is exactly the number of never-sampled colors left.
            if len(pool) < floor_q:
                # Pool too depleted for the success guarantees; stop early.
                state.flag(e)
                stats.palette_floor_hits += 1
                return False, t - 1, e, FlagReason.PALETTE_FLOOR
            C = sample_palette(pool, kappa, rng)
            cset = set(C)
            assert cset.isdisjoint(sampled), "palettes within one call must be disjoint"
            sampled |= cset
            pool = [c for c in pool if c not in cset]

        # First fit (the trivial Vizing chain), else eta, the first sampled
        # color missing at the far endpoint, starts the fan; with no eta the
        # fan fails at its first frontier.
        y = eu[e] + ev[e] - x
        my = miss[y]
        mx = miss[x]
        eta = 0
        for c in C:
            if my[c] < 0:
                if mx[c] < 0:
                    path_counts[0] += 1
                    slot[e] = c
                    my[c] = e
                    mx[c] = e
                    state.colored_count += 1
                    return True, t, -1, None
                if not eta:
                    eta = c
        fan = _make_fan_core(miss, eu, ev, e, x, C, first_eta=eta)
        if fan is None:
            state.flag(e)
            stats.flags_fan += 1
            return False, t, e, FlagReason.FAN_FAIL
        leaves, leaf_eids, alpha, j = fan

        if j == len(leaves):
            # Happy fan: alpha is missing at the pivot, rotate and color.
            path_counts[0] += 1
            _augment_core(state, x, leaves, leaf_eids, alpha, None, j, (x,), ())
            return True, t, -1, None

        for beta in C:
            if mx[beta] < 0:
                break
        else:
            state.flag(e)
            stats.flags_pivot += 1
            return False, t, e, FlagReason.PIVOT_FAIL

        pv, pe, _trunc = _follow_core(miss, eu, ev, x, alpha, beta, ell)
        s = len(pe)
        path_counts[s] += 1

        if s < ell:
            _augment_core(state, x, leaves, leaf_eids, alpha, beta, j, pv, pe)
            return True, t, -1, None

        # Path hit the cap: uncolor a uniformly random path edge, augment the
        # path prefix before it, and continue from the moved blank edge with
        # the next (disjoint) palette.
        lp = int(rng.integers(1, ell + 1))
        cut = pe[lp - 1]
        state.unassign(cut)
        _augment_core(state, x, leaves, leaf_eids, alpha, beta, j, pv[:lp], pe[: lp - 1])
        stats.shift_count += 1
        e = cut
        x = pv[lp - 1]
    state.flag(e)
    stats.flags_maxiter += 1
    return False, rounds, e, FlagReason.MAX_ITERATIONS


def color_one(
    state: ColoringState,
    e: int,
    x: int,
    cfg: RunConfig,
    rng,
    stats: RunStats | None = None,
    q1: int | None = None,
) -> ColorOneOutcome:
    """Color blank edge e or flag one edge, leaving the state proper either way.

    ``q1`` overrides the derived stage-1 palette size (testing hook for
    adversarial palettes).  The flag reason and iteration count in the
    outcome describe the run exactly.
    """
    cfg.check()
    g = state.graph
    if state.slot[e] != BLANK:
        raise AlreadyColored(f"edge {e} is not blank")
    if x not in (g.edge_u[e], g.edge_v[e]):
        raise ValueError(f"vertex {x} is not an endpoint of edge {e}")
    delta = g.max_degree
    if q1 is None:
        q1 = cfg.stage1_colors(delta)
    if not 1 <= q1 <= state.q:
        raise ValueError(f"stage-1 palette size {q1} outside [1, {state.q}]")
    if stats is None:
        stats = RunStats.for_run(g, cfg)
    kappa = cfg.kappa(delta)
    ell = cfg.ell(delta)
    first = sample_palette(range(1, q1 + 1), kappa, rng)
    path_counts = [0] * (min(ell, g.n - 1) + 1)  # a simple path has at most n - 1 edges
    colored, iters, fedge, reason = _color_one_raw(
        state, e, x, q1, kappa, ell, cfg.rounds(delta),
        cfg.palette_floor(delta), first, rng, path_counts, stats,
    )
    stats.iteration_hist[iters] = stats.iteration_hist.get(iters, 0) + 1
    for length, count in enumerate(path_counts):
        if count:
            stats.path_hist[length] = stats.path_hist.get(length, 0) + count
    if colored:
        return ColorOneOutcome(True, iters)
    return ColorOneOutcome(False, iters, fedge, reason)


# ---------------------------------------------------------------------------
# Greedy coloring (stage 2).
# ---------------------------------------------------------------------------


def greedy_color(g: Graph, num_colors: int, rng, stats: RunStats | None = None) -> ColoringState:
    """Color every edge by redrawing uniform colors until one fits.

    Stage 2 colors the flagged subgraph with it.  Requires
    num_colors >= 2 * max_degree - 1 so a draw always can succeed; each draw
    then fits with probability at least
    (num_colors - 2*max_degree + 2) / num_colors.
    """
    delta = g.max_degree
    if delta >= 1 and num_colors < 2 * delta - 1:
        raise InsufficientColors(
            f"{num_colors} colors < 2*{delta} - 1 required by the greedy guarantee"
        )
    state = ColoringState(g, max(1, num_colors))
    miss = state.missing
    slot = state.slot
    eu = g.edge_u
    ev = g.edge_v
    draws = 0
    buf: list[int] = []
    cursor = 0
    for e in range(g.m):
        u = eu[e]
        v = ev[e]
        mu = miss[u]
        mv = miss[v]
        while True:
            if cursor == len(buf):
                buf = rng.integers(1, num_colors + 1, size=1024).tolist()
                cursor = 0
            c = buf[cursor]
            cursor += 1
            draws += 1
            if mu[c] < 0 and mv[c] < 0:
                slot[e] = c
                mu[c] = e
                mv[c] = e
                state.colored_count += 1
                break
    if stats is not None:
        stats.greedy_colors = num_colors
        stats.greedy_edges += g.m
        stats.greedy_draws += draws
    return state


# ---------------------------------------------------------------------------
# Vizing coloring (the small-degree fallback).
# ---------------------------------------------------------------------------


def vizing_color(g: Graph, rng, stats: RunStats | None = None) -> ColoringState:
    """Color every edge with at most max_degree + 1 colors (Vizing's theorem).

    Two passes over one random edge order.  The first gives each edge the
    smallest color in [1, max_degree + 1] free at both endpoints, writing
    only the slots (see _first_fit); the edge-id table is then filled from
    them in one go.  The second colors each edge that found no free color,
    in the same order, with the stage-1 chain routine over the full palette
    and no path cap.  Every vertex then misses some color, so neither a fan
    nor a pivot can fail and no edge is flagged.  ``stats.path_hist``
    counts the first-fit edges at length 0.
    """
    m = g.m
    q = g.max_degree + 1
    state = ColoringState(g, q)
    eu = g.edge_u
    if stats is None:
        stats = RunStats()
    order = array("i", rng.permutation(m).astype(np.int32).tobytes())
    misses = _first_fit(state, order)
    del order
    state.fill_missing()
    palette = list(range(1, q + 1))
    path_counts = Counter()
    raw = _color_one_raw
    for e in misses:
        raw(state, e, eu[e], q, q, m + 1, 1, 0, palette, rng, path_counts, stats)
    path_counts[0] += m - len(misses)
    stats.path_hist = dict(sorted(path_counts.items()))
    _check(state.colored_count == m, "every edge colored")
    _check(state.max_color_used() <= q, f"max color <= D + 1 = {q}")
    return state


def _first_fit(state: ColoringState, order) -> array:
    """Give each edge of ``order``, in turn, the smallest color in
    [1, state.q] free at both endpoints; return the edges that found none.

    Writes only ``state.slot``: the colors used at each vertex are one
    Python int, bit c - 1 for color c, so the lowest color free at both
    ends of u-v is the lowest zero bit of used[u] | used[v].  The edge-id
    table and colored_count are left for ColoringState.fill_missing.
    """
    g = state.graph
    slot = state.slot
    eu = g.edge_u
    ev = g.edge_v
    q = state.q
    used = [0] * g.n
    misses = array("i")
    for e in order:
        u = eu[e]
        v = ev[e]
        b = ~(used[u] | used[v])
        b &= -b
        if b >> q:
            misses.append(e)
        else:
            slot[e] = b.bit_length()
            used[u] |= b
            used[v] |= b
    return misses


# ---------------------------------------------------------------------------
# The two-stage driver.
# ---------------------------------------------------------------------------


def edge_color(g: Graph, cfg: RunConfig, rng=None) -> tuple[ColoringState, RunStats]:
    """Produce a proper coloring of g with at most ceil((1+epsilon)*Delta) colors.

    Raises ColoringFailed as soon as a flag pushes the flagged subgraph's
    degree past epsilon*Delta/6: flags are never lifted in stage 1, so the
    attempt is already lost, and the caller may retry with fresh randomness
    (see run_full).  On success the returned state has no blank and no
    flagged edges.
    """
    cfg.check()
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    stats = RunStats.for_run(g, cfg)
    m = g.m
    delta = g.max_degree
    if m == 0:
        return ColoringState(g, 1), stats

    q1 = cfg.stage1_colors(delta)
    q_cap = cfg.total_colors(delta)
    kappa = cfg.kappa(delta)
    ell = cfg.ell(delta)
    rounds = cfg.rounds(delta)
    floor_q = cfg.palette_floor(delta)
    bound = cfg.flag_bound(delta)

    state = ColoringState(g, q_cap)
    slot = state.slot
    miss = state.missing
    eu = g.edge_u
    ev = g.edge_v

    t0 = time.perf_counter_ns()
    # One uniformly random edge order and a coin per edge for which endpoint
    # becomes the pivot.  Machine-typed, so the per-edge scratch is 5 bytes
    # and no int object; edge ids already fit in "i", as in the missing rows.
    order = array("i", rng.permutation(m).astype(np.int32).tobytes())
    coins = rng.integers(0, 2, size=m).astype(np.int8).tobytes()
    path_counts = [0] * (min(ell, g.n - 1) + 1)  # a simple path has at most n - 1 edges
    iter_counts = [0] * (min(rounds, q1) + 1)  # each later round drops >= 1 of q1 colors
    flag_degree = [0] * g.n  # per-vertex degree in the flagged subgraph so far
    raw = _color_one_raw
    # Round-1 colors: i.i.d. uniform draws from [1, q1], read in order from
    # ``cur``.  An edge's sample is the kappa draws from there on, but first
    # fit stops at the first color free at both ends, and the unread tail is
    # still uniform, so the next edge starts right after the hit.  Refilled
    # in blocks once fewer than kappa draws are left.
    draws: list[int] = []
    cur = 0
    stop = -kappa  # refill when cur > stop = len(draws) - kappa
    block = max(_DRAW_BLOCK, kappa)
    fast = 0  # edges first-fit below; added to the counters after the loop
    for i, e in enumerate(order):
        if cur > stop:
            draws = draws[cur:] + rng.integers(1, q1 + 1, size=block).tolist()
            cur = 0
            stop = len(draws) - kappa
        u = eu[e]
        v = ev[e]
        mu = miss[u]
        mv = miss[v]
        # _color_one_raw's round-1 first fit, inlined: it is all most edges need.
        for j in range(cur, cur + kappa):
            c = draws[j]
            if mu[c] < 0 and mv[c] < 0:
                slot[e] = c
                mu[c] = e
                mv[c] = e
                fast += 1
                cur = j + 1
                break
        else:
            C = draws[cur : cur + kappa]
            cur += kappa
            colored, iters, fedge, _ = raw(
                state, e, u if coins[i] else v, q1, kappa, ell, rounds, floor_q, C, rng,
                path_counts, stats,
            )
            iter_counts[iters] += 1
            if colored:
                continue
            fu = eu[fedge]
            fv = ev[fedge]
            flag_degree[fu] += 1
            flag_degree[fv] += 1
            worst = max(flag_degree[fu], flag_degree[fv])
            if worst > bound:
                _stage1_stats(stats, state, t0, path_counts, iter_counts, fast)
                stats.delta_gstar = worst
                raise ColoringFailed(
                    f"flagged subgraph degree {worst} exceeds eps*D/6 = {bound:.3f} "
                    f"after {i + 1} of {m} edges",
                    stats=stats,
                )
    _stage1_stats(stats, state, t0, path_counts, iter_counts, fast)
    _check(state.colored_count + state.flagged_count == m, "colored + flagged == m")
    _check(stats.flags_total == state.flagged_count, "flag reasons add up to flagged_count")

    t1 = time.perf_counter_ns()
    if state.flagged_count:
        gstar, dstar = flagged_subgraph(state, g)
        stats.delta_gstar = dstar
        q2 = 3 * dstar
        _check(q1 + q2 <= q_cap, f"q1 + q2 = {q1} + {q2} <= q_cap = {q_cap}")
        sub = greedy_color(gstar, q2, rng, stats=stats)
        for i, e in enumerate(state.flagged_edges()):
            state._unflag(e)
            state.assign(e, q1 + sub.slot[i])
    stats.stage2_us = (time.perf_counter_ns() - t1) // 1000
    stats.max_color_used = state.max_color_used()
    _check(stats.max_color_used <= q_cap, f"max color {stats.max_color_used} <= q_cap = {q_cap}")
    return state, stats


def _stage1_stats(stats, state, t0, path_counts, iter_counts, fast) -> None:
    # A module-level helper, not a closure: closing over the stage-1 locals
    # would turn them into cell variables and slow every read in the loop.
    # ``fast`` edges were first-fit inline in round 1 and not counted yet.
    stats.stage1_us = (time.perf_counter_ns() - t0) // 1000
    path_counts[0] += fast
    iter_counts[1] += fast
    state.colored_count += fast
    stats.colored_stage1 = state.colored_count
    stats.flagged_count = state.flagged_count
    stats.gstar_edges = state.flagged_count
    stats.path_hist = {length: c for length, c in enumerate(path_counts) if c}
    stats.iteration_hist = {t: c for t, c in enumerate(iter_counts) if c}


def _check(ok: bool, contract: str) -> None:
    # Once-per-run output contract; unlike assert, it still runs under python -O.
    if not ok:
        raise ImproperAugment(f"coloring contract violated: {contract}")


def run_full(g: Graph, cfg: RunConfig) -> tuple[ColoringState, RunStats]:
    """edge_color with restarts on failure and a Vizing fallback.

    Attempt i runs with randomness derived from (cfg.seed, i); up to
    1 + max_restarts attempts are made.  When every attempt failed, and at
    once when epsilon*Delta/6 < 1 (there a single flag fails an attempt, so
    none is made), the whole graph is colored by vizing_color with
    Delta + 1 colors, which fit the budget.  The fallback draws from
    (cfg.seed, attempts made).  The returned stats list why each failed
    attempt failed in restart_causes, so an empty list with fallback_used
    means the attempts were skipped.
    """
    cfg.check()
    causes = []
    skip = g.m and cfg.flag_bound(g.max_degree) < 1
    for attempt in range(0 if skip else cfg.max_restarts + 1):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, attempt)))
        try:
            state, stats = edge_color(g, cfg, rng)
        except ColoringFailed as exc:
            causes.append(f"attempt {attempt}: {exc}")
            continue
        stats.restarts_used = attempt
        stats.restart_causes = causes
        return state, stats
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, len(causes))))
    stats = RunStats.for_run(g, cfg)
    stats.restarts_used = max(0, len(causes) - 1)
    stats.restart_causes = causes
    stats.fallback_used = True
    t0 = time.perf_counter_ns()
    state = vizing_color(g, rng, stats=stats)
    stats.stage2_us = (time.perf_counter_ns() - t0) // 1000
    stats.max_color_used = state.max_color_used()
    return state, stats
