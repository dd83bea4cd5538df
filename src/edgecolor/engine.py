"""Randomized coloring drivers.

Stage 1 makes two passes over one uniformly random edge order.  Pass A
gives each edge the first of its own kappa uniform draws from the stage-1
palette that is free at both ends (the trivial Vizing chain).  Pass B runs
Color-One on each edge pass A missed, in visit order, with a fresh palette
sample: a fan from the first sampled color missing at the far end, grown
into a Vizing chain.  When a chain's path hits the length cap, the blank
edge is shifted to a random point along the path and the attempt continues
with a fresh, disjoint palette.  Edges whose attempts fail are flagged.
Stage 2 greedy-colors the flagged edges in place, from the block of colors
above stage 1's.  A run fails when the flagged subgraph is too dense for
the stage-2 budget.  run_full restarts failed runs and, when every attempt
failed or epsilon*Delta/6 < 1, falls back to vizing_color, which colors the
whole graph with Delta + 1 colors in the same two passes: first each edge
takes the smallest color free at both ends, then Vizing chains color the
edges that found none.  Both first passes compute the one-edge-at-a-time
result in numpy batches: the fallback's in rounds of edges whose earlier
edges at both ends are decided (see _first_fit), stage 1's in sweeps over
blocks of the order until no pick changes (see _sampled_first_fit).
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
from .graph import Graph, endpoint_views
from .state import BLANK, ColoringState


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

    A color_one round that ends in a shift is followed by another only while
    at least palette_floor = (1 + epsilon/100) * max_degree colors of [1, q1]
    are still unsampled, and each round samples at least one new color.  So:

    * FlagReason.MAX_ITERATIONS (every one of ``rounds`` rounds shifted)
      needs rounds <= 1 + (q1 - palette_floor).  At the default constants
      that holds only from max_degree 3305 on at epsilon 0.5 (7249 at 0.25,
      20221 at 0.1); below, the palette floor ends every run of shifts first.
    * At the default kappa_const and epsilon 0.5, round 1's kappa draws
      leave fewer than palette_floor colors unsampled up to max_degree
      ~145, so there every shift ends in a palette-floor flag
      (max_degree 100: 37 draws leave ~93 of q1 = 125 colors, floor 100.5).
      From 165 on, q1 - kappa >= palette_floor, and round 2 always runs.

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


# Draws per edge in stage 1's first fit before the kappa - 8 more that only
# the edges missing all of them draw; part of the RNG stream.
_FIRST_DRAWS = 8


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

    The loop is _greedy's, which stage 2 runs over the flagged edges of the
    stage-1 state.  Requires num_colors >= 2 * max_degree - 1 so a draw
    always can succeed; each draw then fits with probability at least
    (num_colors - 2*max_degree + 2) / num_colors.
    """
    delta = g.max_degree
    if delta >= 1 and num_colors < 2 * delta - 1:
        raise InsufficientColors(
            f"{num_colors} colors < 2*{delta} - 1 required by the greedy guarantee"
        )
    state = ColoringState(g, max(1, num_colors))
    _greedy(state, range(g.m), 0, num_colors, rng, stats)
    return state


def _greedy(state: ColoringState, edges, offset: int, num_colors: int, rng, stats) -> None:
    """Give each blank or flagged edge of ``edges``, in turn, the first of a
    stream of uniform draws from [offset + 1, offset + num_colors] free at
    both endpoints.  Counts the edges as colored; a caller that passes
    flagged edges settles flagged_count.
    """
    miss = state.missing
    slot = state.slot
    eu = state.graph.edge_u
    ev = state.graph.edge_v
    draws = 0
    stream = _uniform_draws(rng, offset + 1, offset + num_colors + 1)
    for e in edges:
        mu = miss[eu[e]]
        mv = miss[ev[e]]
        for c in stream:
            draws += 1
            if mu[c] < 0 and mv[c] < 0:
                slot[e] = c
                mu[c] = e
                mv[c] = e
                break
    state.colored_count += len(edges)
    if stats is not None:
        stats.greedy_colors = num_colors
        stats.greedy_edges += len(edges)
        stats.greedy_draws += draws


def _uniform_draws(rng, low: int, high: int):
    """Uniform draws from [low, high), drawn in blocks of 1024 as they are
    read; the block size is part of the RNG stream."""
    while True:
        yield from rng.integers(low, high, size=1024).tolist()


# ---------------------------------------------------------------------------
# Vizing coloring (the small-degree fallback).
# ---------------------------------------------------------------------------


def vizing_color(g: Graph, rng, stats: RunStats | None = None) -> ColoringState:
    """Color every edge with at most max_degree + 1 colors (Vizing's theorem).

    Two passes over one random edge order, as in edge_color's stage 1.  The
    first gives each edge, in that order, the smallest color in
    [1, max_degree + 1] free at both endpoints, and writes only the slots.
    It is computed in rounds of edges whose earlier neighbours are all
    decided, one numpy batch per round (see _first_fit): 19 rounds on a
    random 4-regular graph with m = 200k, ~400 on a 100-regular one.  The
    state and its edge-id table are then built from the slots in one go.
    The second pass colors each edge that found no free color, in the same
    order, with the stage-1 chain routine over the full palette, passed as a
    range so each fan leaf finds its lowest missing color in C, and no path
    cap.  Every vertex then misses some color, so neither a fan nor a pivot
    can fail and no edge is flagged.  ``stats.path_hist`` counts the
    first-fit edges at length 0.
    """
    m = g.m
    q = g.max_degree + 1
    eu = g.edge_u
    if stats is None:
        stats = RunStats()
    order = array("i", rng.permutation(m).astype(np.int32).tobytes())
    slot, misses = _first_fit(g, q, order)
    del order
    state = ColoringState.from_slots(g, q, slot)
    palette = range(1, q + 1)
    path_counts = Counter()
    raw = _color_one_raw
    for e in misses:
        raw(state, e, eu[e], q, q, m + 1, 1, 0, palette, rng, path_counts, stats)
    path_counts[0] += m - len(misses)
    stats.path_hist = dict(sorted(path_counts.items()))
    _check(state.colored_count == m, "every edge colored")
    _check(state.max_color_used() <= q, f"max color <= D + 1 = {q}")
    return state


# ---------------------------------------------------------------------------
# The first passes: in dependency rounds (fallback) and in blocks (stage 1).
# ---------------------------------------------------------------------------


def _first_fit(g: Graph, q: int, order) -> tuple[array, array]:
    """Give each edge of ``order``, in turn, the smallest color in [1, q]
    free at both endpoints; return the slot per edge id (BLANK for an edge
    that found none) and those edges in visit order.

    The result is the one-edge-at-a-time result, computed in rounds.  An
    edge's color depends only on the edges visited before it at its two
    endpoints, so it is known once those are decided.  Each round takes
    every edge whose earlier edges at both ends were decided in earlier
    rounds; such edges share no vertex, so numpy colors a round in one batch.
    There are as many rounds as edges in the longest chain in which each
    edge shares an endpoint with the next and is visited before it.  On
    random regular graphs with m = 200k that is 19 rounds at degree 4, ~50
    at 12, ~160 at 40, ~400 at 100 and ~1,900 at 500.  A vertex of degree
    d alone forces d rounds, so a star takes one round per edge.

    The colors used at a vertex are ceil(q / 64) uint64 words, bit c - 1 of
    word w for color 64 * w + c, with the bits above q set from the start.
    An edge takes the lowest zero bit of the OR of its endpoints' words, the
    first word that has one; with none it stays BLANK.  No edge-id table is
    kept here: ColoringState.from_slots writes it from the slots into one
    flat array, and the chains that color the misses make only the rows they
    touch.
    """
    m = g.m
    if not m:
        return array("i"), array("i")
    eu, ev = endpoint_views(g)
    order = np.frombuffer(order, dtype=np.intc)
    nxt, pending = _visit_links(eu, ev, order)
    slot = array("i", [BLANK]) * m
    slots = np.frombuffer(slot, dtype=np.intc)
    nxt = nxt.view(np.int64)  # both of an edge's entries in one gather
    words = -(-q // 64)
    used = np.zeros((g.n, words), dtype=np.uint64)
    used[:, -1] = (1 << 64) - (1 << (q - 64 * (words - 1)))  # the colors above q
    ready = np.flatnonzero(pending == 0)
    while len(ready):
        e = order[ready]
        u = eu[e]
        v = ev[e]
        free = ~(used[u] | used[v])
        w = (free != 0).argmax(axis=1)  # the first word with a free color, else 0
        low = free[np.arange(len(e)), w]
        low &= -low  # the lowest free color's bit; 0 if there is none
        used[u, w] |= low
        used[v, w] |= low
        color = np.frexp(low)[1]  # bit c - 1 is 0.5 * 2**c; 0 gives 0
        color += 64 * w
        slots[e] = color
        # Each decided edge frees the next edge at each of its endpoints.  An
        # edge freed at both ends in this round is counted down in both
        # halves, and joins the next round from the second half only.
        after = nxt[ready].view(np.intc)
        odd = after < 0
        first = after[~odd]
        pending[first] -= 1
        first = first[pending[first] == 0]
        second = ~after[odd]
        pending[second] -= 1
        ready = np.concatenate((first, second[pending[second] == 0]))
    misses = order[np.flatnonzero(slots[order] == BLANK)]
    return slot, array("i", misses.tobytes())


def _visit_links(eu, ev, order) -> tuple[np.ndarray, np.ndarray]:
    """The dependency links of a first fit over ``order``, by visit rank.

    Rank r is the edge order[r]; its incidence 2r + s is its endpoint s
    (0 for edge_u, 1 for edge_v).  One sort of the keys vertex << b | (2r +
    s) lists each vertex's edges in visit order.  Returns ``nxt``, 2m int32:
    for incidence 2r + s the rank of the next edge at that endpoint, as r'
    if the endpoint is its edge_u and ~r' if its edge_v; an edge with no
    next edge there gets its own rank, whose count is spent by then.  And
    ``pending``, m uint8: how many of rank r's endpoints, 0 to 2, have an
    earlier edge.
    """
    m = len(order)
    b = (2 * m - 1).bit_length()
    keys = np.empty(2 * m, dtype=np.int64)
    keys[0::2] = eu[order]
    keys[1::2] = ev[order]
    keys <<= b
    keys |= np.arange(2 * m, dtype=np.uintc)  # m < 2**31, so 2m < 2**32
    keys.sort()
    # Split the sorted keys into vertices and incidences through casting
    # ufuncs, so no second 2m-long int64 array is made.
    vertex = np.empty(2 * m, dtype=np.intc)
    np.right_shift(keys, b, out=vertex, casting="unsafe")
    same = vertex[1:] == vertex[:-1]  # the next key is at the same vertex
    del vertex
    inc = np.empty(2 * m, dtype=np.uintc)
    np.bitwise_and(keys, (1 << b) - 1, out=inc, casting="unsafe")
    del keys
    at = inc[:-1][same]
    later = inc[1:][same]
    del inc, same
    pending = np.zeros(2 * m, dtype=np.uint8)
    pending[later] = 1
    side = (later & 1).view(np.intc)
    later >>= 1  # a rank, below 2**31
    later = later.view(np.intc)
    later ^= np.negative(side, out=side)  # r' or ~r'
    del side
    nxt = np.arange(2 * m, dtype=np.uintc)
    nxt >>= 1
    nxt = nxt.view(np.intc)
    nxt[at] = later
    return nxt, pending[0::2] + pending[1::2]


# Bounds on the block size of stage 1's first fit, which draws each block's
# first colors in one call: part of the RNG stream.  Block ranks are int16,
# below _FREE.
_BLOCK_MIN = 2048
_BLOCK_MAX = 8192
_FREE = np.iinfo(np.int16).max


def _sampled_first_fit(g: Graph, q: int, kappa: int, order, draw) -> tuple[array, array]:
    """Give each edge of ``order``, in turn, the first of its kappa uniform
    draws from [1, q] free at both endpoints; return the slot per edge id
    (BLANK for an edge that found none) and those edges in visit order.

    ``draw(e, k)`` returns k more draws for each edge of ``e``, shape
    (len(e), k).  The order is cut into blocks of 2n edges, clipped to
    [_BLOCK_MIN, _BLOCK_MAX].  A block draws _FIRST_DRAWS colors per edge,
    and the other kappa - _FIRST_DRAWS for an edge the first time a sweep
    finds none of its first draws free, kept for the rest of the block.
    Each color an edge reads is its own uniform draw, so its pick has the
    law of kappa draws scanned in order.

    The result is the one-edge-at-a-time result, computed by sweeps over a
    block at a time.  A sweep picks at once, for every edge it takes, the
    first draw not held at either endpoint by an earlier block's edge or by
    the current pick of an earlier edge of the block.  The first sweep takes
    every edge of the block; each later one takes the edges with an earlier
    edge at an endpoint whose pick the sweep before changed.  When a sweep
    changes nothing, every pick is the first draw free of the picks of the
    edges before it, which by induction on the visit order are the
    one-edge-at-a-time picks.  Picks of a random order settle fast: on a
    random 100-regular graph a block takes ~5 sweeps and an edge is picked
    ~2 times (~2.5 at n = 400), where rounds of edges whose earlier
    neighbours are all decided (see _first_fit) take ~400 numpy batches
    however small the graph.

    ``owner`` holds per vertex and color the block rank of the earliest edge
    of the block that picked the color there, _FREE if none, and -1 once an
    earlier block's edge holds it; a color is taken for rank r where its
    cell is below r.  Column 0 takes the cells of the edges that found none.
    """
    m = g.m
    if not m:
        return array("i"), array("i")
    eu, ev = endpoint_views(g)
    order = np.frombuffer(order, dtype=np.intc)
    slot = array("i", [BLANK]) * m
    slots = np.frombuffer(slot, dtype=np.intc)
    width = q + 1
    owner = np.full(g.n * width, _FREE, dtype=np.int16)
    first = min(_FIRST_DRAWS, kappa)
    more = kappa - first
    size = min(max(2 * g.n, _BLOCK_MIN), _BLOCK_MAX)
    ranks = np.arange(size, dtype=np.int16)
    moved_at = np.full(g.n, _FREE, dtype=np.int16)  # per vertex, the earliest rank that moved

    def first_free(c, at_u, at_v, rank):
        # Per row of draws c, the first not taken at either endpoint, else 0.
        taken = np.minimum(owner.take(c + at_u[:, None]), owner.take(c + at_v[:, None]))
        taken = taken < rank[:, None]
        k = c.shape[1]
        i = taken.argmin(axis=1)  # the first free draw; 0 if none is free
        i += np.arange(0, k * len(c), k)
        color = c.ravel()[i]
        color[taken.ravel()[i]] = 0
        return color

    for lo in range(0, m, size):
        e = order[lo : lo + size]
        rank = ranks[: len(e)]
        u = eu[e]
        v = ev[e]
        at_u = np.multiply(u, width, dtype=np.intp)
        at_v = np.multiply(v, width, dtype=np.intp)
        drawn = draw(e, first)
        # The later draws, packed in order of need, so untouched rows cost no memory.
        rest = np.empty((len(e), more), dtype=drawn.dtype)
        rest_at = np.full(len(e), -1, dtype=np.intp)
        held = 0  # rows of ``rest`` in use
        pick = np.zeros(len(e), dtype=drawn.dtype)
        rows = np.arange(len(e))
        while len(rows):
            new = first_free(drawn[rows], at_u[rows], at_v[rows], rank[rows])
            miss = np.flatnonzero(new == 0)
            if more and len(miss):
                need = rows[miss]
                need = need[rest_at[need] < 0]
                if len(need):
                    rest_at[need] = np.arange(held, held + len(need))
                    rest[held : held + len(need)] = draw(e[need], more)
                    held += len(need)
                # Scan the later draws in chunks of doubling width: a long
                # scan takes few batches, a short one reads few draws.
                a, w = 0, first
                while a < more and len(miss):
                    at = rows[miss]
                    found = first_free(rest[rest_at[at], a : a + w], at_u[at], at_v[at], rank[at])
                    new[miss] = found
                    miss = miss[found == 0]
                    a += w
                    w *= 2
            moved = np.flatnonzero(new != pick[rows])
            if not len(moved):
                break
            new = new[moved]
            moved = rows[moved]
            # Free the cells the moved edges leave, then every edge whose
            # cell reads above its rank claims it again: the earliest holder
            # of a cell keeps it.
            old = pick[moved]
            owner[at_u[moved] + old] = _FREE
            owner[at_v[moved] + old] = _FREE
            pick[moved] = new
            cell_u = at_u + pick
            cell_v = at_v + pick
            claim = np.flatnonzero(np.maximum(owner.take(cell_u), owner.take(cell_v)) > rank)
            np.minimum.at(owner, cell_u[claim], rank[claim])
            np.minimum.at(owner, cell_v[claim], rank[claim])
            # The next sweep takes the edges with a moved earlier edge at an endpoint.
            np.minimum.at(moved_at, u[moved], rank[moved])
            np.minimum.at(moved_at, v[moved], rank[moved])
            s = moved[0] + 1
            after = np.minimum(moved_at.take(u[s:]), moved_at.take(v[s:]))
            rows = s + np.flatnonzero(after < rank[s:])
            moved_at[u[moved]] = _FREE
            moved_at[v[moved]] = _FREE
        slots[e] = pick
        owner[at_u + pick] = -1
        owner[at_v + pick] = -1
    misses = order[np.flatnonzero(slots[order] == BLANK)]
    return slot, array("i", misses.tobytes())


# ---------------------------------------------------------------------------
# The two-stage driver.
# ---------------------------------------------------------------------------


def edge_color(g: Graph, cfg: RunConfig, rng=None) -> tuple[ColoringState, RunStats]:
    """Produce a proper coloring of g with at most ceil((1+epsilon)*Delta) colors.

    Stage 1 makes two passes over one uniformly random edge order, as
    vizing_color does.  Pass A gives each edge the first of its own kappa
    uniform draws from [1, q1] free at both ends, in sweeps over blocks of
    the order (see _sampled_first_fit), and writes only the slots; the
    state is built from them.  Pass B runs Color-One on each edge that pass A
    missed, in visit order, with a fresh kappa-sample and a coin for which
    endpoint is the pivot.

    Raises ColoringFailed as soon as a flag pushes the flagged subgraph's
    degree past epsilon*Delta/6: flags are never lifted in stage 1, so the
    attempt is already lost, and the caller may retry with fresh randomness
    (see run_full).  Stage 2 colors the flagged edges in the same state;
    the flagged subgraph's max degree is tracked as stage 1 flags edges.  On
    success the returned state has no blank and no flagged edges.
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
    eu = g.edge_u
    ev = g.edge_v

    t0 = time.perf_counter_ns()
    order = array("i", rng.permutation(m).astype(np.int32).tobytes())
    slot, misses = _sampled_first_fit(
        g, q1, kappa, order, lambda e, k: rng.integers(1, q1 + 1, size=(len(e), k), dtype=np.intc)
    )
    del order
    state = ColoringState.from_slots(g, q_cap, slot)
    # Pass B: per miss, in visit order, a pivot coin and a fresh kappa-sample.
    coins = rng.integers(0, 2, size=len(misses)).tolist()
    samples = rng.integers(1, q1 + 1, size=(len(misses), kappa), dtype=np.intc)
    fast = m - len(misses)  # colored by pass A, in round 1 at path length 0
    path_counts = [0] * (min(ell, g.n - 1) + 1)  # a simple path has at most n - 1 edges
    path_counts[0] = fast
    iter_counts = [0] * (min(rounds, q1) + 1)  # each later round drops >= 1 of q1 colors
    iter_counts[1] = fast
    flag_degree = [0] * g.n  # per-vertex degree in the flagged subgraph so far
    dstar = 0  # its max degree so far
    for e, coin, sample in zip(misses, coins, samples):
        colored, iters, fedge, _ = _color_one_raw(
            state, e, eu[e] if coin else ev[e], q1, kappa, ell, rounds, floor_q,
            sample.tolist(), rng, path_counts, stats,
        )
        iter_counts[iters] += 1
        if colored:
            continue
        fu = eu[fedge]
        fv = ev[fedge]
        flag_degree[fu] += 1
        flag_degree[fv] += 1
        worst = max(flag_degree[fu], flag_degree[fv])
        dstar = max(dstar, worst)
        if worst > bound:
            _stage1_stats(stats, state, t0, path_counts, iter_counts)
            stats.delta_gstar = worst
            raise ColoringFailed(
                f"flagged subgraph degree {worst} exceeds eps*D/6 = {bound:.3f} "
                f"after {state.colored_count + state.flagged_count} of {m} edges",
                stats=stats,
            )
    _stage1_stats(stats, state, t0, path_counts, iter_counts)
    _check(state.colored_count + state.flagged_count == m, "colored + flagged == m")
    _check(stats.flags_total == state.flagged_count, "flag reasons add up to flagged_count")

    # Stage 2: the flagged edges, in ascending id order, take colors q1 + c,
    # c in [1, 3 * dstar]; stage 1 wrote no color above q1.
    t1 = time.perf_counter_ns()
    if state.flagged_count:
        stats.delta_gstar = dstar
        q2 = 3 * dstar
        _check(q1 + q2 <= q_cap, f"q1 + q2 = {q1} + {q2} <= q_cap = {q_cap}")
        flagged = state.flagged_edges()
        _greedy(state, flagged, q1, q2, rng, stats)
        state.flagged_count -= len(flagged)
    _check(state.colored_count == m and state.flagged_count == 0, "every edge colored, none flagged")
    stats.stage2_us = (time.perf_counter_ns() - t1) // 1000
    stats.max_color_used = state.max_color_used()
    _check(stats.max_color_used <= q_cap, f"max color {stats.max_color_used} <= q_cap = {q_cap}")
    return state, stats


def _stage1_stats(stats, state, t0, path_counts, iter_counts) -> None:
    stats.stage1_us = (time.perf_counter_ns() - t0) // 1000
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
