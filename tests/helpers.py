"""Shared fuzzing helpers: random graphs and random proper partial colorings."""

from __future__ import annotations

import numpy as np

from edgecolor import ColoringState, Graph
from edgecolor.generators import complete, complete_bipartite, gnp, hypercube, random_regular
from edgecolor.state import BLANK, FLAGGED


def rng_for(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def random_graph(rng, max_n=40, min_n=2) -> Graph:
    """A small random graph from a mix of models; always has at least one edge."""
    for _ in range(100):
        kind = rng.integers(0, 5)
        if kind == 0:
            n = int(rng.integers(min_n, max_n + 1))
            g = gnp(n, float(rng.uniform(0.05, 0.6)), rng)
        elif kind == 1:
            n = int(rng.integers(min_n, min(10, max_n) + 1))
            g = complete(n)
        elif kind == 2:
            a = int(rng.integers(1, 6))
            b = int(rng.integers(1, 6))
            g = complete_bipartite(a, b)
        elif kind == 3:
            g = hypercube(int(rng.integers(1, 5)))
        else:
            n = int(rng.integers(min_n, max_n + 1))
            d = int(rng.integers(1, min(6, n)))
            if (n * d) % 2:
                n += 1
            g = random_regular(n, d, rng)
        if g.m:
            return g
    raise AssertionError("failed to generate a non-empty graph")


def random_partial_state(g: Graph, q: int, rng, fill=0.6, flag_frac=0.05) -> ColoringState:
    """A proper partial coloring built through the public mutators.

    Roughly ``fill`` of the edges get a uniformly random feasible color,
    and ``flag_frac`` of the remainder are flagged.
    """
    state = ColoringState(g, q)
    order = list(rng.permutation(g.m))
    for e in order:
        r = rng.random()
        if r < fill:
            u, v = g.edge_u[e], g.edge_v[e]
            mu = state.missing[u]
            mv = state.missing[v]
            options = [c for c in range(1, q + 1) if mu[c] < 0 and mv[c] < 0]
            if options:
                state.assign(e, options[int(rng.integers(0, len(options)))])
        elif r < fill + flag_frac:
            state.flag(e)
    return state


def reference_conflicts(g: Graph, colors) -> list[tuple[int, int, int, int]]:
    """Per-vertex scan in edge-id order: the reference ``find_conflicts`` must match."""
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)
    conflicts = []
    for x in range(g.n):
        seen: dict[int, int] = {}
        for e in incident[x]:
            c = colors[e]
            if c > 0:
                if c in seen:
                    conflicts.append((seen[c], e, x, c))
                else:
                    seen[c] = e
    return conflicts


def dom_and_flg(state: ColoringState) -> tuple[frozenset, frozenset]:
    """Colored and flagged edge-id sets read straight off the slot array."""
    dom = frozenset(e for e, c in enumerate(state.slot) if c > 0)
    flg = frozenset(e for e, c in enumerate(state.slot) if c == FLAGGED)
    return dom, flg


def blank_edges(state: ColoringState) -> list[int]:
    return [e for e, c in enumerate(state.slot) if c == BLANK]


def check_color_one_contract(dom0, flg0, e, state, outcome) -> None:
    """Exactly one of the two allowed before/after transitions happened."""
    dom1, flg1 = dom_and_flg(state)
    if outcome.colored:
        assert outcome.flagged_edge is None
        assert dom1 == dom0 | {e}, "colored outcome must add exactly e to the domain"
        assert flg1 == flg0, "colored outcome must not touch the flagged set"
    else:
        f = outcome.flagged_edge
        assert f in (dom0 | {e}), "flagged edge must come from the old domain or be e"
        assert dom1 == (dom0 | {e}) - {f}
        assert flg1 == flg0 | {f}
        assert f not in flg0
