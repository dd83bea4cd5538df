"""Shared test helpers: random graphs, random proper partial colorings,
reference implementations and a tracemalloc probe."""

from __future__ import annotations

import io
import tracemalloc

import numpy as np

from edgecolor import ColoringState, Graph, build_graph, greedy_color
from edgecolor.errors import MalformedInput, RejectionExhausted
from edgecolor.generators import _pairing, complete, complete_bipartite, hypercube
from edgecolor.state import BLANK, FLAGGED


def rng_for(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


class CountingRng:
    """A numpy Generator that logs each call's method, leading arguments and
    the number of values it returned, and keeps what it returned."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.calls: list[tuple[str, tuple, int]] = []
        self.outputs: list = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, args, int(np.size(out))))
            self.outputs.append(out)
            return out

        return counted

    def drawn(self, name: str, *args) -> int:
        """Values returned by calls of ``name`` whose arguments start with ``args``."""
        return sum(k for n, a, k in self.calls if n == name and a[: len(args)] == args)


def traced_memory(f, *args):
    """Run f(*args) under tracemalloc: (result, bytes it allocated and still
    holds, peak bytes during the call)."""
    tracemalloc.start()
    try:
        result = f(*args)
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def random_graph(rng, max_n=40, min_n=2) -> Graph:
    """A small random graph from a mix of models; always has at least one edge."""
    for _ in range(100):
        kind = rng.integers(0, 5)
        if kind == 0:
            n = int(rng.integers(min_n, max_n + 1))
            # The row-by-row G(n, p) that generators.gnp replaced, so the
            # graphs and the draws left for the tests that pin a random
            # stream stay as they were.
            g = reference_gnp(n, float(rng.uniform(0.05, 0.6)), rng)
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
            # The pairing model itself, also where random_regular would take a
            # complement (d > (n - 1) / 2): the graphs, and the draws left for
            # the tests that pin a random stream, stay those of the pairing.
            g = _pairing(n, d, rng)
        if g.m:
            return g
    raise AssertionError("failed to generate a non-empty graph")


def reference_gnp(n: int, p: float, rng) -> Graph:
    """G(n, p) by one uniform draw per vertex pair, row by row."""
    pairs = []
    if p > 0.0:
        for u in range(n - 1):
            hits = np.nonzero(rng.random(n - 1 - u) < p)[0]
            pairs.extend((u, u + 1 + int(v)) for v in hits)
    return build_graph(pairs, n)


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


def reference_first_fit(g: Graph, order, q: int) -> tuple[list[int], list[int]]:
    """Sequential first fit by palette scan: each edge of ``order`` in turn
    takes the smallest color in [1, q] free at both endpoints.  Returns the
    color per edge id (0 for an edge that found none) and those edges in
    visit order; ``engine._first_fit`` must match it."""
    present: list[set[int]] = [set() for _ in range(g.n)]
    colors = [0] * g.m
    misses = []
    for e in order:
        at_u, at_v = present[g.edge_u[e]], present[g.edge_v[e]]
        c = next((c for c in range(1, q + 1) if c not in at_u and c not in at_v), 0)
        if c:
            colors[e] = c
            at_u.add(c)
            at_v.add(c)
        else:
            misses.append(e)
    return colors, misses


def reference_sampled_first_fit(g: Graph, order, draws) -> tuple[list[int], list[int]]:
    """Sequential sampled first fit: each edge of ``order`` in turn takes the
    first color of its row ``draws[e]``, in order, free at both endpoints.
    Returns the color per edge id (0 for an edge that found none) and those
    edges in visit order; ``engine._sampled_first_fit`` must match it when
    each edge draws its own row."""
    present: list[set[int]] = [set() for _ in range(g.n)]
    colors = [0] * g.m
    misses = []
    for e in order:
        at_u, at_v = present[g.edge_u[e]], present[g.edge_v[e]]
        c = next((int(c) for c in draws[e] if c not in at_u and c not in at_v), 0)
        if c:
            colors[e] = c
            at_u.add(c)
            at_v.add(c)
        else:
            misses.append(e)
    return colors, misses


def reference_stage2(state: ColoringState, q1: int, rng) -> dict[int, int]:
    """Stage 2 by way of a copy: G* built from the flagged pairs in ascending
    id order, greedy-colored on a state of its own with 3 * max_degree
    colors, then shifted above q1.  Returns the color per flagged edge id;
    ``edge_color``'s in-place stage 2 must match it."""
    g = state.graph
    ids = state.flagged_edges()
    gstar = build_graph([(g.edge_u[e], g.edge_v[e]) for e in ids], g.n)
    sub = greedy_color(gstar, 3 * gstar.max_degree, rng)
    return {e: q1 + c for e, c in zip(ids, sub.slot)}


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


def reference_random_regular(n: int, d: int, rng, max_attempts: int = 50):
    """The pairing model with an ``np.isin`` test against all accepted keys
    each round: ``random_regular`` must build the same graph from the same
    rng.  Returns (graph, pairing rounds over all attempts, restarts)."""
    if d == 0 or n == 0:
        return build_graph([], n), 0, 0
    base = np.repeat(np.arange(n, dtype=np.int64), d)
    rounds = 0
    for attempt in range(max_attempts):
        stubs = base.copy()
        rng.shuffle(stubs)
        accepted_u: list[np.ndarray] = []
        accepted_keys = np.empty(0, dtype=np.int64)
        stalls = 0
        for _round in range(200):
            rounds += 1
            u = stubs[0::2]
            v = stubs[1::2]
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            keys = lo * n + hi
            ok = lo != hi
            _, first_idx = np.unique(keys, return_index=True)
            first = np.zeros(len(keys), dtype=bool)
            first[first_idx] = True
            ok &= first
            if len(accepted_keys):
                ok &= ~np.isin(keys, accepted_keys)
            if ok.any():
                accepted_u.append(np.stack([lo[ok], hi[ok]], axis=1))
                accepted_keys = np.concatenate([accepted_keys, keys[ok]])
                stalls = 0
            else:
                stalls += 1
            bad = ~ok
            if not bad.any():
                return build_graph(np.concatenate(accepted_u), n), rounds, attempt
            if stalls >= 5:
                break
            stubs = np.concatenate([u[bad], v[bad]])
            rng.shuffle(stubs)
    raise RejectionExhausted(f"no {d}-regular graph on {n} vertices in {max_attempts} attempts")


def reference_format_edge_list(g: Graph, labels=None) -> str:
    """One f-string per edge: the ``format_edge_list`` output, byte for byte."""
    labels = labels if labels is not None else [str(i) for i in range(g.n)]
    out = io.StringIO()
    for u, v in zip(g.edge_u, g.edge_v):
        out.write(f"{labels[u]} {labels[v]}\n")
    return out.getvalue()


def reference_format_coloring(g: Graph, colors, labels=None) -> str:
    """One f-string per edge: the ``format_coloring`` output, byte for byte."""
    labels = labels if labels is not None else [str(i) for i in range(g.n)]
    out = io.StringIO()
    for u, v, c in zip(g.edge_u, g.edge_v, colors, strict=True):
        out.write(f"{labels[u]} {labels[v]} {c if c > 0 else 0}\n")
    return out.getvalue()


def _reference_data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def reference_parse_edge_list(text: str) -> tuple[Graph, list[str]]:
    """One Python step per line and per token: ``parse_edge_list``'s results
    and error messages."""
    labels: list[str] = []
    index: dict[str, int] = {}
    ends: list[int] = []

    def vid(token: str) -> int:
        i = index.get(token)
        if i is None:
            i = len(labels)
            index[token] = i
            labels.append(token)
        return i

    for lineno, parts in _reference_data_lines(text):
        if len(parts) != 2:
            raise MalformedInput(f"line {lineno}: expected 'u v', got {parts!r}")
        ends.append(vid(parts[0]))
        ends.append(vid(parts[1]))
    return build_graph(np.array(ends, dtype=np.int64).reshape(-1, 2), len(labels)), labels


def reference_parse_coloring(text: str, g: Graph, labels: list[str]) -> list[int]:
    """One Python step per line, with an m-entry edge-key dict:
    ``parse_coloring``'s results and error messages."""
    index = {lab: i for i, lab in enumerate(labels)}
    n = g.n
    edge_id = {u * n + v: e for e, (u, v) in enumerate(zip(g.edge_u, g.edge_v))}
    colors = [None] * g.m
    for lineno, parts in _reference_data_lines(text):
        if len(parts) != 3:
            raise MalformedInput(f"line {lineno}: expected 'u v c', got {parts!r}")
        tu, tv, tc = parts
        if tu not in index or tv not in index:
            raise MalformedInput(f"line {lineno}: unknown vertex label")
        u, v = index[tu], index[tv]
        if u > v:
            u, v = v, u
        e = edge_id.get(u * n + v)
        if e is None:
            raise MalformedInput(f"line {lineno}: edge {tu} {tv} is not in the graph")
        if colors[e] is not None:
            raise MalformedInput(f"line {lineno}: duplicate entry for edge {tu} {tv}")
        try:
            c = int(tc)
        except ValueError:
            raise MalformedInput(f"line {lineno}: bad color {tc!r}") from None
        if c < 0:
            raise MalformedInput(f"line {lineno}: negative color {c}")
        if c >= 1 << 63:
            raise MalformedInput(f"line {lineno}: color {c} does not fit in 64 bits")
        colors[e] = c
    missing = [e for e, c in enumerate(colors) if c is None]
    if missing:
        e = missing[0]
        first = f"{labels[g.edge_u[e]]} {labels[g.edge_v[e]]}"
        raise MalformedInput(f"{len(missing)} graph edges missing from the coloring, first: {first}")
    return colors


def reference_complete(n: int) -> list[tuple[int, int]]:
    """K_n's edge list as the tuple loop builds it: ``generators.complete``
    must give these pairs in this order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def reference_complete_bipartite(a: int, b: int) -> list[tuple[int, int]]:
    """K_{a,b}'s edge list as the tuple loop builds it."""
    return [(u, a + v) for u in range(a) for v in range(b)]


def reference_hypercube(dim: int) -> list[tuple[int, int]]:
    """Q_dim's edge list as the tuple loop builds it."""
    pairs = []
    for v in range(1 << dim):
        for bit in range(dim):
            w = v ^ (1 << bit)
            if w > v:
                pairs.append((v, w))
    return pairs
