"""Exhaustive ground truth for desk-size instances.

The searches here work from the raw graph and per-vertex color bitmasks
only, never from a ColoringState's missing tables, so they stay independent
of the machinery they are used to check.  The m <= 16 guard keeps the
backtracking honest (pure exhaustive search) yet fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLarge
from .graph import Graph
from .state import ColoringState

MAX_ORACLE_EDGES = 16


@dataclass(frozen=True)
class OracleResult:
    chromatic_index: int
    witness: tuple[int, ...]  # color per edge id, 1-based


def _search(n, m, order_edges, q):
    """Backtracking search for a proper q-coloring of the listed edges.

    order_edges is a list of (u, v, edge_index) triples; returns colors in
    that order or None.  The first edge is pinned to color 1 (colors are
    interchangeable, so this loses no solutions).
    """
    full = (1 << q) - 1
    masks = [0] * n
    colors = [0] * len(order_edges)

    def rec(i):
        if i == len(order_edges):
            return True
        u, v, _ = order_edges[i]
        avail = ~(masks[u] | masks[v]) & full
        if i == 0:
            avail &= 1
        while avail:
            bit = avail & -avail
            avail ^= bit
            masks[u] |= bit
            masks[v] |= bit
            colors[i] = bit.bit_length()
            if rec(i + 1):
                return True
            masks[u] ^= bit
            masks[v] ^= bit
        return False

    return list(colors) if rec(0) else None


def _ordered(g: Graph, edge_ids):
    # Most-constrained first: descending endpoint degree sum.
    deg = g.degrees
    ids = sorted(edge_ids, key=lambda e: -(deg[g.edge_u[e]] + deg[g.edge_v[e]]))
    return [(g.edge_u[e], g.edge_v[e], e) for e in ids]


def brute_chromatic_index(g: Graph) -> OracleResult:
    """Exact chromatic index with an optimal witness, for graphs with m <= 16.

    The answer is always max_degree or max_degree + 1, so only those two
    palette sizes are searched.
    """
    m = g.m
    if m > MAX_ORACLE_EDGES:
        raise TooLarge(f"oracle limited to {MAX_ORACLE_EDGES} edges, got {m}")
    if m == 0:
        return OracleResult(0, ())
    order = _ordered(g, range(m))
    for q in (g.max_degree, g.max_degree + 1):
        found = _search(g.n, m, order, q)
        if found is not None:
            witness = [0] * m
            for (u, v, e), c in zip(order, found):
                witness[e] = c
            return OracleResult(q, tuple(witness))
    raise AssertionError("no proper coloring with max_degree + 1 colors; search is broken")


def check_extension_exists(state: ColoringState, e: int) -> bool:
    """Whether ANY proper q-coloring covers the currently colored edges plus e.

    Colors may be reassigned freely; only the target domain (colored edges
    plus e) and the palette size q matter.  Guarded to m <= 16.
    """
    g = state.graph
    if g.m > MAX_ORACLE_EDGES:
        raise TooLarge(f"oracle limited to {MAX_ORACLE_EDGES} edges, got {g.m}")
    targets = [eid for eid, c in enumerate(state.slot) if c > 0]
    if state.slot[e] <= 0:
        targets.append(e)
    order = _ordered(g, targets)
    return _search(g.n, len(targets), order, state.q) is not None

