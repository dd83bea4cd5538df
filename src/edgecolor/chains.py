"""Fans, alternating paths, and Vizing chains: construction and application.

The module exposes two layers over the same logic:

* ``_*_core`` functions operate on plain lists and are shared with the
  high-throughput coloring engine (one implementation, no divergence);
  ``_augment_core`` is the one augment, for the engine's happy fans, full
  chains and shifts alike and for ``augment()``;
* the public wrappers validate inputs and wrap results in small value types.

All mutating operations (flip, shift, augment) write through the state's
``missing`` table with a local properness check at every write, so a caller
contract violation surfaces at the first bad write instead of corrupting
the coloring silently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    AlreadyColored,
    EdgeNotBlank,
    ImproperAssignment,
    ImproperAugment,
    ImproperFlip,
    ImproperShift,
)
from .state import BLANK, NO_EDGE, ColoringState


@dataclass(frozen=True, slots=True)
class Fan:
    """Edges at a common pivot; each next edge's color is missing at the previous leaf.

    ``leaves[0]`` joins the pivot through a blank edge; ``edge_ids[i]`` is the
    edge pivot-``leaves[i]``.
    """

    pivot: int
    leaves: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.leaves)

    @property
    def start(self) -> int:
        return self.leaves[0]

    @property
    def end(self) -> int:
        return self.leaves[-1]


@dataclass(frozen=True, slots=True)
class AltPath:
    """A path whose edge colors alternate alpha, beta, alpha, ... from ``vertices[0]``.

    ``truncated`` is set when the walk stopped at the length cap rather than
    at a maximal endpoint.  ``beta`` is None only for the trivial single-vertex
    path attached to a happy fan.
    """

    alpha: int
    beta: int | None
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    truncated: bool

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]


@dataclass(frozen=True, slots=True)
class FanResult:
    """Output of make_fan: the fan, a color, and the 1-based index of the target leaf.

    ``color`` is missing at both the last leaf and leaf ``index - 1``;
    ``index == fan.length`` is the happy-fan case (shifting alone suffices).
    """

    fan: Fan
    color: int
    index: int


@dataclass(frozen=True, slots=True)
class VizingChain:
    """A fan plus an alternating path leaving its pivot.

    ``leaf_index`` mirrors FanResult.index: when the path is non-trivial,
    ``fan.leaves[leaf_index]`` is the path's second vertex.
    """

    fan: Fan
    path: AltPath
    color: int
    leaf_index: int


class ChainFailure(enum.Enum):
    """Why chain construction gave up (telemetry distinguishes the two)."""

    FAN = "fan"      # no sampled color missing at the fan frontier
    PIVOT = "pivot"  # no sampled color missing at the pivot


# ---------------------------------------------------------------------------
# Core routines (shared with the engine).
# ---------------------------------------------------------------------------


def _make_fan_core(miss, eu, ev, e, x, colors, first_eta=0):
    """Grow a fan from blank edge e around pivot x using only ``colors``.

    ``miss`` is the state's edge-id table: color c is missing at vertex z
    when ``miss[z][c] < 0``, else ``miss[z][c]`` is the edge holding it.
    Each frontier leaf takes the first color of ``colors`` missing there, in
    the given order; duplicates are tolerated (a repeat never comes first).
    ``first_eta``, when nonzero, is the already-computed first color missing
    at the far endpoint of e, so the first frontier scan can be skipped.
    Returns (leaves, leaf_eids, alpha, j) or None on failure.  j is 1-based:
    j == len(leaves) means alpha is missing at the pivot (happy fan), else
    1 <= j < len(leaves) and leaves[j] holds the pivot's alpha edge.
    """
    y = eu[e] + ev[e] - x
    leaves = [y]
    leaf_eids = [e]
    mx = miss[x]
    z = y
    c = first_eta
    leaf_pos = None  # built once the fan is long enough that list scans hurt
    while True:
        if not c:
            mz = miss[z]
            for c in colors:
                if mz[c] < 0:
                    break
            else:
                return None
        weid = mx[c]
        if weid < 0:
            return leaves, leaf_eids, c, len(leaves)
        w = eu[weid] + ev[weid] - x
        # w joins the pivot through a colored edge, so it cannot be the
        # blank-edge leaf; a hit index is always in [1, len(leaves)).
        if leaf_pos is None:
            if w in leaves:
                return leaves, leaf_eids, c, leaves.index(w)
        else:
            pos = leaf_pos.get(w)
            if pos is not None:
                return leaves, leaf_eids, c, pos
            leaf_pos[w] = len(leaves)
        leaves.append(w)
        leaf_eids.append(weid)
        if leaf_pos is None and len(leaves) >= 12:
            leaf_pos = {lv: i for i, lv in enumerate(leaves)}
        z = w
        c = 0


def _follow_core(miss, eu, ev, x, alpha, beta, cap):
    """Walk the unique alpha/beta-alternating path from x, at most ``cap`` edges.

    Returns (vertices, edge_ids, truncated).
    """
    pv = [x]
    pe = []
    v = x
    a = alpha
    b = beta
    while len(pe) < cap:
        eid = miss[v][a]
        if eid < 0:
            return pv, pe, False
        v = eu[eid] + ev[eid] - v
        pv.append(v)
        pe.append(eid)
        a, b = b, a
    return pv, pe, miss[v][a] >= 0


def _flip_core(state, pv, pe, alpha, beta):
    """Swap alpha and beta along path edges pe (pv holds the vertex sequence)."""
    ne = len(pe)
    slot = state.slot
    miss = state.missing
    for i in range(ne):
        expect = alpha if not (i & 1) else beta
        eid = pe[i]
        if slot[eid] != expect:
            raise ImproperFlip(f"path edge {eid} holds {slot[eid]}, expected color {expect}")
        slot[eid] = BLANK
        u = pv[i]
        v = pv[i + 1]
        miss[u][expect] = NO_EDGE
        miss[v][expect] = NO_EDGE
    for i in range(ne):
        new = beta if not (i & 1) else alpha
        eid = pe[i]
        u = pv[i]
        v = pv[i + 1]
        mu = miss[u]
        mv = miss[v]
        if mu[new] >= 0 or mv[new] >= 0:
            raise ImproperFlip(f"color {new} blocked while rewriting path edge {eid}")
        slot[eid] = new
        mu[new] = eid
        mv[new] = eid


def _shift_core(state, pivot, leaves, leaf_eids):
    """Rotate fan colors one step toward the blank start edge; the end goes blank."""
    k = len(leaves)
    slot = state.slot
    miss = state.missing
    if slot[leaf_eids[0]] != BLANK:
        raise ImproperShift(f"fan start edge {leaf_eids[0]} is not blank")
    mp = miss[pivot]
    old = []
    for i in range(1, k):
        eid = leaf_eids[i]
        c = slot[eid]
        if c <= 0:
            raise ImproperShift(f"fan edge {eid} is not colored")
        old.append(c)
        slot[eid] = BLANK
        leaf = leaves[i]
        mp[c] = NO_EDGE
        miss[leaf][c] = NO_EDGE
    for i in range(k - 1):
        c = old[i]
        eid = leaf_eids[i]
        leaf = leaves[i]
        my = miss[leaf]
        if mp[c] >= 0 or my[c] >= 0:
            raise ImproperShift(f"color {c} blocked while rotating fan edge {eid}")
        slot[eid] = c
        mp[c] = eid
        my[c] = eid


def _augment_core(state, pivot, leaves, leaf_eids, alpha, beta, j, pv, pe):
    """Flip the path, rotate the fan prefix leaves[:j], and color its last edge alpha.

    It serves a happy fan (j == len(leaves), pe empty), a full chain, and a
    shift: the path prefix before the cut edge, where pe may be empty with
    j < len(leaves).  Returns the id of the chain's start edge (the edge
    that left the blank set).
    """
    try:
        if pe:
            if not 0 < j < len(leaves) or leaves[j] != pv[1]:
                raise ImproperAugment(
                    f"chain is inconsistent: leaf index {j} does not match the path"
                )
            _flip_core(state, pv, pe, alpha, beta)
            if pv[-1] == leaves[j - 1]:
                # The path ends at the truncated fan's last leaf: rotating only
                # the prefix would collide, so rotate the whole fan instead.
                j = len(leaves)
        _shift_core(state, pivot, leaves[:j], leaf_eids[:j])
        state.assign(leaf_eids[j - 1], alpha)
    except (ImproperFlip, ImproperShift, ImproperAssignment, AlreadyColored) as exc:
        raise ImproperAugment(str(exc)) from exc
    return leaf_eids[0]


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def _check_color_list(state, colors):
    if not colors:
        raise ValueError("color list must be nonempty")
    prev = 0
    for c in colors:
        if c <= prev:
            raise ValueError("color list must be strictly ascending and duplicate-free")
        prev = c
    if prev > state.q:
        raise ValueError(f"color {prev} outside palette [1, {state.q}]")


def make_fan(state: ColoringState, e: int, x: int, colors) -> FanResult | None:
    """Build a fan from blank edge e at pivot x restricted to ``colors``.

    ``colors`` must be ascending and duplicate-free.  Returns None when some
    frontier vertex has no missing color inside ``colors`` (the FAIL case).
    Runs in O(len(colors)^2); the fan never exceeds len(colors) + 1 leaves.
    """
    g = state.graph
    if state.slot[e] != BLANK:
        raise EdgeNotBlank(f"edge {e} is not blank")
    if x not in (g.edge_u[e], g.edge_v[e]):
        raise ValueError(f"vertex {x} is not an endpoint of edge {e}")
    _check_color_list(state, colors)
    out = _make_fan_core(state.missing, g.edge_u, g.edge_v, e, x, colors)
    if out is None:
        return None
    leaves, leaf_eids, alpha, j = out
    assert len(leaves) <= len(colors) + 1
    return FanResult(Fan(x, tuple(leaves), tuple(leaf_eids)), alpha, j)


def follow_path(state: ColoringState, x: int, alpha: int, beta: int, cap: int) -> AltPath:
    """The alternating path from x whose first edge is colored alpha, up to ``cap`` edges.

    Requires alpha != beta and beta missing at x, so the walk is a simple path
    and x is an endpoint of its alpha/beta component.
    """
    if alpha == beta:
        raise ValueError("path colors must differ")
    for c in (alpha, beta):
        if not 1 <= c <= state.q:
            raise ValueError(f"color {c} outside palette [1, {state.q}]")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if not state.is_missing(x, beta):
        raise ValueError(f"color {beta} must be missing at vertex {x}")
    g = state.graph
    pv, pe, truncated = _follow_core(state.missing, g.edge_u, g.edge_v, x, alpha, beta, cap)
    return AltPath(alpha, beta, tuple(pv), tuple(pe), truncated)


def vizing_chain(state: ColoringState, e: int, x: int, colors, cap: int):
    """Build a Vizing chain for blank edge e: a fan at x plus an alternating path.

    Returns a VizingChain, or ChainFailure.FAN / ChainFailure.PIVOT when
    construction gives up.  Runs in O(len(colors)^2 + cap).
    """
    g = state.graph
    out = make_fan(state, e, x, colors)
    if out is None:
        return ChainFailure.FAN
    fan, alpha, j = out.fan, out.color, out.index
    if j == fan.length:
        path = AltPath(alpha, None, (x,), (), False)
        return VizingChain(fan, path, alpha, j)
    mx = state.missing[x]
    beta = 0
    for c in colors:
        if mx[c] < 0:
            beta = c
            break
    if beta == 0:
        return ChainFailure.PIVOT
    pv, pe, truncated = _follow_core(state.missing, g.edge_u, g.edge_v, x, alpha, beta, cap)
    assert pv[1] == fan.leaves[j]
    path = AltPath(alpha, beta, tuple(pv), tuple(pe), truncated)
    return VizingChain(fan, path, alpha, j)


def flip_path(state: ColoringState, path: AltPath) -> None:
    """Swap the two colors along the path; properness is preserved for valid paths."""
    _flip_core(state, path.vertices, path.edge_ids, path.alpha, path.beta)


def shift_fan(state: ColoringState, fan: Fan) -> None:
    """Rotate the fan's colors one step; the last edge becomes blank."""
    _shift_core(state, fan.pivot, fan.leaves, fan.edge_ids)


def augment(state: ColoringState, chain: VizingChain) -> int:
    """Apply a non-truncated chain, coloring exactly its start edge.

    Returns the start edge id.  The chain must have been built by
    vizing_chain against the current state.
    """
    if chain.path.truncated:
        raise ImproperAugment("cannot augment a truncated chain directly")
    fan, path = chain.fan, chain.path
    return _augment_core(
        state, fan.pivot, fan.leaves, fan.edge_ids, chain.color, path.beta,
        chain.leaf_index, path.vertices, path.edge_ids,
    )
