import pytest

from edgecolor import (
    AlreadyColored,
    AltPath,
    ChainFailure,
    ColoringState,
    Fan,
    ImproperAugment,
    ImproperFlip,
    ImproperShift,
    augment,
    build_graph,
    flip_path,
    follow_path,
    make_fan,
    shift_fan,
    validate_proper,
    vizing_chain,
)
from edgecolor.chains import _augment_core
from edgecolor.state import BLANK

from helpers import dom_and_flg, random_graph, random_partial_state, rng_for


# ---------------------------------------------------------------------------
# make_fan
# ---------------------------------------------------------------------------


def test_make_fan_happy_on_blank_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    st = ColoringState(g, 3)
    out = make_fan(st, 0, 0, [1])
    assert out is not None
    assert out.fan.pivot == 0
    assert out.fan.leaves == (1,)
    assert out.color == 1
    assert out.index == 1  # happy: index == fan length


def test_make_fan_fails_when_frontier_saturated():
    # y's incident edges use exactly the sampled colors
    g = build_graph([(0, 1), (1, 2), (1, 3)], 4)
    st = ColoringState(g, 3)
    st.assign(1, 1)  # (1,2) <- 1
    st.assign(2, 2)  # (1,3) <- 2
    assert make_fan(st, 0, 0, [1, 2]) is None


def test_make_fan_two_step_growth():
    # x=0, y=1, z=2, w=3 with (x,z)=1 and (z,w)=2: fan walks y then z,
    # and color 3 is missing at both z and the pivot.
    g = build_graph([(0, 1), (0, 2), (2, 3)], 4)
    st = ColoringState(g, 3)
    st.assign(1, 1)
    st.assign(2, 2)
    out = make_fan(st, 0, 0, [1, 2, 3])
    assert out is not None
    assert out.fan.leaves == (1, 2)
    assert out.color == 3
    assert out.index == 2  # == length: happy after growing


def test_make_fan_length_bound():
    rng = rng_for(11)
    for _ in range(50):
        g = random_graph(rng)
        q = g.max_degree + 2
        st = random_partial_state(g, q, rng, flag_frac=0.0)
        blanks = [e for e, c in enumerate(st.slot) if c == BLANK]
        if not blanks:
            continue
        e = blanks[int(rng.integers(0, len(blanks)))]
        x = (g.edge_u[e], g.edge_v[e])[int(rng.integers(0, 2))]
        colors = sorted(
            set(rng.integers(1, q + 1, size=4).tolist())
        )
        out = make_fan(st, e, x, colors)
        if out is not None:
            assert out.fan.length <= len(colors) + 1
            # output contract: color missing at the last leaf and at the target leaf
            assert st.is_missing(out.fan.end, out.color)
            assert st.is_missing(out.fan.leaves[out.index - 1], out.color)


def test_make_fan_over_a_range_matches_the_list_scan():
    # A step-1 range takes each leaf's lowest missing color by row.index;
    # the list scan of the same colors is the reference.  Short runs make
    # fans fail, and a step-2 range must take the scan.
    rng = rng_for(12)
    fails = 0
    for _ in range(200):
        g = random_graph(rng)
        q = g.max_degree + 1
        st = random_partial_state(g, q, rng, fill=0.8, flag_frac=0.0)
        blanks = [e for e, c in enumerate(st.slot) if c == BLANK]
        if not blanks:
            continue
        e = blanks[int(rng.integers(0, len(blanks)))]
        x = (g.edge_u[e], g.edge_v[e])[int(rng.integers(0, 2))]
        lo = int(rng.integers(1, q + 1))
        hi = int(rng.integers(lo + 1, q + 2))
        for colors in (range(1, q + 1), range(lo, hi), range(lo, hi, 2)):
            out = make_fan(st, e, x, colors)
            assert out == make_fan(st, e, x, list(colors)), (colors, e, x)
            fails += out is None
    assert fails


def test_make_fan_long_fan_revisit():
    # Force a 14-leaf fan whose last frontier points back at the leaf added
    # right when the membership index is built; the leaves must stay distinct
    # and the returned index must name the revisited leaf.
    pairs = [(0, 1)]                      # blank start edge (x, y0)
    pairs += [(0, 1 + i) for i in range(1, 14)]   # (x, y_i), to be colored i
    helper = 15
    helper_edges = []
    for i in range(1, 13):                # y_i carries colors 1..i-1 on helpers
        for c in range(1, i):
            helper_edges.append((1 + i, helper, c))
            helper += 1
    for c in range(1, 12):                # y_13 carries 1..11 so its min gap is 12
        helper_edges.append((14, helper, c))
        helper += 1
    pairs += [(u, v) for u, v, _ in helper_edges]
    g = build_graph(pairs, helper)
    st = ColoringState(g, 15)
    for i in range(1, 14):
        st.assign(i, i)                   # edge (x, y_i) <- i
    for eid, (_, _, c) in enumerate(helper_edges, start=14):
        st.assign(eid, c)
    out = make_fan(st, 0, 0, list(range(1, 15)))
    assert out is not None
    assert len(set(out.fan.leaves)) == len(out.fan.leaves), "duplicate fan leaf"
    assert out.fan.length == 14
    assert out.color == 12
    assert out.index == 12
    assert out.fan.leaves[out.index] == 13  # vertex y_12 is the revisited leaf


def test_make_fan_input_validation():
    g = build_graph([(0, 1)], 2)
    st = ColoringState(g, 2)
    with pytest.raises(ValueError):
        make_fan(st, 0, 0, [])
    with pytest.raises(ValueError):
        make_fan(st, 0, 0, [2, 1])
    with pytest.raises(ValueError):
        make_fan(st, 0, 1, [5])  # out of palette
    st.assign(0, 1)
    with pytest.raises(AlreadyColored):
        make_fan(st, 0, 0, [2])


# ---------------------------------------------------------------------------
# follow_path
# ---------------------------------------------------------------------------


def _alternating_path_state(edges_count, q=3):
    # path 0-1-2-...-k with colors 1,2,1,2,...
    pairs = [(i, i + 1) for i in range(edges_count)]
    g = build_graph(pairs, edges_count + 1)
    st = ColoringState(g, q)
    for e in range(edges_count):
        st.assign(e, 1 if e % 2 == 0 else 2)
    return g, st


def test_follow_path_no_alpha_edge():
    g, st = _alternating_path_state(1)
    p = follow_path(st, 0, 3, 2, cap=5)
    assert p.vertices == (0,)
    assert p.length == 0
    assert not p.truncated


def test_follow_path_single_edge_maximal():
    g, st = _alternating_path_state(1)
    p = follow_path(st, 0, 1, 2, cap=5)
    assert p.vertices == (0, 1)
    assert not p.truncated


def test_follow_path_truncation_at_cap():
    g, st = _alternating_path_state(10)
    p = follow_path(st, 0, 1, 2, cap=4)
    assert p.length == 4
    assert p.vertices == (0, 1, 2, 3, 4)
    assert p.truncated
    full = follow_path(st, 0, 1, 2, cap=50)
    assert full.length == 10
    assert not full.truncated
    exact = follow_path(st, 0, 1, 2, cap=10)
    assert exact.length == 10
    assert not exact.truncated  # maximal exactly at the cap


def test_follow_path_requires_beta_missing():
    g, st = _alternating_path_state(4)
    with pytest.raises(ValueError):
        follow_path(st, 1, 2, 1, cap=5)  # color 1 present at vertex 1


# ---------------------------------------------------------------------------
# flip_path / shift_fan
# ---------------------------------------------------------------------------


def test_flip_single_edge():
    g = build_graph([(0, 1)], 2)
    st = ColoringState(g, 2)
    st.assign(0, 1)
    p = follow_path(st, 0, 1, 2, cap=5)
    flip_path(st, p)
    assert st.slot[0] == 2
    assert validate_proper(st).ok


def test_flip_trivial_path_is_noop():
    g = build_graph([(0, 1)], 2)
    st = ColoringState(g, 2)
    p = AltPath(1, 2, (0,), (), False)
    flip_path(st, p)
    assert list(st.slot) == [BLANK]


def test_flip_four_edge_path():
    g, st = _alternating_path_state(4)
    p = follow_path(st, 0, 1, 2, cap=10)
    assert p.length == 4
    flip_path(st, p)
    assert [st.slot[e] for e in range(4)] == [2, 1, 2, 1]
    assert validate_proper(st).ok


def test_flip_detects_stale_path():
    g, st = _alternating_path_state(4)
    p = follow_path(st, 0, 1, 2, cap=10)
    st.unassign(2)
    st.assign(2, 3)  # path no longer matches the state
    with pytest.raises(ImproperFlip):
        flip_path(st, p)


def test_shift_length_one_fan_is_noop():
    g = build_graph([(0, 1)], 2)
    st = ColoringState(g, 2)
    shift_fan(st, Fan(0, (1,), (0,)))
    assert list(st.slot) == [BLANK]


def test_shift_two_leaf_fan():
    g = build_graph([(0, 1), (0, 2)], 3)
    st = ColoringState(g, 5)
    st.assign(1, 5)
    shift_fan(st, Fan(0, (1, 2), (0, 1)))
    assert st.slot[0] == 5
    assert st.slot[1] == BLANK
    assert validate_proper(st).ok


def test_shift_four_leaf_fan_rotates():
    g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4)], 5)
    st = ColoringState(g, 8)
    st.assign(1, 5)
    st.assign(2, 6)
    st.assign(3, 7)
    shift_fan(st, Fan(0, (1, 2, 3, 4), (0, 1, 2, 3)))
    assert [st.slot[e] for e in range(4)] == [5, 6, 7, BLANK]
    assert validate_proper(st).ok


def test_shift_rejects_colored_start():
    g = build_graph([(0, 1), (0, 2)], 3)
    st = ColoringState(g, 3)
    st.assign(0, 1)
    st.assign(1, 2)
    with pytest.raises(ImproperShift):
        shift_fan(st, Fan(0, (1, 2), (0, 1)))


# ---------------------------------------------------------------------------
# vizing_chain
# ---------------------------------------------------------------------------


def test_vizing_chain_happy_short_circuit():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    st = ColoringState(g, 3)
    out = vizing_chain(st, 0, 0, [1], cap=10)
    assert not isinstance(out, ChainFailure)
    assert out.path.vertices == (0,)
    assert out.color == 1
    assert out.leaf_index == out.fan.length


def test_vizing_chain_fan_failure():
    g = build_graph([(0, 1), (1, 2), (1, 3)], 4)
    st = ColoringState(g, 3)
    st.assign(1, 1)
    st.assign(2, 2)
    assert vizing_chain(st, 0, 0, [1, 2], cap=10) is ChainFailure.FAN


def test_vizing_chain_pivot_failure():
    # all sampled colors present at the pivot and the fan closes on itself:
    # x=0 with (x,z1)=1, (x,z2)=2, (x,w3)=3; blank edge (x,y).
    g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4)], 5)
    st = ColoringState(g, 4)
    st.assign(1, 1)
    st.assign(2, 2)
    st.assign(3, 3)
    out = vizing_chain(st, 0, 0, [1, 2, 3], cap=10)
    assert out is ChainFailure.PIVOT


def test_vizing_chain_two_step_happy_has_trivial_path():
    g = build_graph([(0, 1), (0, 2), (2, 3)], 4)
    st = ColoringState(g, 3)
    st.assign(1, 1)
    st.assign(2, 2)
    out = vizing_chain(st, 0, 0, [1, 2, 3], cap=10)
    assert not isinstance(out, ChainFailure)
    assert out.path.vertices == (0,)
    assert out.color == 3


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------


def test_augment_happy_fan_on_blank_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    st = ColoringState(g, 3)
    chain = vizing_chain(st, 0, 0, [1], cap=10)
    colored = augment(st, chain)
    assert colored == 0
    assert st.slot[0] == 1
    assert validate_proper(st).ok


def _fig_case_apart():
    # Path ends away from the truncated fan's last leaf: x=0, y0=1, y1=2,
    # v2=3, w=4; (x,y1)=1, (x,w)=3, (y1,v2)=2; blank (x,y0).
    g = build_graph([(0, 1), (0, 2), (0, 4), (2, 3)], 5)
    st = ColoringState(g, 4)
    st.assign(1, 1)
    st.assign(2, 3)
    st.assign(3, 2)
    return g, st


def test_augment_path_apart_from_subfan_end():
    g, st = _fig_case_apart()
    chain = vizing_chain(st, 0, 0, [1, 2, 3], cap=10)
    assert not isinstance(chain, ChainFailure)
    assert chain.color == 1
    assert chain.leaf_index == 1
    assert chain.path.vertices == (0, 2, 3)
    assert chain.path.end != chain.fan.leaves[chain.leaf_index - 1]
    colored = augment(st, chain)
    assert colored == 0
    # start edge takes alpha directly (the sub-fan has a single leaf)
    assert st.slot[0] == 1
    # path flipped: (x,y1) 1->2, (y1,v2) 2->1
    assert st.slot[1] == 2
    assert st.slot[3] == 1
    assert validate_proper(st).ok
    dom, flg = dom_and_flg(st)
    assert dom == {0, 1, 2, 3} and not flg


def _fig_case_collide():
    # Path ends exactly at the truncated fan's last leaf, forcing the full
    # fan to rotate: x=0, y0=1, y1=2, w=3; (x,y1)=1, (x,w)=3, (y1,y0)=2.
    g = build_graph([(0, 1), (0, 2), (0, 3), (2, 1)], 4)
    st = ColoringState(g, 4)
    st.assign(1, 1)
    st.assign(2, 3)
    st.assign(3, 2)
    return g, st


def test_augment_path_ending_at_subfan_end():
    g, st = _fig_case_collide()
    chain = vizing_chain(st, 0, 0, [1, 2, 3], cap=10)
    assert not isinstance(chain, ChainFailure)
    assert chain.color == 1
    assert chain.leaf_index == 1
    assert chain.path.vertices == (0, 2, 1)
    assert chain.path.end == chain.fan.leaves[chain.leaf_index - 1]
    colored = augment(st, chain)
    assert colored == 0
    # full fan rotated; the fan's last edge (x,w) takes alpha
    assert st.slot[0] == 2
    assert st.slot[1] == 3
    assert st.slot[2] == 1
    assert st.slot[3] == 1
    assert validate_proper(st).ok


def test_augment_rejects_truncated_chain():
    g, st = _alternating_path_state(6, q=4)
    # hand-build a chain with a truncated path
    fan = Fan(0, (1,), (0,))
    path = AltPath(1, 2, (0, 1, 2), (0, 1), True)
    with pytest.raises(ImproperAugment):
        augment(st, VizingChainStub(fan, path, 1, 1))


def test_augment_core_cut_prefix_without_path_edges():
    # The shift that cuts a capped path's first edge: pe is empty and
    # 1 <= j < len(leaves).  x=0, y0=1, y1=2, y2=3, y3=4; (x,y1)=1, (x,y2)=2,
    # (x,y3)=3, (y2,5)=1, (y3,6)=1; blank (x,y0).  The fan closes on y2 with
    # alpha 2 (j=2), and the path from x starts at the alpha edge (x,y2).
    g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 6)], 7)
    st = ColoringState(g, 4)
    for e, c in ((1, 1), (2, 2), (3, 3), (4, 1), (5, 1)):
        st.assign(e, c)
    out = make_fan(st, 0, 0, [1, 2, 3, 4])
    assert (out.fan.leaves, out.color, out.index) == ((1, 2, 3, 4), 2, 2)
    path = follow_path(st, 0, 2, 4, cap=10)
    assert path.edge_ids == (2,)
    st.unassign(2)
    colored = _augment_core(st, 0, out.fan.leaves, out.fan.edge_ids, 2, 4, 2,
                            path.vertices[:1], path.edge_ids[:0])
    assert colored == 0
    # leaves[:2] rotate, leaf_eids[1] takes alpha; the cut stays blank and
    # leaves[2:] keep their colors
    assert list(st.slot) == [1, 2, BLANK, 3, 1, 1]
    assert validate_proper(st).ok


class VizingChainStub:
    def __init__(self, fan, path, color, leaf_index):
        self.fan = fan
        self.path = path
        self.color = color
        self.leaf_index = leaf_index


# ---------------------------------------------------------------------------
# Vizing completeness: with q >= Delta + 1 and the full palette, chain
# construction never fails and augmenting colors exactly one edge.
# ---------------------------------------------------------------------------


def test_full_palette_chain_always_augments():
    rng = rng_for(77)
    for _ in range(60):
        g = random_graph(rng, max_n=16)
        q = g.max_degree + 1
        st = random_partial_state(g, q, rng, fill=0.7, flag_frac=0.0)
        blanks = [e for e, c in enumerate(st.slot) if c == BLANK]
        if not blanks:
            continue
        e = blanks[int(rng.integers(0, len(blanks)))]
        x = (g.edge_u[e], g.edge_v[e])[int(rng.integers(0, 2))]
        dom_before, _ = dom_and_flg(st)
        chain = vizing_chain(st, e, x, list(range(1, q + 1)), cap=g.n)
        assert not isinstance(chain, ChainFailure), "full palette must always build a chain"
        assert not chain.path.truncated  # a path has at most n-1 < cap edges
        colored = augment(st, chain)
        assert colored == e
        dom_after, flg_after = dom_and_flg(st)
        assert dom_after == dom_before | {e}
        assert not flg_after
        assert validate_proper(st).ok


def test_fuzzed_flip_shift_augment_stay_proper():
    rng = rng_for(99)
    flips = shifts = augments = 0
    while min(flips, shifts, augments) < 300:
        g = random_graph(rng, max_n=20)
        q = g.max_degree + 2
        st = random_partial_state(g, q, rng, fill=0.6, flag_frac=0.0)
        blanks = [e for e, c in enumerate(st.slot) if c == BLANK]
        if not blanks:
            continue
        e = blanks[int(rng.integers(0, len(blanks)))]
        x = (g.edge_u[e], g.edge_v[e])[int(rng.integers(0, 2))]
        colors = sorted(set(rng.integers(1, q + 1, size=6).tolist()))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            out = make_fan(st, e, x, colors)
            if out is not None:
                shift_fan(st, out.fan)
                shifts += 1
        elif kind == 1:
            alpha, beta = (int(c) for c in rng.choice(range(1, q + 1), size=2, replace=False))
            if st.is_missing(x, beta):
                p = follow_path(st, x, alpha, beta, cap=g.n)
                flip_path(st, p)
                flips += 1
        else:
            chain = vizing_chain(st, e, x, colors, cap=g.n)
            if not isinstance(chain, ChainFailure) and not chain.path.truncated:
                augment(st, chain)
                augments += 1
        assert validate_proper(st).ok
