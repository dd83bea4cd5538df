import time
from array import array

import pytest
from hypothesis import given, settings, strategies as hst

from edgecolor import (
    AlreadyColored,
    ColoringState,
    ImproperAssignment,
    NotColored,
    build_graph,
    find_conflicts,
    flagged_subgraph,
    validate_proper,
)
from edgecolor.generators import complete
from edgecolor.state import BLANK, FLAGGED, NO_EDGE

from helpers import dom_and_flg, random_graph, random_partial_state, reference_conflicts, rng_for


def triangle():
    return build_graph([(0, 1), (1, 2), (2, 0)], 3)


def test_new_state_blank():
    st = ColoringState(triangle(), 3)
    assert list(st.slot) == [BLANK, BLANK, BLANK]
    assert st.colored_count == 0 and st.flagged_count == 0
    for x in range(3):
        assert all(st.missing[x][c] == NO_EDGE for c in range(1, 4))


def test_new_state_empty_graph():
    st = ColoringState(build_graph([], 4), 5)
    assert list(st.slot) == []


def test_new_state_k4_missing_rows():
    st = ColoringState(complete(4), 4)
    for x in range(4):
        assert sum(1 for c in range(1, 5) if st.missing[x][c] == NO_EDGE) == 4


def test_new_state_rejects_bad_q():
    with pytest.raises(ValueError):
        ColoringState(triangle(), 0)


def test_assign_updates_tables():
    g = triangle()
    st = ColoringState(g, 3)
    e = 0  # edge (0, 1)
    st.assign(e, 1)
    assert st.missing[0][1] == e
    assert st.missing[1][1] == e
    assert st.missing[2][1] == NO_EDGE
    assert st.colored_count == 1


def test_assign_rejects_conflict():
    g = triangle()
    st = ColoringState(g, 3)
    st.assign(0, 1)  # (0,1) <- 1
    with pytest.raises(ImproperAssignment):
        st.assign(2, 1)  # (2,0) shares vertex 0
    with pytest.raises(AlreadyColored):
        st.assign(0, 2)
    with pytest.raises(ImproperAssignment):
        st.assign(1, 4)  # out of palette


def test_assign_unassign_round_trip():
    st = ColoringState(triangle(), 3)
    st.assign(0, 2)
    assert st.unassign(0) == 2
    assert st.missing[0][2] == NO_EDGE
    st.assign(0, 2)
    assert st.slot[0] == 2


def test_unassign_blank_raises():
    st = ColoringState(triangle(), 3)
    with pytest.raises(NotColored):
        st.unassign(1)


def test_flag_and_flagged_subgraph():
    g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2)], 4)
    st = ColoringState(g, 4)
    sub, d = flagged_subgraph(st)
    assert len(sub.edges) == 0 and d == 0
    st.flag(0)
    sub, d = flagged_subgraph(st)
    assert d == 1
    st.flag(1)
    st.flag(2)
    sub, d = flagged_subgraph(st)
    assert sub.edges == [(0, 1), (0, 2), (0, 3)]  # in flagged-id order
    assert d == 3  # star at vertex 0
    assert sub.n == g.n


def test_flag_colored_raises():
    st = ColoringState(triangle(), 3)
    st.assign(0, 1)
    with pytest.raises(AlreadyColored):
        st.flag(0)
    st.flag(1)
    with pytest.raises(AlreadyColored):
        st.flag(1)


def test_validate_detects_planted_conflict():
    g = build_graph([(0, 1), (0, 2)], 3)
    st = ColoringState(g, 2)
    st.assign(0, 1)
    st.assign(1, 2)
    # plant a conflict behind the API's back
    st.slot[1] = 1
    report = validate_proper(st)
    assert not report.ok
    assert len(report.conflicts) == 1
    e1, e2, vertex, color = report.conflicts[0]
    assert vertex == 0 and color == 1 and {e1, e2} == {0, 1}


@hst.composite
def colored_graphs(draw):
    """A random simple graph and a per-edge color list with blanks (0), flags
    (-1), colors above the palette, and a planted clash at one vertex."""
    n = draw(hst.integers(min_value=2, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(hst.lists(hst.sampled_from(possible), unique=True, max_size=len(possible)))
    q = draw(hst.integers(min_value=1, max_value=5))
    colors = draw(hst.lists(hst.integers(min_value=-1, max_value=q + 3),
                            min_size=len(pairs), max_size=len(pairs)))
    x = draw(hst.integers(min_value=0, max_value=n - 1))
    c = draw(hst.integers(min_value=1, max_value=q + 3))
    for e, edge in enumerate(pairs):
        if x in edge and draw(hst.booleans()):
            colors[e] = c
    return n, pairs, colors


@given(colored_graphs(), hst.booleans())
@settings(max_examples=200, deadline=None)
def test_find_conflicts_matches_per_vertex_scan(data, as_array):
    n, pairs, colors = data
    g = build_graph(pairs, n)
    assert find_conflicts(g, array("i", colors) if as_array else colors) == (
        reference_conflicts(g, colors)
    )


def test_validate_detects_corrupted_table():
    st = ColoringState(triangle(), 3)
    st.assign(0, 1)
    st.missing[0][1] = NO_EDGE  # corrupt one table entry
    report = validate_proper(st)
    assert not report.ok
    assert report.table_errors
    st.missing[0][1] = 0
    st.missing[2][3] = 1  # the table claims an edge the slots do not hold
    assert validate_proper(st).table_errors == [
        "missing[2][3] = 1, but no edge of color 3 is at vertex 2"
    ]


def test_validate_counts():
    st = ColoringState(triangle(), 3)
    st.assign(0, 1)
    st.flag(1)
    report = validate_proper(st)
    assert report.ok
    assert report.colored_count == 1
    assert report.flagged_count == 1
    assert report.blank_count == 1


def test_fuzz_interleaved_ops_stay_proper():
    # 1e5 random valid operations; periodic full rescans stay clean and the
    # missing tables mirror the slots exactly.
    rng = rng_for(101)
    g = random_graph(rng, max_n=30)
    q = g.max_degree + 2
    st = ColoringState(g, q)
    m = len(g.edges)
    for i in range(100_000):
        e = int(rng.integers(0, m))
        s = st.slot[e]
        if s == BLANK:
            if rng.random() < 0.15:
                st.flag(e)
            else:
                u, v = g.edge_u[e], g.edge_v[e]
                options = [c for c in range(1, q + 1)
                           if st.missing[u][c] < 0 and st.missing[v][c] < 0]
                if options:
                    st.assign(e, options[int(rng.integers(0, len(options)))])
        elif s == FLAGGED:
            st._unflag(e)
        else:
            st.unassign(e)
        if i % 20_000 == 19_999:
            assert validate_proper(st).ok
    report = validate_proper(st)
    assert report.ok
    # dom and flg are disjoint by construction of the slot encoding
    dom, flg = dom_and_flg(st)
    assert not dom & flg


def test_mutation_ops_scale_linearly():
    # O(1) amortized: 4x the operations should cost about 4x the time.
    def run(ops):
        g = complete(40)
        st = ColoringState(g, g.max_degree + 2)
        rng = rng_for(7)
        m = len(g.edges)
        picks = rng.integers(0, m, size=ops).tolist()
        colors = rng.integers(1, st.q + 1, size=ops).tolist()
        t0 = time.perf_counter()
        for e, c in zip(picks, colors):
            if st.slot[e] == BLANK:
                u, v = g.edge_u[e], g.edge_v[e]
                if st.missing[u][c] < 0 and st.missing[v][c] < 0:
                    st.assign(e, c)
            elif st.slot[e] > 0:
                st.unassign(e)
        return time.perf_counter() - t0

    run(50_000)  # warm-up
    small = min(run(250_000) for _ in range(2))
    big = min(run(1_000_000) for _ in range(2))
    ratio = big / small
    assert ratio < 8.0, f"4x ops took {ratio:.1f}x time; expected ~4x (within 2x slope)"


def test_random_partial_states_validate(subtests=None):
    rng = rng_for(55)
    for _ in range(25):
        g = random_graph(rng)
        st = random_partial_state(g, g.max_degree + 2, rng)
        assert validate_proper(st).ok
