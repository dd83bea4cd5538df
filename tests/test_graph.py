import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edgecolor import MalformedInput, build_graph, find_conflicts
from edgecolor.fileio import format_edge_list, parse_edge_list
from edgecolor.graph import first_occurrences
from edgecolor.generators import random_regular
from helpers import traced_memory


def test_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    assert g.n == 3
    assert len(g.edges) == 3
    assert g.max_degree == 2
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]


def test_rejects_self_loop():
    with pytest.raises(MalformedInput):
        build_graph([(0, 0)], 1)


def test_rejects_duplicate_edge_both_orientations():
    with pytest.raises(MalformedInput):
        build_graph([(0, 1), (1, 0)], 2)
    with pytest.raises(MalformedInput):
        build_graph([(0, 1), (0, 1)], 2)


def test_rejects_out_of_range():
    with pytest.raises(MalformedInput):
        build_graph([(0, 3)], 3)
    with pytest.raises(MalformedInput):
        build_graph([(-1, 0)], 3)


def test_degrees_match_edge_incidences():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
    assert g.degrees == [sum(x in edge for edge in g.edges) for x in range(g.n)]
    assert g.max_degree == max(g.degrees)


@pytest.mark.parametrize("faults, message", [
    ({20_500: (18, 17)}, "duplicate edge (17, 18)"),
    ({21_000: (9, 9)}, "self-loop at vertex 9"),
    ({20_900: (5, 25_001)}, "edge (5, 25001) has an endpoint outside [0, 25001)"),
    # The duplicate's first copy (edge 17) comes before both faults, but
    # its second copy comes after the self-loop.
    ({20_000: (9, 9), 20_500: (18, 17)}, "self-loop at vertex 9"),
    ({20_000: (18, 17), 20_500: (9, 9)}, "duplicate edge (17, 18)"),
    ({20_000: (18, 17), 20_500: (5, 25_001)}, "duplicate edge (17, 18)"),
    ({20_000: (-1, 7), 20_500: (18, 17)}, "edge (-1, 7) has an endpoint outside [0, 25001)"),
    # Of two duplicates, the one whose second copy comes first, though the
    # other's first copy (edge 2) is earlier.
    ({20_000: (18, 17), 20_500: (3, 2)}, "duplicate edge (17, 18)"),
    ({20_000: (3, 2), 20_500: (18, 17)}, "duplicate edge (2, 3)"),
], ids=["duplicate", "self-loop", "out-of-range", "loop-then-duplicate", "duplicate-then-loop",
        "duplicate-then-out-of-range", "out-of-range-then-duplicate", "two-duplicates",
        "two-duplicates-swapped"])
def test_large_input_errors_name_the_edge(faults, message):
    n = 25_001
    pairs = [(i, i + 1) for i in range(n - 1)]  # a path: 25k edges
    for position, fault in faults.items():
        pairs[position] = fault
    with pytest.raises(MalformedInput) as info:
        build_graph(pairs, n)
    assert str(info.value) == message


@pytest.mark.parametrize("pairs", [[(0.5, 1.7)], [("0", "1")], [(True, False)], [(0, 1), (1.0, 2.0)]],
                         ids=["float", "str", "bool", "float-after-int"])
def test_rejects_endpoints_that_are_not_integers(pairs):
    with pytest.raises(MalformedInput, match="edge list must be pairs of integers"):
        build_graph(pairs, 3)
    with pytest.raises(MalformedInput, match="edge list must be pairs of integers"):
        build_graph(np.array(pairs), 3)


@pytest.mark.parametrize("pairs", [[], (), np.empty(0), np.empty((0, 2), dtype=np.float64)],
                         ids=["list", "tuple", "flat-float-array", "float-array"])
def test_empty_input_of_any_dtype_is_valid(pairs):
    g = build_graph(pairs, 3)
    assert (g.m, g.degrees) == (0, [0, 0, 0])


def test_integer_arrays_of_any_width_are_accepted():
    for dtype in (np.int8, np.uint16, np.int32, np.uint64, np.int64):
        g = build_graph(np.array([(2, 0), (1, 2)], dtype=dtype), 3)
        assert g.edges == [(0, 2), (1, 2)], dtype


def test_vertex_ids_must_fit_in_int32():
    with pytest.raises(MalformedInput, match="at most 2\\*\\*31"):
        build_graph([], (1 << 31) + 1)


def test_empty_graph():
    g = build_graph([], 5)
    assert g.max_degree == 0
    assert g.edges == []


def test_flat_endpoint_arrays_match_edges():
    g = build_graph([(2, 5), (0, 1), (3, 4)], 6)
    assert g.edges == list(zip(g.edge_u, g.edge_v)) == [(2, 5), (0, 1), (3, 4)]
    assert g.m == 3


def test_graph_retains_only_the_endpoint_lists():
    # Two int32 arrays are 8 B/edge; the per-vertex degree list adds ~0.8
    # B/edge at n=2000, d=20.  A tuple per edge would add 64 more.
    ref = random_regular(2000, 20, np.random.default_rng(3))
    pairs = np.array((ref.edge_u, ref.edge_v)).T
    g, retained, _ = traced_memory(build_graph, pairs, ref.n)
    assert g.m == 20_000
    assert retained / g.m <= 12, retained / g.m


def test_dense_scale_peaks_per_edge():
    # m=200k.  Peaks were 137, 68 and 128 B/edge while duplicates were found
    # by np.unique(return_index=True), random_regular's first round inserted
    # its keys into an empty array, and every coloring's rows were ordered by
    # a 3-key lexsort; they were 98, 42 and 48 with list endpoints, and are
    # 96, 34 and 40 with int32 ones.  An int64 copy of the pairs inside
    # build_graph would add 16 to the second.
    g, _, peak = traced_memory(random_regular, 4000, 100, np.random.default_rng(5))
    assert peak / g.m <= 110, peak / g.m
    pairs = np.array((g.edge_u, g.edge_v)).T
    peak = traced_memory(build_graph, pairs, g.n)[2]
    assert peak / g.m <= 40, peak / g.m
    peak = traced_memory(find_conflicts, g, list(range(1, g.m + 1)))[2]  # proper: all distinct
    assert peak / g.m <= 64, peak / g.m


int64s = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


@given(st.one_of(
    st.lists(int64s, max_size=50),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=200),  # many repeats
    st.builds(lambda k, r: [k] * r, int64s, st.integers(min_value=1, max_value=20)),  # all equal
    st.lists(st.integers(min_value=-8, max_value=8).map(lambda k: k << 40), max_size=100),  # equal low bits
))
@example([])
@example([7])
@example([-(1 << 63), (1 << 63) - 1, -(1 << 63)])
@settings(max_examples=200, deadline=None)
def test_first_occurrences_matches_unique_return_index(keys):
    keys = np.array(keys, dtype=np.int64)
    expected = np.zeros(len(keys), dtype=bool)
    expected[np.unique(keys, return_index=True)[1]] = True
    assert first_occurrences(keys).tolist() == expected.tolist()
    first, distinct = first_occurrences(keys, with_distinct=True)
    assert first.tolist() == expected.tolist() and distinct.tolist() == np.unique(keys).tolist()


@st.composite
def edge_sets(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    return n, chosen


@given(edge_sets())
@settings(max_examples=60, deadline=None)
def test_build_accepts_any_simple_edge_set(data):
    n, pairs = data
    g = build_graph(pairs, n)
    assert len(g.edges) == len(pairs)
    assert sum(g.degrees) == 2 * len(pairs)


@given(edge_sets())
@settings(max_examples=40, deadline=None)
def test_edge_list_text_round_trip(data):
    n, pairs = data
    g = build_graph(pairs, n)
    text = format_edge_list(g)
    g2, labels = parse_edge_list(text)
    assert len(g2.edges) == len(g.edges)
    back = {frozenset((int(labels[u]), int(labels[v]))) for u, v in g2.edges}
    assert back == {frozenset(p) for p in g.edges}


def test_parse_edge_list_comments_and_labels():
    text = "# header\na b\nb c # trailing comment\n\nc a\n"
    g, labels = parse_edge_list(text)
    assert labels == ["a", "b", "c"]
    assert len(g.edges) == 3
    assert g.max_degree == 2


def test_parse_edge_list_rejects_garbage():
    with pytest.raises(MalformedInput):
        parse_edge_list("a b c\n")
    with pytest.raises(MalformedInput):
        parse_edge_list("a a\n")
    with pytest.raises(MalformedInput):
        parse_edge_list("a b\nb a\n")
