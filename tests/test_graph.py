import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgecolor import MalformedInput, build_graph
from edgecolor.fileio import format_edge_list, parse_edge_list
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


@pytest.mark.parametrize("position, fault, message", [
    (20_500, (18, 17), "duplicate edge (17, 18)"),
    (21_000, (9, 9), "self-loop at vertex 9"),
    (20_900, (5, 25_001), "edge (5, 25001) has an endpoint outside [0, 25001)"),
], ids=["duplicate", "self-loop", "out-of-range"])
def test_large_input_errors_name_the_edge(position, fault, message):
    n = 25_001
    pairs = [(i, i + 1) for i in range(n - 1)]  # a path: 25k edges
    pairs[position] = fault
    with pytest.raises(MalformedInput) as info:
        build_graph(pairs, n)
    assert str(info.value) == message


def test_empty_graph():
    g = build_graph([], 5)
    assert g.max_degree == 0
    assert g.edges == []


def test_flat_endpoint_arrays_match_edges():
    g = build_graph([(2, 5), (0, 1), (3, 4)], 6)
    assert g.edges == list(zip(g.edge_u, g.edge_v)) == [(2, 5), (0, 1), (3, 4)]
    assert g.m == 3


def test_graph_retains_only_the_endpoint_lists():
    # Two pointer lists are 16 B/edge; the per-vertex degrees and int objects
    # add ~4.4 B/edge at n=2000, d=20.  A tuple per edge would add 64 more.
    ref = random_regular(2000, 20, np.random.default_rng(3))
    pairs = np.array((ref.edge_u, ref.edge_v)).T
    g, retained, _ = traced_memory(build_graph, pairs, ref.n)
    assert g.m == 20_000
    assert retained / g.m <= 32, retained / g.m


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
