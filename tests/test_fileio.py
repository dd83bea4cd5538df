import string

import pytest
from hypothesis import given, settings, strategies as st

from edgecolor import MalformedInput, RunConfig, build_graph, find_conflicts, run_full
from edgecolor.fileio import (
    format_coloring,
    format_edge_list,
    parse_coloring,
    parse_edge_list,
)


def make_colored():
    g, labels = parse_edge_list("a b\nb c\nc a\n")
    st, _ = run_full(g, RunConfig(epsilon=0.5, seed=2))
    return g, labels, st


def test_coloring_round_trip():
    g, labels, st = make_colored()
    text = format_coloring(g, st.slot, labels)
    back = parse_coloring(text, g, labels)
    assert back == list(st.slot)


def test_coloring_zero_for_blank_and_flagged():
    g, labels = parse_edge_list("a b\nb c\n")
    from edgecolor import ColoringState

    st = ColoringState(g, 3)
    st.assign(0, 2)
    st.flag(1)
    lines = format_coloring(g, st.slot, labels).strip().splitlines()
    assert lines[0].endswith(" 2")
    assert lines[1].endswith(" 0")


def test_parse_coloring_rejects_unknown_edge():
    g, labels, st = make_colored()
    text = format_coloring(g, st.slot, labels) + "a d 1\n"
    with pytest.raises(MalformedInput):
        parse_coloring(text, g, labels)


def test_parse_coloring_rejects_duplicates_and_gaps():
    g, labels, st = make_colored()
    lines = format_coloring(g, st.slot, labels).strip().splitlines()
    with pytest.raises(MalformedInput):
        parse_coloring("\n".join(lines + [lines[0]]), g, labels)
    with pytest.raises(MalformedInput):
        parse_coloring("\n".join(lines[:-1]), g, labels)


def test_parse_coloring_rejects_colors_beyond_64_bits():
    # The properness check reads colors as int64; a larger one is bad input.
    g, labels, st = make_colored()
    lines = format_coloring(g, st.slot, labels).strip().splitlines()
    u, v, _ = lines[0].split()
    lines[0] = f"{u} {v} {(1 << 63) - 1}"
    colors = parse_coloring("\n".join(lines), g, labels)
    assert colors[0] == (1 << 63) - 1 and not find_conflicts(g, colors)
    lines[0] = f"{u} {v} {1 << 63}"
    with pytest.raises(MalformedInput, match="does not fit in 64 bits"):
        parse_coloring("\n".join(lines), g, labels)


def test_parse_coloring_reversed_endpoints_ok():
    g, labels, st = make_colored()
    lines = []
    for line in format_coloring(g, st.slot, labels).strip().splitlines():
        u, v, c = line.split()
        lines.append(f"{v} {u} {c}")
    back = parse_coloring("\n".join(lines), g, labels)
    assert back == list(st.slot)


def test_edge_list_format_uses_labels():
    g, labels = parse_edge_list("alpha beta\nbeta gamma\n")
    assert format_edge_list(g, labels) == "alpha beta\nbeta gamma\n"


# Tokens a hand-edited or damaged file might hold: labels, signed and
# non-ASCII digits, an integer past the str -> int digit limit, and any text.
_TOKENS = st.one_of(
    st.sampled_from(["a", "b", "c", "0", "1", "2", "-1", "+3", "1_0", "1e3", "\u0663", "9" * 5000]),
    st.text(max_size=4),
)
_SEPARATORS = st.sampled_from([" ", "\t", "\n", "\r\n", "#", " # ", "\x0b", "\x85", "\u2028"])


@st.composite
def token_texts(draw):
    parts = draw(st.lists(st.tuples(_TOKENS, _SEPARATORS), max_size=30))
    return "".join(token + sep for token, sep in parts)


@given(token_texts())
@settings(max_examples=200, deadline=None)
def test_parse_edge_list_raises_only_malformed_input(text):
    try:
        parse_edge_list(text)
    except MalformedInput:
        pass


@st.composite
def coloring_texts(draw):
    """Token text whose lines often name an edge of the graph in the test
    below, so the parser gets past the label checks to the color token."""
    edge_line = st.tuples(st.sampled_from(["a b", "c b", "a c", "0 1"]), _TOKENS).map(" ".join)
    return "\n".join(draw(st.lists(st.one_of(edge_line, token_texts()), max_size=6)))


@given(coloring_texts())
@settings(max_examples=150, deadline=None)
def test_parse_coloring_raises_only_malformed_input(text):
    g, labels = parse_edge_list("a b\nb c\nc a\n0 1\n")
    try:
        parse_coloring(text, g, labels)
    except MalformedInput:
        pass


_LABEL_CHARS = string.ascii_letters + string.digits + "-_.:!é"


@st.composite
def labelled_colorings(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    labels = draw(st.lists(st.text(_LABEL_CHARS, min_size=1, max_size=6),
                           min_size=n, max_size=n, unique=True))
    colors = draw(st.lists(st.integers(min_value=-1, max_value=(1 << 63) - 1),
                           min_size=len(pairs), max_size=len(pairs)))
    return build_graph(pairs, n), labels, colors


@given(labelled_colorings())
@settings(max_examples=100, deadline=None)
def test_coloring_text_round_trip(data):
    g, labels, colors = data
    back = parse_coloring(format_coloring(g, colors, labels), g, labels)
    assert back == [max(c, 0) for c in colors]  # blank (0) and flagged (-1) read as 0
