import pytest

from edgecolor import MalformedInput, RunConfig, find_conflicts, run_full
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
    from edgecolor import new_state

    st = new_state(g, 3)
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
