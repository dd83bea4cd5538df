import string
from array import array
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgecolor import MalformedInput, RunConfig, build_graph, fileio, find_conflicts, run_full
from edgecolor.fileio import (
    _CHUNK,
    format_coloring,
    format_edge_list,
    parse_coloring,
    parse_edge_list,
    write_coloring,
    write_edge_list,
)
from edgecolor.generators import random_regular
from edgecolor.state import BLANK, FLAGGED

from helpers import (
    reference_format_coloring,
    reference_format_edge_list,
    reference_parse_coloring,
    reference_parse_edge_list,
    rng_for,
    traced_memory,
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
    st.sampled_from(["a", "b", "c", "0", "1", "2", "-1", "+3", "1_0", "1e3", "\u0663", "9" * 5000,
                     "a#b"]),
    st.text(max_size=4),
)
_SEPARATORS = st.sampled_from([" ", "\t", "\n", "\r\n", "\r", "#", " # ", "\x0b", "\x1c", "\x1f",
                               "\x85", "\xa0", "\u2028", "\u2029"])


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


@pytest.mark.parametrize("m", [0, 1, 2, 9, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
@given(seed=st.integers(0, 2**32 - 1), labelled=st.booleans(),
       stem=st.text(_LABEL_CHARS + "%{}", min_size=1, max_size=3), packed=st.booleans())
@settings(max_examples=8, deadline=None)
def test_writers_match_per_edge_reference(tmp_path_factory, m, seed, labelled, stem, packed):
    rng = rng_for(seed)
    n = m + 1 + int(rng.integers(0, 3))
    perm = rng.permutation(n)
    g = build_graph(np.stack([perm[:m], perm[1:m + 1]], axis=1), n)  # a path: m distinct edges
    labels = [f"{stem}{i}" for i in rng.permutation(n)] if labelled else None
    colors = rng.integers(1, 1 << 40, size=m)
    unset = rng.random(m) < 0.2
    colors[unset] = rng.choice([BLANK, FLAGGED], size=int(unset.sum()))
    colors = array("q", colors.tolist()) if packed else colors.tolist()

    text = format_edge_list(g, labels)
    assert text == reference_format_edge_list(g, labels)
    coloring = format_coloring(g, colors, labels)
    assert coloring == reference_format_coloring(g, colors, labels)
    out = tmp_path_factory.mktemp("writers")
    write_edge_list(out / "g.txt", g, labels)
    write_coloring(out / "c.txt", g, colors, labels)
    assert (out / "g.txt").read_bytes() == text.encode()
    assert (out / "c.txt").read_bytes() == coloring.encode()


@pytest.mark.parametrize("extra", [-1, 1])
def test_coloring_writers_reject_wrong_length(tmp_path, extra):
    g, labels = parse_edge_list("a b\nb c\nc a\n")
    colors = [1, 2, 3, 4][:g.m + extra]
    with pytest.raises(ValueError):
        format_coloring(g, colors, labels)
    with pytest.raises(ValueError):
        write_coloring(tmp_path / "c.txt", g, colors, labels)


# The chunked parsers against the line-by-line references (tests/helpers.py):
# equal results, or MalformedInput with an equal message.

def _outcome(parse, *args):
    try:
        result = parse(*args)
    except MalformedInput as exc:
        return f"MalformedInput: {exc}"
    if isinstance(result, tuple):
        g, labels = result
        return g.n, g.edge_u, g.edge_v, g.degrees, labels
    return result


def assert_edge_list_matches_reference(text):
    assert _outcome(parse_edge_list, text) == _outcome(reference_parse_edge_list, text)


def assert_coloring_matches_reference(text, g, labels):
    assert _outcome(parse_coloring, text, g, labels) == \
        _outcome(reference_parse_coloring, text, g, labels)


@contextmanager
def split_chars(chars):
    """Run with fileio._SPLIT_CHARS set to ``chars``, so small texts span
    several chunks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_SPLIT_CHARS", chars)
        yield


_LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                "\u2028", "\u2029"])
_IN_LINE = st.sampled_from([" ", "\t", "  ", "\x1f", "\xa0", "\u3000"])
_LABEL_TOKENS = st.sampled_from(["a", "b", "c", "d", "0", "1", "é", "a#b"])


@st.composite
def lined_texts(draw, width):
    """Lines of mostly ``width`` label tokens, joined by every kind of line
    break and in-line space, some blank or commented: text that often
    parses, where token_texts seldom does."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.sampled_from([width, width, width, 0, 1, width + 1]))
        line = draw(_IN_LINE).join(draw(_LABEL_TOKENS) for _ in range(k))
        if draw(st.booleans()):
            line = draw(_IN_LINE) + line + draw(_IN_LINE)
        if draw(st.integers(0, 4)) == 0:
            line += draw(st.sampled_from(["#", "# note", " #a b c", "#\x1f"]))
        out.append(line + draw(_LINE_BREAKS))
    return "".join(out)


@given(st.one_of(token_texts(), lined_texts(2)), st.sampled_from([1, 5, fileio._SPLIT_CHARS]))
@settings(max_examples=400, deadline=None)
def test_parse_edge_list_matches_reference(text, chars):
    with split_chars(chars):
        assert_edge_list_matches_reference(text)


_TRIANGLE_PLUS = "a b\nb c\nc a\n0 1\n"  # edge order: a b, b c, a c, 0 1


@given(st.one_of(coloring_texts(), lined_texts(3)), st.sampled_from([1, 5, fileio._SPLIT_CHARS]))
@settings(max_examples=300, deadline=None)
def test_parse_coloring_matches_reference_on_any_text(text, chars):
    g, labels = parse_edge_list(_TRIANGLE_PLUS)
    with split_chars(chars):
        assert_coloring_matches_reference(text, g, labels)


# One change each to a format_coloring text; "color <token>" replaces a color.
COLORING_EDITS = ["swapped endpoints", "two lines reordered", "duplicated line", "dropped line",
                  "color -1", "color x", "color +3", f"color {1 << 63}", "comment line"]


def edit_lines(edit, lines, i):
    """A copy of the coloring lines with the given change at line i."""
    lines = list(lines)
    u, v, c = lines[i].split()
    if edit == "swapped endpoints":
        lines[i] = f"{v} {u} {c}"
    elif edit == "two lines reordered":
        lines[i:i + 2] = lines[i:i + 2][::-1]
    elif edit == "duplicated line":
        lines.insert(i, lines[i])
    elif edit == "dropped line":
        del lines[i]
    elif edit == "comment line":
        lines.insert(i, "# written by hand")
    else:
        lines[i] = f"{u} {v} {edit.split()[1]}"
    return lines


@pytest.mark.parametrize("edit", COLORING_EDITS)
@given(data=labelled_colorings(), where=st.integers(0, 100), chars=st.sampled_from([1, 20]),
       eol=_LINE_BREAKS)
@settings(max_examples=25, deadline=None)
def test_edited_coloring_matches_reference(edit, data, where, chars, eol):
    g, labels, colors = data
    lines = format_coloring(g, colors, labels).splitlines()
    if lines:
        lines = edit_lines(edit, lines, where % len(lines))
    with split_chars(chars):
        assert_coloring_matches_reference(eol.join(lines) + eol, g, labels)


@lru_cache(maxsize=None)
def long_path():
    """A labelled path whose edge-list and coloring texts span several chunks."""
    m = 3 * fileio._SPLIT_CHARS // 10
    rng = rng_for(7)
    perm = rng.permutation(m + 1)
    g = build_graph(np.stack([perm[:m], perm[1:]], axis=1), m + 1)
    labels = [f"v{i}" for i in rng.permutation(m + 1)]
    colors = rng.integers(1, 1000, size=m).tolist()
    return g, labels, format_edge_list(g, labels), format_coloring(g, colors, labels), colors


@pytest.mark.parametrize("breaks", ["\n", "\x0b\u2028"])
def test_long_texts_match_reference(breaks):
    # "\n" lets the text be cut into chunks; with only \x0b and \u2028 no cut exists.
    g, labels, edge_text, coloring_text, colors = long_path()
    assert len(edge_text) > 2 * fileio._SPLIT_CHARS

    def rebreak(text):
        lines = text.splitlines()
        return "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))

    assert_edge_list_matches_reference(rebreak(edge_text))
    assert parse_edge_list(rebreak(edge_text))[0].m == g.m
    assert parse_coloring(rebreak(coloring_text), g, labels) == colors


@pytest.mark.parametrize("edit", COLORING_EDITS)
def test_edited_long_coloring_matches_reference(edit):
    g, labels, _, coloring_text, _ = long_path()
    lines = edit_lines(edit, coloring_text.splitlines(), g.m - 5)  # in the last chunk
    assert_coloring_matches_reference("\n".join(lines) + "\n", g, labels)


def test_coloring_with_repeated_labels_matches_reference():
    # With a repeated label a token names the last vertex that has it, so
    # even a file in edge order must take the line loop.
    g = build_graph([(0, 1), (1, 2)], 3)
    labels = ["x", "x", "y"]
    for text in (format_coloring(g, [1, 2], labels), "x y 2\n"):
        assert_coloring_matches_reference(text, g, labels)


def test_parsers_peak_memory():
    # m = 50k.  A file in edge order is read with no m-entry edge dict: ~15
    # B/edge here, against ~200 for the line loop.  parse_edge_list peaks no
    # higher than the line-by-line reference (113 against 131 B/edge here).
    # Lines ended by \r alone are split in chunks too, not all at once.
    rng = rng_for(3)
    text = format_edge_list(random_regular(12500, 8, rng))
    g, labels = parse_edge_list(text)
    coloring = format_coloring(g, rng.integers(1, 10, size=g.m).tolist(), labels)
    assert g.m == 50_000
    for eol in ("\n", "\r"):
        edges, colors = text.replace("\n", eol), coloring.replace("\n", eol)
        assert traced_memory(parse_coloring, colors, g, labels)[2] < 50 * g.m, repr(eol)
        assert traced_memory(parse_edge_list, edges)[2] <= 1.05 * traced_memory(
            reference_parse_edge_list, edges)[2], repr(eol)
