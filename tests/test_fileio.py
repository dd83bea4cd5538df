import re
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
from edgecolor.graph import endpoint_views
from edgecolor.state import BLANK, FLAGGED

from helpers import (
    reference_format_coloring,
    reference_format_edge_list,
    reference_parse_coloring,
    reference_parse_edge_list,
    rng_for,
    traced_memory,
)


def str_labels(labels):
    """The label table as the str labels its entries print as."""
    return list(map(str, labels.tolist())) if isinstance(labels, np.ndarray) else labels


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
    assert format_edge_list(g, ["alpha\x00", "beta", "\x00"]) == "alpha\x00 beta\nbeta \x00\n"


# Integer-looking tokens at the edges of the numpy reader's canonical form:
# a sign on 0, leading zeros, '+', 18 and 19 digits, 20 digits (past
# int64), a non-ASCII digit and an underscore.
_INT_LIKE = ["0", "7", "-7", "007", "-0", "+7", "1" + "0" * 17, "-" + "9" * 18, "1" + "0" * 18,
             "9" * 19, "9" * 20, "\u0663", "1_0"]

# Tokens a hand-edited or damaged file might hold: labels, signed and
# non-ASCII digits, an integer past the str -> int digit limit, and any text.
_TOKENS = st.one_of(
    st.sampled_from(["a", "b", "c", "0", "1", "2", "-1", "+3", "1_0", "1e3", "\u0663", "9" * 5000,
                     "a#b"] + _INT_LIKE),
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
    if draw(st.booleans()):  # integer labels, as `edgecolor gen` writes them: the numpy reader
        labels = draw(st.lists(st.integers(-(10 ** 18) + 1, 10 ** 19).map(str) | st.sampled_from(_INT_LIKE),
                               min_size=n, max_size=n, unique=True))
    else:
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


# Extreme int64 labels: the widest texts, a sign, and -2**63, whose
# magnitude does not fit in int64.
_INT64_EDGES = np.array([0, 10 ** 18 - 1, -(10 ** 18 - 1), -(1 << 63), (1 << 63) - 1])


@pytest.mark.parametrize("m", [0, 1, 2, 9, 4095, 4096, 4097,  # 4096 edges were one chunk before
                               _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
@given(seed=st.integers(0, 2**32 - 1), table=st.sampled_from(["ids", "str", "int64"]),
       stem=st.text(_LABEL_CHARS + "%{}", min_size=1, max_size=3),
       kind=st.sampled_from(["list", "array_i", "array_q", "ndarray", "uint64"]))
@settings(max_examples=8, deadline=None)
def test_writers_match_per_edge_reference(tmp_path_factory, m, seed, table, stem, kind):
    rng = rng_for(seed)
    n = m + 1 + int(rng.integers(0, 3))
    perm = rng.permutation(n)
    g = build_graph(np.stack([perm[:m], perm[1:m + 1]], axis=1), n)  # a path: m distinct edges
    if table == "str":
        labels = [f"{stem}{i}" for i in rng.permutation(n)]
    elif table == "int64":  # as parse_edge_list returns an integer text's labels
        labels = rng.integers(-(10 ** 18), 10 ** 18, size=n)
        k = min(n, len(_INT64_EDGES))
        labels[rng.choice(n, k, replace=False)] = rng.permutation(_INT64_EDGES)[:k]
    else:
        labels = None
    # Colors over all of [-1, 2**63 - 1], at every width: a random value
    # shifted right by 0 to 63 bits.
    colors = rng.integers(-1, (1 << 63) - 1, size=m, endpoint=True) >> rng.integers(0, 64, size=m)
    unset = rng.random(m) < 0.2
    colors[unset] = rng.choice([BLANK, FLAGGED], size=int(unset.sum()))
    if kind == "array_i":  # palette colors, as ColoringState.slot holds them
        colors = array("i", (colors >> 56).tolist())
    elif kind == "array_q":
        colors = array("q", colors.tolist())
    elif kind == "list":
        colors = colors.tolist()
    elif kind == "uint64":
        colors = np.maximum(colors, 0).astype(np.uint64)

    text = format_edge_list(g, labels)
    assert text == reference_format_edge_list(g, str_labels(labels))
    coloring = format_coloring(g, colors, labels)
    assert coloring == reference_format_coloring(g, colors, str_labels(labels))
    out = tmp_path_factory.mktemp("writers")
    write_edge_list(out / "g.txt", g, labels)
    write_coloring(out / "c.txt", g, colors, labels)
    assert (out / "g.txt").read_bytes() == text.encode()
    assert (out / "c.txt").read_bytes() == coloring.encode()


def test_int64_labels_print_as_str():
    # Each decimal width, signed and not, and both ends of int64.
    vals = sorted({s * (10 ** k + d) for k in range(19) for d in (-1, 0) for s in (1, -1)}
                  | {-(1 << 63), (1 << 63) - 1})
    labels = np.array(vals, dtype=np.int64)
    g = build_graph([(i, i + 1) for i in range(len(vals) - 1)], len(vals))
    assert format_edge_list(g, labels) == "".join(f"{u} {v}\n" for u, v in zip(vals, vals[1:]))
    colors = [max(v, 0) for v in vals[1:]]
    assert format_coloring(g, colors, labels) == "".join(
        f"{u} {v} {c}\n" for u, v, c in zip(vals, vals[1:], colors))


@pytest.mark.parametrize("colors", [[1, 1 << 63, 2], [1, -(1 << 63) - 1, 2], [1, 1 << 64, -1],
                                    np.array([1, 1 << 63, 2], dtype=np.uint64),
                                    array("Q", [1, 1 << 63, 2]), [1, 1.5, 2], [1.0, 2.0, 3.0],
                                    np.array([1, 2, np.nan]), [True, False, True], ["1", "2", "3"]],
                         ids=["list", "list-negative", "list-object", "uint64", "array-Q",
                              "float", "integral-float", "nan", "bool", "str"])
def test_coloring_writers_reject_colors_not_int64(tmp_path, colors):
    g, labels = parse_edge_list("a b\nb c\nc a\n")
    path = tmp_path / "c.txt"
    path.write_bytes(b"an existing file\n")
    for table in (labels, np.array([5, 6, 7]), None):
        with pytest.raises(ValueError, match="integer that fits in int64"):
            format_coloring(g, colors, table)
        with pytest.raises(ValueError, match="integer that fits in int64"):
            write_coloring(path, g, colors, table)
        assert path.read_bytes() == b"an existing file\n"


@pytest.mark.parametrize("extra", [-1, 1])
def test_coloring_writers_reject_wrong_length(tmp_path, extra):
    g, labels = parse_edge_list("a b\nb c\nc a\n")
    colors = [1, 2, 3, 4][:g.m + extra]
    with pytest.raises(ValueError):
        format_coloring(g, colors, labels)
    with pytest.raises(ValueError):
        write_coloring(tmp_path / "c.txt", g, colors, labels)


# The chunked parsers against the line-by-line references (tests/helpers.py):
# equal results, or MalformedInput with an equal message.  An int64 label
# table stands for the str labels its values print as.

def _outcome(parse, *args):
    try:
        result = parse(*args)
    except MalformedInput as exc:
        return f"MalformedInput: {exc}"
    if isinstance(result, tuple):
        g, labels = result
        return g.n, g.edge_u, g.edge_v, g.degrees, [str(x) for x in labels]
    return result


def assert_edge_list_matches_reference(text):
    assert _outcome(parse_edge_list, text) == _outcome(reference_parse_edge_list, text)


def assert_coloring_matches_reference(text, g, labels):
    assert _outcome(parse_coloring, text, g, labels) == \
        _outcome(reference_parse_coloring, text, g, str_labels(labels))


@contextmanager
def split_chars(chars):
    """Run with fileio._SPLIT_CHARS and fileio._INT_CHARS set to ``chars``,
    so small texts span several chunks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_SPLIT_CHARS", chars)
        mp.setattr(fileio, "_INT_CHARS", chars)
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


@st.composite
def int_texts(draw, width):
    """Lines of ``width`` integer tokens split by blanks and ended by LF or
    CRLF, some blank or commented: text the numpy reader takes.  Every
    other text also holds, at random places, tokens, blanks and line ends
    that the numpy reader must leave to the other one."""
    odd = draw(st.booleans())

    def pick(plain, other):
        return draw(st.sampled_from(plain * 4 + other if odd else plain))

    out = []
    for _ in range(draw(st.integers(0, 8))):
        k = pick([width] * 4 + [0], [1, width + 1])
        line = pick([" ", "\t"], ["  ", "\x0b", "\xa0"]).join(
            pick(["0", "1", "2", "5", "-4", "12"], _INT_LIKE) for _ in range(k))
        if draw(st.integers(0, 4)) == 0:
            line = pick([" ", "\t"], ["\x0c", "\u3000"]) + line + pick([" ", "\t"], ["\x1f"])
        if draw(st.integers(0, 8)) == 0:
            line += pick(["#", "# note", " #1 2 3"], ["#\x85", "#\r"])
        out.append(line + pick(["\n", "\r\n"], ["\r", "\x0c", "\x85", "\u2028"]))
    return "".join(out)


@given(st.one_of(token_texts(), lined_texts(2), int_texts(2)),
       st.sampled_from([1, 5, fileio._SPLIT_CHARS]))
@settings(max_examples=400, deadline=None)
def test_parse_edge_list_matches_reference(text, chars):
    with split_chars(chars):
        assert_edge_list_matches_reference(text)


_TRIANGLE_PLUS = "a b\nb c\nc a\n0 1\n"  # edge order: a b, b c, a c, 0 1


@given(st.one_of(coloring_texts(), lined_texts(3)), st.sampled_from([1, 5, fileio._SPLIT_CHARS]))
@settings(max_examples=300, deadline=None)
def test_parse_coloring_matches_reference_on_any_text(text, chars):
    for graph in (_TRIANGLE_PLUS, _INT_GRAPH):  # str labels, int64 labels
        g, labels = parse_edge_list(graph)
        with split_chars(chars):
            assert_coloring_matches_reference(text, g, labels)


_INT_GRAPH = "0 1\n1 2\n2 0\n5 1\n-4 12\n"  # edge order: 0 1, 1 2, 0 2, 1 5, -4 12


@st.composite
def int_colorings(draw):
    """_INT_GRAPH's edges in any order and orientation with a color each,
    at times with a line dropped, repeated or replaced by one of int_texts."""
    lines = []
    for u, v in draw(st.permutations([("0", "1"), ("1", "2"), ("0", "2"), ("1", "5"), ("-4", "12")])):
        if draw(st.booleans()):
            u, v = v, u
        lines.append(f"{u} {v} {draw(st.sampled_from(['0', '1', '3', '1' * 18] * 4 + _INT_LIKE))}")
    i = draw(st.integers(0, 4))
    edit = draw(st.sampled_from(["none"] * 4 + ["drop", "repeat", "replace"]))
    if edit == "drop":
        del lines[i]
    elif edit == "repeat":
        lines.append(lines[i])
    elif edit == "replace":
        lines[i] = draw(int_texts(3))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@given(st.one_of(int_texts(3), int_colorings()), st.sampled_from([1, 5, fileio._INT_CHARS]))
@settings(max_examples=300, deadline=None)
def test_parse_integer_coloring_matches_reference(text, chars):
    g, labels = parse_edge_list(_INT_GRAPH)
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


def int_path_reads(text, width):
    """Whether the numpy reader takes ``text`` (the others are read as labels)."""
    return fileio._int_lines_re(width).fullmatch(text) is not None


def _general_int_lines_re(width):
    """_int_lines_re without its writer-shaped first alternative."""
    line = (rf"[ \t]*+(?:{fileio._INT}(?:[ \t]++{fileio._INT}){{{width - 1}}}[ \t]*+)?+"
            rf"(?:#[^{fileio._EOL}]*+)?+")
    return re.compile(rf"(?:{line}\r?\n)*+{line}")


_GENERAL_INT_LINES = {w: _general_int_lines_re(w) for w in (2, 3)}

# Tokens, gaps and line ends near the integer pattern's edges: canonical
# and non-canonical integers, long tokens, runs of spaces and tabs, and
# every line end it must tell apart.  Writer-shaped pieces come first and
# most often, so many texts are accepted.
_INT_TOKENS = st.sampled_from(["0", "1", "7", "-3", "9" * 18, "-" + "1" * 18] * 8
                              + ["00", "-0", "+5", "-", "a", "9" * 19, ""])
_INT_GAPS = st.sampled_from([" "] * 20 + ["  ", "\t", " \t", "", "\x0c"])
_INT_ENDS = st.sampled_from(["\n"] * 20 + ["\r\n", "\r", "\x0c", " \n", "\t\n", " # x\n", "#\r\n", ""])


@st.composite
def int_line_texts(draw, width):
    """Up to 6 lines of mostly ``width`` tokens, each gap and line end drawn
    apart."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        k = draw(st.sampled_from([width] * 6 + [0, width - 1, width + 1]))
        line = draw(st.sampled_from(["", "", "", "", "", " ", "\t"]))
        for i in range(k):
            line += (draw(_INT_GAPS) if i else "") + draw(_INT_TOKENS)
        lines.append(line + draw(_INT_ENDS))
    return "".join(lines)


@given(st.sampled_from([2, 3]).flatmap(lambda w: st.tuples(int_line_texts(w), st.just(w))))
@settings(max_examples=1000, deadline=None)
def test_int_lines_accept_what_the_general_line_accepts(case):
    text, width = case
    # The writer-shaped alternative only saves the matcher work: a text is
    # accepted with it iff it is accepted without it.
    expected = _GENERAL_INT_LINES[width].fullmatch(text) is not None
    assert (fileio._int_lines_re(width).fullmatch(text) is not None) == expected


@pytest.mark.parametrize("text, numpy_reads", [
    ("", True), (" ", True), (" # ", True), ("# only\n# comments\n", True), ("\n\r\n", True),
    ("1 2\n2 3 # note\r\n", True), ("-7 0\n0 1000000000000000000", False),
    ("+5 1", False), ("1 " + "9" * 20, False), ("1 " + "9" * 19, False), ("007 7", False),
    ("-0 0", False), ("1\x0c2", False), ("1 2\x0c3 4", False), ("1 2\x853 4", False),
    ("1 2\u20283 4", False), ("1 2\r3 4", False), ("1 2\r", False), ("1\x0b2", False),
    ("1 2#\x853 4", False), ("1 2\n2 1\n", True), ("3 3", True), ("1 2 3", False),
    ("0 1000000", True),  # too wide a value range: read as labels after the check
])
def test_edge_list_edge_cases_match_reference(text, numpy_reads):
    # np.fromstring reads a blank text as [0], saturates a 20-digit token and
    # accepts '+5'; such texts must still read as the line-by-line reference.
    assert int_path_reads(text, 2) == numpy_reads
    assert_edge_list_matches_reference(text)


_INT_COLORING = "0 1 1\n1 2 2\n0 2 3\n1 5 4\n-4 12 1\n"  # _INT_GRAPH's edges, in order


@pytest.mark.parametrize("text", [
    _INT_COLORING, "", " ", " # ", "# only\n",
    "12 -4 1\n5 1 4\n0 1 1\n2 0 3\n1 2 2\n",  # reordered, endpoints swapped
    _INT_COLORING.replace("1 5 4", "1 5 +4"), _INT_COLORING.replace("1 5 4", "1 5 " + "9" * 20),
    _INT_COLORING.replace("1 5 4", "1 5 -4"), _INT_COLORING.replace("1 5 4", "1 5 -0"),
    _INT_COLORING.replace("1 5 4", "1 5 " + "9" * 18), _INT_COLORING.replace("1 5 4", "1 7 4"),
    _INT_COLORING.replace("1 5 4", "5 5 4"), _INT_COLORING.replace("1 5 4", "0 1 4"),
    _INT_COLORING.replace("1 5 4", "1 4 4"),  # 4 is no label; 5 is the next one
    _INT_COLORING.replace("1 2 2", "0 5 2"),  # no edge; 1 2 has the next edge key
    _INT_COLORING.replace("1 5 4\n", ""), _INT_COLORING + "1 5 4\n",
    _INT_COLORING.replace("\n", "\r\n"), _INT_COLORING.replace("\n", "\r"),
    _INT_COLORING.replace("\n", "\x0c"), _INT_COLORING.replace("\n", "\x85"),
    _INT_COLORING.replace("\n", "\u2028"), _INT_COLORING.replace("\n", " # note\n"),
])
def test_integer_coloring_edge_cases_match_reference(text):
    g, labels = parse_edge_list(_INT_GRAPH)
    for table in (labels, str_labels(labels)):  # int64, str
        assert_coloring_matches_reference(text, g, table)


@pytest.mark.parametrize("labels", [
    ["0", "1", "2", "5", "-4", "12"],
    ["0", "1", "2", "005", "-4", "12"], ["0", "1", "2", "+5", "-4", "12"],
    ["0", "1", "2", "5", "-0", "12"], ["0", "1", "1", "5", "-4", "12"],
    ["0", "1", "2", "5 5", "-4", "12"], ["0", "1", "2", "", "-4", "12"],
    ["0", "1", "2", "5", "-4"], ["0", "1", "2", "5", "-4", "12", "13"], ["0", "1", "2", "5 -4", "12"],
    [0, 1, 2, 5, -4, 12],
    np.array([0, 1, 2, 5, -4, 12]), np.array([0, 1, 2, 5, -4]), np.array([0, 1, 2, 5, -4, 12, 13]),
    np.array([0, 1, 2, 5, -4, 12], dtype=np.int32), np.array(["0", "1", "2", "5", "-4", "12"]),
])
def test_integer_coloring_with_any_label_table_matches_reference(labels):
    # A non-canonical, repeated or blank label, or a table of the wrong
    # length, must not let a token name a vertex the reference would not.
    g, _ = parse_edge_list(_INT_GRAPH)
    for text in (_INT_COLORING, _INT_COLORING.replace("1 5 4", "1 005 4"),
                 "12 -4 1\n5 1 4\n0 1 1\n2 0 3\n1 2 2\n"):
        assert_coloring_matches_reference(text, g, labels)
    if len(labels) == g.n:
        assert_coloring_matches_reference(format_coloring(g, [1, 2, 3, 4, 5], labels), g, labels)


@pytest.mark.parametrize("text", ["0 1000000", "0 100000000000000000",
                                  "-100000000000000000 100000000000000000\n5 -5\n"])
def test_wide_label_values_get_no_value_table(text):
    # The value-indexed table would be 4 B per value in the range; such a
    # text is read as labels instead.
    (g, labels), _, peak = traced_memory(parse_edge_list, text)
    assert labels == text.split() and peak < 1 << 16


@pytest.mark.parametrize("text, int64", [
    ("0 1\n1 2\n", True), ("", True), ("-4 12 # note\r\n", True),
    ("0 1000000", False), ("007 7", False), ("a b", False), ("1 2\r3 4", False),
])
def test_integer_edge_lists_get_an_int64_label_table(text, int64):
    _, labels = parse_edge_list(text)
    if int64:
        assert isinstance(labels, np.ndarray) and labels.dtype == np.int64
    else:
        assert labels == text.split("#")[0].split()


def test_integer_labels_hold_8_bytes_per_vertex():
    # An integer text's labels are one int64 array: 8 B per vertex beyond
    # the graph itself (a list of str held ~62).
    text = format_edge_list(random_regular(50_000, 4, rng_for(5)))
    parse_edge_list("0 1\n")  # compile the cached patterns before tracing
    (g, labels), held, _ = traced_memory(parse_edge_list, text)
    graph_held = traced_memory(build_graph, np.stack(endpoint_views(g), axis=1), g.n)[1]
    assert g.n == 50_000 and held - graph_held <= 8 * g.n + 1024


def test_parsers_peak_memory():
    # m = 50k.  A file in edge order is read with no m-entry edge dict: ~15
    # B/edge here, against ~200 for the line loop.  parse_edge_list peaks no
    # higher than the line-by-line reference (57 and 79 against 114 B/edge
    # here).  Lines ended by \r alone are split in chunks too, not all at
    # once.  An integer file in any other line order is matched to edge ids
    # by a binary search, with no m-entry dict either: 76 B/edge.
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
    swapped = "".join(f"{v} {u} {c}\n" for u, v, c in map(str.split, coloring.splitlines()))
    colors, _, peak = traced_memory(parse_coloring, swapped, g, labels)
    assert colors == parse_coloring(coloring, g, labels) and peak < 100 * g.m
