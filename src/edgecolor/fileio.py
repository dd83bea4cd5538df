"""Text formats: edge lists (`u v` per line) and colorings (`u v c` per line).

Vertex labels are arbitrary whitespace-free tokens, mapped to dense ids in
first-seen order; `#` starts a comment.  In coloring files, c = 0 marks an
uncolored or flagged edge.

Lines are what `str.splitlines` gives and tokens what `str.split` gives.
Two readers give the same results and messages:

* Integer texts, which are every file `edgecolor gen` and `edgecolor color`
  write, are read by numpy.  A text qualifies when one regex match finds
  only canonical decimal tokens (as `str(int)` writes them, at most 18
  digits), spaces and tabs, LF or CRLF line ends and `#` comments; the
  match tries each line first in the shape the writers give it (tokens
  split by one space, a LF end), which is cheaper to match.
  Edge-list labels are ranked in a value-indexed table and returned as
  their int64 values; a coloring read against such a table is matched to
  edge ids by comparing its label columns with the graph's, or, for lines
  in any other order, by a binary search of the edge keys.
* Any other text, an integer edge list whose values span too wide a range
  included, is checked with one regex match per reader and split in chunks,
  so the per-line and per-token work runs in C; its labels are str.

A text that fails its check is read line by line to name its first bad
line, and so is a coloring that holds a duplicate, a missing or an unknown
edge or a bad color, or whose non-integer lines are not in edge-id order.
"""

from __future__ import annotations

import re
from array import array
from collections import defaultdict
from functools import cache
from itertools import chain, count

import numpy as np

from .errors import MalformedInput
from .graph import Graph, build_graph, endpoint_views

# The line boundaries of str.splitlines, as a character-class body; each is
# also str.split whitespace.
_EOL = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_COMMENT = re.compile(rf"#[^{_EOL}]*")
_LINE_END = re.compile(rf"[{_EOL}]")


@cache
def _lines_re(width: int) -> re.Pattern:
    """A pattern that matches a whole text iff each of its lines, with any
    comment cut off, holds 0 or ``width`` tokens.  The possessive repeats
    keep the matcher from saving a backtrack point per line."""
    space = rf"[^\S{_EOL}]"  # whitespace that does not end a line
    token = r"[^\s#]++"
    line = rf"{space}*+(?:{token}(?:{space}++{token}){{{width - 1}}}{space}*+)?+(?:#[^{_EOL}]*+)?+"
    return re.compile(rf"(?:{line}(?:\r\n|[{_EOL}]))*+{line}")


# A canonical decimal int64 token: no '+', no leading zero, no '-0', and at
# most 18 digits, so it fits.  One token reads as one value and back.
_INT = r"(?:0|-?[1-9][0-9]{0,17}+)"


@cache
def _int_lines_re(width: int) -> re.Pattern:
    """A pattern that matches a whole text iff it is canonical integers
    split by spaces and tabs, ``width`` per line (blank lines and `#`
    comments allowed), with LF or CRLF line ends: the text numpy reads.

    Each line is first tried as ``width`` tokens split by single spaces and
    ended by a LF, the lines that gen and color write.  Any line that shape
    matches, the general line matches too, up to the same LF, so the
    texts accepted are the same; only the matcher's work per line drops."""
    plain = " ".join([_INT] * width) + r"\n"
    line = rf"[ \t]*+(?:{_INT}(?:[ \t]++{_INT}){{{width - 1}}}[ \t]*+)?+(?:#[^{_EOL}]*+)?+"
    return re.compile(rf"(?:{plain}|{line}\r?\n)*+{line}")


def _ints(text: str) -> np.ndarray:
    """The tokens, as one int64 array, of a text that an _int_lines_re
    pattern matched, or of a piece of one cut just after a LF."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    if text.isspace():
        return np.empty(0, dtype=np.int64)  # np.fromstring reads a blank text as [0]
    return np.fromstring(text, dtype=np.int64, sep=" ")


def _ranked(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Dense int32 ids in first-seen order for the int64 tokens ``vals``
    (which this consumes), and the id -> label table: the distinct values.
    None when their values span too wide a range for a table indexed by
    value (at most 2 entries per token, plus 1024)."""
    k = len(vals)
    lo, hi = (int(vals.min()), int(vals.max())) if k else (0, -1)
    span = hi - lo + 1
    if span > 2 * k + 1024 or k >= 1 << 31:
        return None
    vals -= lo
    first = np.full(span, k, dtype=np.intc)  # value -> position of its first token
    np.minimum.at(first, vals, np.arange(k, dtype=np.intc))
    firsts = np.sort(first[first < k])
    del first
    seen = vals[firsts]  # value - lo per id, in first-seen order
    rank = np.empty(span, dtype=np.intc)
    rank[seen] = np.arange(len(seen), dtype=np.intc)
    ids = rank[vals]
    del vals, rank
    seen += lo
    return ids, seen


# Characters per str.split call.  Only one chunk's tokens are alive at
# once, not the whole file's; small chunks also leave fewer half-used heap
# pages behind the labels that parse_edge_list keeps (256 KiB chunks raised
# `color`'s peak RSS by 2 MB at m=200k, n=100k).
_SPLIT_CHARS = 1 << 14


def _token_chunks(text: str):
    """The tokens of a text that _lines_re accepted, comments dropped, one
    list per chunk of about _SPLIT_CHARS characters cut just after a line
    break of any kind, so no line spans two chunks (the LF of a CRLF cut
    after its CR is only whitespace)."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    lo, end = 0, len(text)
    while lo < end:
        cut = _LINE_END.search(text, lo + _SPLIT_CHARS)
        hi = cut.end() if cut else end
        yield text[lo:hi].split()
        lo = hi


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_edge_list(text: str) -> tuple[Graph, np.ndarray | list[str]]:
    """Parse edge-list text; returns the graph and its id -> label table, int64 or str."""
    ranked = _ranked(_ints(text)) if _int_lines_re(2).fullmatch(text) is not None else None
    if ranked is not None:
        ids, labels = ranked
        return build_graph(ids.reshape(-1, 2), len(labels)), labels
    if _lines_re(2).fullmatch(text) is None:
        for lineno, parts in _data_lines(text):
            if len(parts) != 2:
                raise MalformedInput(f"line {lineno}: expected 'u v', got {parts!r}")
    index = defaultdict(count().__next__)  # label -> id, ids in first-seen order
    ends = array("q")  # u0, v0, u1, v1, ...: no tuple per edge
    ends.extend(map(index.__getitem__, chain.from_iterable(_token_chunks(text))))
    return build_graph(np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), len(index)), list(index)


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from None


def read_edge_list(path) -> tuple[Graph, np.ndarray | list[str]]:
    return parse_edge_list(_read_text(path))


# Edges per string that _chunks yields: one %-format call each, so the
# per-edge work stays in C while the transient list stays small.  An int64
# label table makes two new ints per edge, so with 16k edges `color`'s peak
# RSS rose by 0.6-1 MB at m=200k; 4k edges write as fast.
_CHUNK = 1 << 12


def _chunks(g: Graph, labels: np.ndarray | list[str] | None, colors=None):
    """The `u v` lines, or with colors the `u v c` lines, of g in edge-id order,
    _CHUNK edges per string.  Labels default to the vertex ids; colors below
    1 (blank or flagged slots) print as 0."""
    m = g.m
    # Checked before the generator starts, so write_coloring raises before
    # it opens (and truncates) the file.
    if colors is not None and len(colors) != m:
        raise ValueError(f"{len(colors)} colors for {m} edges")
    line = "%s %s\n" if colors is None else "%s %s %s\n"
    width = 2 if colors is None else 3
    if labels is not None and not isinstance(labels, np.ndarray):
        labels = np.array(labels, dtype=object)  # a "U" array would strip trailing NULs
    eu, ev = endpoint_views(g)

    def chunks():
        for lo in range(0, m, _CHUNK):
            hi = min(lo + _CHUNK, m)
            us, vs = eu[lo:hi], ev[lo:hi]
            if labels is not None:
                us, vs = labels[us], labels[vs]
            flat = [0] * (width * (hi - lo))
            flat[0::width] = us.tolist()
            flat[1::width] = vs.tolist()
            if colors is not None:
                flat[2::width] = [c if c > 0 else 0 for c in colors[lo:hi]]
            yield (line * (hi - lo)) % tuple(flat)

    return chunks()


def format_edge_list(g: Graph, labels: np.ndarray | list[str] | None = None) -> str:
    return "".join(_chunks(g, labels))


def write_edge_list(path, g: Graph, labels: np.ndarray | list[str] | None = None) -> None:
    chunks = _chunks(g, labels)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def format_coloring(g: Graph, colors, labels: np.ndarray | list[str] | None = None) -> str:
    """One `u v c` line per edge in edge-id order; blank/flagged slots emit 0.

    ``colors`` is a sequence indexed by edge id; a length other than g.m
    raises ValueError."""
    return "".join(_chunks(g, labels, colors))


def write_coloring(path, g: Graph, colors, labels: np.ndarray | list[str] | None = None) -> None:
    chunks = _chunks(g, labels, colors)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _colors_in_edge_order(text: str, g: Graph, labels: list[str]) -> list[int] | None:
    """The colors of a checked coloring text whose lines are the graph's
    edges in edge-id order, as `labels[edge_u[e]] labels[edge_v[e]] c` with
    0 <= c < 2**63; None for any other text, which parse_coloring's line
    loop then reads (and, if it is bad, names its first bad line)."""
    if not len(set(labels)) == len(labels) == g.n:
        return None  # a token might not name the vertex at its column's id
    label = labels.__getitem__
    colors: list[int] = []
    e = 0
    for toks in _token_chunks(text):
        k = len(toks) // 3
        if (toks[0::3] != list(map(label, g.edge_u[e:e + k]))
                or toks[1::3] != list(map(label, g.edge_v[e:e + k]))):
            return None
        try:
            colors.extend(map(int, toks[2::3]))
        except ValueError:
            return None
        e += k
    if e != g.m or (colors and (min(colors) < 0 or max(colors) >= 1 << 63)):
        return None
    return colors


# Characters per np.fromstring call of _int_colors (~5k coloring lines), so
# its peak is the text and the list of colors it returns.
_INT_CHARS = 1 << 16


def _int_colors(text: str, lab: np.ndarray, g: Graph) -> list[int] | None:
    """The colors of an integer coloring text, given the int64 label table
    ``lab``; None unless its lines are the graph's edges, each once, with
    colors >= 0.  A text in edge-id order is parsed and checked in pieces
    of about _INT_CHARS characters; any other goes to _reordered_colors."""
    if len(lab) != g.n:
        return None
    eu, ev = endpoint_views(g)
    colors: list[int] = []
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + _INT_CHARS) + 1 or len(text)
        rows = _ints(text[lo:hi]).reshape(-1, 3)
        e = len(colors)
        if not (np.array_equal(rows[:, 0], lab[eu[e:e + len(rows)]])
                and np.array_equal(rows[:, 1], lab[ev[e:e + len(rows)]])):
            break
        if rows[:, 2].min(initial=0) < 0:
            return None
        colors.extend(rows[:, 2].tolist())
        lo = hi
    else:
        return colors if len(colors) == g.m else None
    del colors, rows
    return _reordered_colors(_ints(text).reshape(-1, 3), lab, g)


def _reordered_colors(rows: np.ndarray, lab: np.ndarray, g: Graph) -> list[int] | None:
    """_int_colors for (k, 3) int64 ``rows`` in any line order and
    orientation: labels and edges are found by binary search."""
    m, n = g.m, g.n
    if len(rows) != m:
        return None
    by_value = np.argsort(lab)
    ends = np.searchsorted(lab[by_value], rows[:, :2])
    np.minimum(ends, n - 1, out=ends)
    if not np.array_equal(lab[by_value[ends]], rows[:, :2]):
        return None  # an unknown label
    ends = by_value[ends]
    ends.sort(axis=1)
    keys = ends[:, 0] * n + ends[:, 1]
    del ends
    eu, ev = endpoint_views(g)
    edge_keys = np.multiply(eu, n, dtype=np.int64)
    edge_keys += ev
    by_key = np.argsort(edge_keys)
    edge_keys = edge_keys[by_key]
    at = np.searchsorted(edge_keys, keys)
    np.minimum(at, m - 1, out=at)
    if not np.array_equal(edge_keys[at], keys):
        return None  # not an edge of the graph
    colors = np.full(m, -1, dtype=np.int64)
    colors[by_key[at]] = rows[:, 2]
    if colors.min() < 0:
        return None  # a negative color, or an edge listed twice and so another missing
    return colors.tolist()


def parse_coloring(text: str, g: Graph, labels: np.ndarray | list[str]) -> list[int]:
    """Read a coloring file back against a known graph.

    Labels must resolve through the table parse_edge_list gave; every graph
    edge must appear exactly once.  Returns colors indexed by edge id.  An
    integer text read against an int64 table is read by numpy, chunk by
    chunk in edge-id order, else by binary search; any other file in
    edge-id order is read chunk by chunk as tokens, the rest line by line.
    """
    if isinstance(labels, np.ndarray):
        if labels.dtype == np.int64 and _int_lines_re(3).fullmatch(text) is not None:
            colors = _int_colors(text, labels, g)
            if colors is not None:
                return colors
        labels = list(map(str, labels.tolist()))
    if _lines_re(3).fullmatch(text) is not None:
        colors = _colors_in_edge_order(text, g, labels)
        if colors is not None:
            return colors
    index = {lab: i for i, lab in enumerate(labels)}
    n = g.n
    edge_id = {u * n + v: e for e, (u, v) in enumerate(zip(g.edge_u, g.edge_v))}  # u < v
    colors = [None] * g.m
    for lineno, parts in _data_lines(text):
        if len(parts) != 3:
            raise MalformedInput(f"line {lineno}: expected 'u v c', got {parts!r}")
        tu, tv, tc = parts
        if tu not in index or tv not in index:
            raise MalformedInput(f"line {lineno}: unknown vertex label")
        u, v = index[tu], index[tv]
        if u > v:
            u, v = v, u
        e = edge_id.get(u * n + v)
        if e is None:
            raise MalformedInput(f"line {lineno}: edge {tu} {tv} is not in the graph")
        if colors[e] is not None:
            raise MalformedInput(f"line {lineno}: duplicate entry for edge {tu} {tv}")
        try:
            c = int(tc)
        except ValueError:
            raise MalformedInput(f"line {lineno}: bad color {tc!r}") from None
        if c < 0:
            raise MalformedInput(f"line {lineno}: negative color {c}")
        if c >= 1 << 63:
            raise MalformedInput(f"line {lineno}: color {c} does not fit in 64 bits")
        colors[e] = c
    missing = [e for e, c in enumerate(colors) if c is None]
    if missing:
        e = missing[0]
        first = f"{labels[g.edge_u[e]]} {labels[g.edge_v[e]]}"
        raise MalformedInput(f"{len(missing)} graph edges missing from the coloring, first: {first}")
    return colors


def read_coloring(path, g: Graph, labels: np.ndarray | list[str]) -> list[int]:
    return parse_coloring(_read_text(path), g, labels)
