"""Text formats: edge lists (`u v` per line) and colorings (`u v c` per line).

Vertex labels are arbitrary whitespace-free tokens, mapped to dense ids in
first-seen order; `#` starts a comment.  In coloring files, c = 0 marks an
uncolored or flagged edge.

Lines are what `str.splitlines` gives and tokens what `str.split` gives.
The readers give the same results and messages on every path:

* read_edge_list and read_coloring read a file as bytes and first try one
  exact shape check for what `edgecolor gen` and `edgecolor color` write:
  ``width`` canonical non-negative integers (as `str(int)` writes them,
  below 10**18) per line, one space apart, each line ended by a LF.  The
  check is a few whole-buffer C calls (_shaped_ints), and a text that
  passes is parsed by the same np.fromstring call.  Any other file, or a
  coloring whose label columns are not the graph's in edge-id order, is
  decoded as text-mode `open` would read it and takes the path of
  parse_edge_list and parse_coloring below.
* Integer texts are read by numpy.  A text qualifies when one regex match
  finds only canonical decimal tokens (at most 18 digits), spaces and tabs,
  LF or CRLF line ends and `#` comments.
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

The writers split on the same marker.  For vertex ids or an int64 label
table, numpy makes each label's text once and gathers each chunk of lines
into one record array, so no Python object is made per token.  A str table is
written by one %-format call per chunk: its labels are any UTF-8 and may
hold a NUL, the byte the integer writer pads with.  On either path each
color must be an integer that fits in int64.
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
    comments allowed), with LF or CRLF line ends: the text numpy reads."""
    line = rf"[ \t]*+(?:{_INT}(?:[ \t]++{_INT}){{{width - 1}}}[ \t]*+)?+(?:#[^{_EOL}]*+)?+"
    return re.compile(rf"(?:{line}\r?\n)*+{line}")


def _ints(text: str) -> np.ndarray:
    """The tokens, as one int64 array, of a text that an _int_lines_re
    pattern matched, or of a piece of one cut just after a LF."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    if text.isspace():
        return np.empty(0, dtype=np.int64)  # np.fromstring reads a blank text as [0]
    return np.fromstring(text, dtype=np.int64, sep=" ")


def _shaped_ints(b: bytes, width: int) -> np.ndarray | None:
    """The tokens of ``b`` as one int64 array if ``b`` is exactly what the
    writers emit: ``width`` canonical non-negative integers below 10**18
    per line, one space apart, each line ended by a LF.  None for any other
    text.  No temporary is larger than ``b``."""
    if not b:
        return np.empty(0, dtype=np.int64)
    if not b.endswith(b"\n"):  # else digits after it could stand in for an empty slot
        return None
    skeleton = b.translate(None, b"0123456789")  # any '-' stays and fails
    k, odd = divmod(len(skeleton), width)
    if odd or skeleton != (b" " * (width - 1) + b"\n") * k:
        return None
    del skeleton
    vals = np.fromstring(b, dtype=np.int64, sep=" ")
    # Each of the width * k separators ends one slot, and fromstring reads
    # each non-empty digit run as one value (saturating past int64), so
    # width * k values mean no slot is empty.  Counted up to 18, each
    # value's digits fill its run only if it has no leading zero and at
    # most 18 digits; the counts plus the separators must fill b.
    if len(vals) != width * k:
        return None
    filled = 2 * len(vals)  # a separator and a first digit per token
    for j in range(1, 18):
        wide = np.count_nonzero(vals >= 10**j)
        if not wide:
            break
        filled += wide
    return vals if filled == len(b) else None


def _int_edge_list(vals: np.ndarray | None) -> tuple[Graph, np.ndarray] | None:
    """The graph and its id -> label table (the distinct values, int64) of
    an integer edge list's tokens ``vals``, which this consumes; ids are
    given in first-seen order.  None for None, or when the values span too
    wide a range for a table indexed by value (at most 2 entries per token,
    plus 1024)."""
    if vals is None:
        return None
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
    del vals, rank, firsts
    seen += lo
    return build_graph(ids.reshape(-1, 2), len(seen)), seen


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
    parsed = _int_edge_list(_ints(text)) if _int_lines_re(2).fullmatch(text) is not None else None
    if parsed is not None:
        return parsed
    if _lines_re(2).fullmatch(text) is None:
        for lineno, parts in _data_lines(text):
            if len(parts) != 2:
                raise MalformedInput(f"line {lineno}: expected 'u v', got {parts!r}")
    index = defaultdict(count().__next__)  # label -> id, ids in first-seen order
    ends = array("q")  # u0, v0, u1, v1, ...: no tuple per edge
    ends.extend(map(index.__getitem__, chain.from_iterable(_token_chunks(text))))
    return build_graph(np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), len(index)), list(index)


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decode(data: bytes, path) -> str:
    """``data`` as text-mode `open` reads it: UTF-8, with universal newlines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_edge_list(path) -> tuple[Graph, np.ndarray | list[str]]:
    data = _read_bytes(path)
    parsed = _int_edge_list(_shaped_ints(data, 2))
    if parsed is not None:
        return parsed
    text = _decode(data, path)
    del data
    return parse_edge_list(text)


# Edges per string that the writers yield.  The integer writer makes no
# Python object per edge: a chunk is one record array of about 16 bytes per
# line at m=200k (~256 KiB), and the %-format writer's gathered labels are
# the table's own str objects.
_CHUNK = 1 << 14


def _texts(vals: np.ndarray, end: int) -> np.ndarray:
    """Each integer of ``vals`` (any int64 value) as one fixed-width bytes
    item (numpy void): its text as str(int) writes it, right-aligned and
    NUL-padded to the longest, then the byte ``end``."""
    neg = vals < 0
    mag = np.abs(vals.astype(np.int64, copy=False)).view(np.uint64)  # |-2**63| is 2**63 as uint64
    w = len(str(int(mag.max(initial=0)))) + bool(neg.any())
    rows = np.zeros((len(vals), w + 1), dtype=np.uint8)
    rows[:, w] = end
    for j in range(w - 1, -1, -1):
        q = mag // 10
        digit = mag - q * 10 + ord("0")
        rows[:, j] = digit if j == w - 1 else digit * (mag > 0)  # 0 prints as "0"; pads stay NUL
        mag = q
    at = np.flatnonzero(neg)
    rows[at, (rows[at] != 0).argmax(axis=1) - 1] = ord("-")  # left of the first digit
    return rows.view(np.dtype((np.void, w + 1))).reshape(-1)


def _color_column(colors, m: int) -> np.ndarray:
    """``colors`` as one integer array, a view of an array("i") or ndarray;
    ValueError for a length other than m or a color that is not an integer
    that fits in int64."""
    if len(colors) != m:
        raise ValueError(f"{len(colors)} colors for {m} edges")
    col = np.asarray(colors)
    if col.size == 0:
        return np.zeros(0, dtype=np.int64)
    # A list of ints that fit no one integer dtype becomes an object or a
    # float array; bools, floats and strs are not colors.
    if col.dtype.kind not in "iu" or (col.dtype.kind == "u" and col.max() >= 1 << 63):
        raise ValueError("a color is not an integer that fits in int64")
    return col


def _int_chunks(g: Graph, labels: np.ndarray | None, col: np.ndarray | None):
    """_chunks for vertex ids or an int64 label table: each label's text is
    made once, and each chunk gathers its texts into one record per line
    whose NUL pads one bytes.translate call drops."""
    eu, ev = endpoint_views(g)
    table = _texts(np.arange(g.n) if labels is None else labels, ord(" "))
    for lo in range(0, g.m, _CHUNK):
        hi = min(lo + _CHUNK, g.m)
        fields = [("u", table.dtype), ("v", table.dtype)]
        if col is not None:
            ctext = _texts(np.maximum(col[lo:hi], 0), ord("\n"))
            fields.append(("c", ctext.dtype))
        rec = np.empty(hi - lo, fields)
        np.take(table, eu[lo:hi], out=rec["u"])
        np.take(table, ev[lo:hi], out=rec["v"])
        if col is not None:
            rec["c"] = ctext
        rec.view(np.uint8).reshape(hi - lo, -1)[:, -1] = ord("\n")
        yield rec.tobytes().translate(None, b"\0").decode("ascii")


def _str_chunks(g: Graph, labels, col: np.ndarray | None):
    """_chunks for any other label table, by one %-format call per chunk:
    a str label may hold a NUL."""
    line = "%s %s\n" if col is None else "%s %s %s\n"
    width = 2 if col is None else 3
    if not isinstance(labels, np.ndarray):
        labels = np.array(labels, dtype=object)  # a "U" array would strip trailing NULs
    eu, ev = endpoint_views(g)
    for lo in range(0, g.m, _CHUNK):
        hi = min(lo + _CHUNK, g.m)
        flat = [0] * (width * (hi - lo))
        flat[0::width] = labels[eu[lo:hi]].tolist()
        flat[1::width] = labels[ev[lo:hi]].tolist()
        if col is not None:
            flat[2::width] = np.maximum(col[lo:hi], 0).tolist()
        yield (line * (hi - lo)) % tuple(flat)


def _chunks(g: Graph, labels: np.ndarray | list[str] | None, colors=None):
    """The `u v` lines, or with colors the `u v c` lines, of g in edge-id order,
    _CHUNK edges per string.  Labels default to the vertex ids; colors below
    1 (blank or flagged slots) print as 0.  The colors are checked here,
    before the generator starts, so write_coloring raises before it opens
    (and truncates) the file."""
    col = None if colors is None else _color_column(colors, g.m)
    if labels is None or isinstance(labels, np.ndarray) and labels.dtype == np.int64:
        return _int_chunks(g, labels, col)
    return _str_chunks(g, labels, col)


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
# its peak is the text and the colors it returns.
_INT_CHARS = 1 << 16


def _int_colors(data: bytes | str, lab: np.ndarray, g: Graph) -> np.ndarray | None:
    """The colors of an integer coloring text as one int64 array, given the
    int64 label table ``lab``; None unless its lines are the graph's edges,
    each once, with colors >= 0.  The text is parsed and checked in pieces
    of about _INT_CHARS characters, in edge-id order.  Each piece of a
    bytes text must pass _shaped_ints, and a bytes text out of edge-id
    order is refused.  A str text, which _int_lines_re(3) matched, goes to
    _reordered_colors if it is out of order."""
    if len(lab) != g.n:
        return None
    raw = isinstance(data, bytes)
    eu, ev = endpoint_views(g)
    colors = np.empty(g.m, dtype=np.int64)
    e = lo = 0
    while lo < len(data):
        hi = data.find(b"\n" if raw else "\n", lo + _INT_CHARS) + 1 or len(data)
        rows = _shaped_ints(data[lo:hi], 3) if raw else _ints(data[lo:hi])
        if rows is None:
            return None
        rows = rows.reshape(-1, 3)
        k = len(rows)
        if not (np.array_equal(rows[:, 0], lab[eu[e:e + k]])
                and np.array_equal(rows[:, 1], lab[ev[e:e + k]])):
            break
        if rows[:, 2].min(initial=0) < 0:
            return None
        colors[e:e + k] = rows[:, 2]
        e += k
        lo = hi
    else:
        return colors if e == g.m else None
    if raw:
        return None
    del colors, rows
    return _reordered_colors(_ints(data).reshape(-1, 3), lab, g)


def _reordered_colors(rows: np.ndarray, lab: np.ndarray, g: Graph) -> np.ndarray | None:
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
    return colors


def _coloring(text: str, g: Graph, labels: np.ndarray | list[str]) -> np.ndarray | list[int]:
    """parse_coloring's colors, as an int64 array where numpy read them."""
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


def _as_list(colors: np.ndarray | list[int]) -> list[int]:
    return colors.tolist() if isinstance(colors, np.ndarray) else colors


def parse_coloring(text: str, g: Graph, labels: np.ndarray | list[str]) -> list[int]:
    """Read a coloring file back against a known graph.

    Labels must resolve through the table parse_edge_list gave; every graph
    edge must appear exactly once.  Returns colors indexed by edge id.  An
    integer text read against an int64 table is read by numpy, chunk by
    chunk in edge-id order, else by binary search; any other file in
    edge-id order is read chunk by chunk as tokens, the rest line by line.
    """
    return _as_list(_coloring(text, g, labels))


def _read_coloring(path, g: Graph, labels: np.ndarray | list[str]) -> np.ndarray | list[int]:
    """read_coloring's colors, as an int64 array where numpy read them.  A
    file that _shaped_ints passes chunk by chunk, read against an int64
    table in edge-id order, is never decoded."""
    data = _read_bytes(path)
    if isinstance(labels, np.ndarray) and labels.dtype == np.int64:
        colors = _int_colors(data, labels, g)
        if colors is not None:
            return colors
    text = _decode(data, path)
    del data
    return _coloring(text, g, labels)


def read_colors(path, g: Graph, labels: np.ndarray | list[str]) -> np.ndarray:
    """The colors read_coloring reads, as one int64 array."""
    return np.asarray(_read_coloring(path, g, labels), dtype=np.int64)


def read_coloring(path, g: Graph, labels: np.ndarray | list[str]) -> list[int]:
    return _as_list(_read_coloring(path, g, labels))
