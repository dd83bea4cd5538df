"""Text formats: edge lists (`u v` per line) and colorings (`u v c` per line).

Vertex labels are arbitrary whitespace-free tokens, mapped to dense ids in
first-seen order; `#` starts a comment.  In coloring files, c = 0 marks an
uncolored or flagged edge.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedInput
from .graph import Graph, build_graph


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_edge_list(text: str) -> tuple[Graph, list[str]]:
    """Parse edge-list text; returns the graph and the id -> label table."""
    labels: list[str] = []
    index: dict[str, int] = {}
    ends: list[int] = []  # u0, v0, u1, v1, ...: no tuple per edge

    def vid(token: str) -> int:
        i = index.get(token)
        if i is None:
            i = len(labels)
            index[token] = i
            labels.append(token)
        return i

    for lineno, parts in _data_lines(text):
        if len(parts) != 2:
            raise MalformedInput(f"line {lineno}: expected 'u v', got {parts!r}")
        ends.append(vid(parts[0]))
        ends.append(vid(parts[1]))
    return build_graph(np.array(ends, dtype=np.int64).reshape(-1, 2), len(labels)), labels


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from None


def read_edge_list(path) -> tuple[Graph, list[str]]:
    return parse_edge_list(_read_text(path))


# Edges per string that _chunks yields: one %-format call each, so the
# per-edge work stays in C while the transient list stays small.
_CHUNK = 1 << 14


def _chunks(g: Graph, labels: list[str] | None, colors=None):
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

    def chunks():
        for lo in range(0, m, _CHUNK):
            hi = min(lo + _CHUNK, m)
            us, vs = g.edge_u[lo:hi], g.edge_v[lo:hi]
            flat = [0] * (width * (hi - lo))
            flat[0::width] = us if labels is None else [labels[u] for u in us]
            flat[1::width] = vs if labels is None else [labels[v] for v in vs]
            if colors is not None:
                flat[2::width] = [c if c > 0 else 0 for c in colors[lo:hi]]
            yield (line * (hi - lo)) % tuple(flat)

    return chunks()


def format_edge_list(g: Graph, labels: list[str] | None = None) -> str:
    return "".join(_chunks(g, labels))


def write_edge_list(path, g: Graph, labels: list[str] | None = None) -> None:
    chunks = _chunks(g, labels)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def format_coloring(g: Graph, colors, labels: list[str] | None = None) -> str:
    """One `u v c` line per edge in edge-id order; blank/flagged slots emit 0.

    ``colors`` is a sequence indexed by edge id; a length other than g.m
    raises ValueError."""
    return "".join(_chunks(g, labels, colors))


def write_coloring(path, g: Graph, colors, labels: list[str] | None = None) -> None:
    chunks = _chunks(g, labels, colors)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def parse_coloring(text: str, g: Graph, labels: list[str]) -> list[int]:
    """Read a coloring file back against a known graph.

    Labels must resolve through the graph's own table; every graph edge must
    appear exactly once.  Returns colors indexed by edge id.
    """
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


def read_coloring(path, g: Graph, labels: list[str]) -> list[int]:
    return parse_coloring(_read_text(path), g, labels)
