"""Mutable partial edge-coloring state with O(1) color and missing-color lookups.

An edge slot is one of:

* ``BLANK`` (0)        -- the edge is uncolored,
* ``FLAGGED`` (-1)     -- the edge was set aside for the second stage,
* a color ``c`` with 1 <= c <= q.

Per vertex x and color c, ``missing[x][c]`` holds the id of the unique
incident edge colored c, or -1 when no such edge exists (i.e. c is missing
at x).  This one table answers both per-vertex questions the colorer asks,
"is c missing at x" and "which edge holds c at x".  All single-edge
mutations are O(1); ``find_conflicts`` is the independent properness check,
and ``validate_proper`` takes its verdict from it, never from this table.

The table is one flat ``array("i")`` of n * (q + 1) entries, written by
numpy from the slots (``ColoringState(g, q)`` is ``from_slots`` over blank
slots).  A vertex's row is made only on first touch: ``missing`` is a dict
that cuts row x from the flat table the first time ``missing[x]`` is read,
and raises IndexError outside [0, n).  The chains that color what the
first-fit passes missed touch a share of the rows.  ``edge_id_table()``
reads the full table and makes no row.

A ColoringState has a single writer, and a read of ``missing`` is a write
too, since it can insert a row.  Distinct states may be driven from
different threads concurrently.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import AlreadyColored, ImproperAssignment, NotColored
from .graph import Graph, endpoint_views

BLANK = 0
FLAGGED = -1
NO_EDGE = -1

# Edges per scatter of ColoringState.from_slots.
_FILL_BLOCK = 1 << 14


class _RowsOnTouch(dict):
    """A state's ``missing``: vertex -> edge-id row, each row cut from the
    flat n * (q + 1) table the first time it is read.  From then on the
    row, not the flat table, holds that vertex's entries."""

    __slots__ = ("flat", "n", "width")

    def __init__(self, flat: array, n: int, width: int):
        self.flat = flat
        self.n = n
        self.width = width

    def __missing__(self, x):
        if not 0 <= x < self.n:
            raise IndexError(f"vertex {x} outside [0, {self.n})")
        w = self.width
        row = self[x] = self.flat[x * w:(x + 1) * w]
        return row


class ColoringState:
    __slots__ = ("graph", "q", "slot", "missing", "colored_count", "flagged_count")

    def __init__(self, graph: Graph, q: int):
        """Fresh all-blank state over ``graph`` with palette {1, ..., q}."""
        self._load(graph, q, array("i", [BLANK]) * graph.m)

    # -- basic queries -------------------------------------------------

    def is_missing(self, x: int, color: int) -> bool:
        return self.missing[x][color] < 0

    # -- O(1) mutations ------------------------------------------------

    def assign(self, e: int, color: int) -> None:
        """Color blank edge e with ``color``; both endpoint rows updated."""
        if self.slot[e] != BLANK:
            raise AlreadyColored(f"edge {e} is not blank (slot={self.slot[e]})")
        if not 1 <= color <= self.q:
            raise ImproperAssignment(f"color {color} outside palette [1, {self.q}]")
        g = self.graph
        u = g.edge_u[e]
        v = g.edge_v[e]
        mu = self.missing[u]
        mv = self.missing[v]
        if mu[color] >= 0 or mv[color] >= 0:
            raise ImproperAssignment(f"color {color} already present at an endpoint of edge {e}")
        self.slot[e] = color
        mu[color] = e
        mv[color] = e
        self.colored_count += 1

    def unassign(self, e: int) -> int:
        """Blank a colored edge and return its former color."""
        color = self.slot[e]
        if color <= 0:
            raise NotColored(f"edge {e} holds no color (slot={color})")
        g = self.graph
        u = g.edge_u[e]
        v = g.edge_v[e]
        self.slot[e] = BLANK
        self.missing[u][color] = NO_EDGE
        self.missing[v][color] = NO_EDGE
        self.colored_count -= 1
        return color

    def flag(self, e: int) -> None:
        """Set a blank edge aside for the second stage."""
        if self.slot[e] != BLANK:
            raise AlreadyColored(f"edge {e} is not blank (slot={self.slot[e]})")
        self.slot[e] = FLAGGED
        self.flagged_count += 1

    @classmethod
    def from_slots(cls, graph: Graph, q: int, slot: array) -> ColoringState:
        """State over ``graph`` with palette {1, ..., q} whose slot array is
        ``slot`` (kept, not copied), as the first-fit passes write it; the
        colored slots must be proper and at most q."""
        self = cls.__new__(cls)
        self._load(graph, q, slot)
        return self

    def _load(self, graph: Graph, q: int, slot: array) -> None:
        # The edge ids are scattered, _FILL_BLOCK edges at a time so no
        # temporary is the size of the graph, through a numpy view straight
        # into the flat table, so no second copy of it exists.
        if q < 1:
            raise ValueError(f"palette size must be >= 1, got {q}")
        self.graph = graph
        self.q = q
        self.slot = slot
        slots = np.frombuffer(slot, dtype=np.intc)
        eu, ev = endpoint_views(graph)
        width = q + 1
        flat = array("i", [NO_EDGE]) * (graph.n * width)
        table = np.frombuffer(flat, dtype=np.intc).reshape(graph.n, width)
        for lo in range(0, graph.m, _FILL_BLOCK):
            hi = min(lo + _FILL_BLOCK, graph.m)
            color = np.maximum(slots[lo:hi], 0)  # blank and flagged slots land in column 0
            ids = np.arange(lo, hi, dtype=np.intc)
            table[eu[lo:hi], color] = ids
            table[ev[lo:hi], color] = ids
        table[:, 0] = NO_EDGE
        self.missing = _RowsOnTouch(flat, graph.n, width)
        self.colored_count = int(np.count_nonzero(slots > 0))
        self.flagged_count = int(np.count_nonzero(slots == FLAGGED))

    # -- derived views ---------------------------------------------------

    def edge_id_table(self) -> np.ndarray:
        """The (n, q + 1) edge-id table as a numpy copy, the rows made so far
        laid over a copy of the flat table; makes no row."""
        shape = (self.graph.n, self.q + 1)
        miss = self.missing
        table = np.frombuffer(miss.flat, dtype=np.intc).reshape(shape).copy()
        if miss:
            at = np.fromiter(miss.keys(), dtype=np.intp, count=len(miss))
            table[at] = np.frombuffer(b"".join(miss.values()), dtype=np.intc).reshape(-1, shape[1])
        return table

    def flagged_edges(self) -> list[int]:
        return np.flatnonzero(np.asarray(self.slot) == FLAGGED).tolist()

    def max_color_used(self) -> int:
        return int(np.frombuffer(self.slot, dtype=np.intc).max(initial=0))


@dataclass
class ValidationReport:
    """Outcome of a full independent rescan of a ColoringState."""

    conflicts: list[tuple[int, int, int, int]] = field(default_factory=list)  # (e1, e2, vertex, color)
    table_errors: list[str] = field(default_factory=list)
    range_errors: list[str] = field(default_factory=list)
    colored_count: int = 0
    blank_count: int = 0
    flagged_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.conflicts and not self.table_errors and not self.range_errors

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATIONS"
        return (
            f"{status}: colored={self.colored_count} blank={self.blank_count} "
            f"flagged={self.flagged_count} conflicts={len(self.conflicts)} "
            f"table_errors={len(self.table_errors)} range_errors={len(self.range_errors)}"
        )


def find_conflicts(g: Graph, colors) -> list[tuple[int, int, int, int]]:
    """Every clash in a per-edge color sequence (values <= 0 are uncolored).

    Returns one (edge1, edge2, vertex, color) tuple per colored edge2 that
    meets a lower-id edge of the same color at vertex; edge1 is the lowest-id
    edge of that color there.  Tuples are ordered by (vertex, edge2).  Only
    the endpoint arrays and ``colors`` are read, never a ColoringState's
    tables, so this is the package's independent properness check.
    """
    c = np.asarray(colors, dtype=np.int64)
    e = np.flatnonzero(c > 0)
    eu, ev = endpoint_views(g)

    def ends():
        return np.concatenate((eu[e], ev[e]), dtype=np.int64)

    top = int(c.max(initial=0)) + 1
    if g.n * top < 1 << 62:
        # One int64 key per (vertex, color) row: a proper coloring costs one
        # plain sort, and the rows are ordered below only when two keys meet.
        key = ends()
        key *= top
        key.reshape(2, -1)[...] += c[e]
        key.sort()
        if not (key[1:] == key[:-1]).any():
            return []
        del key
    vertex = ends()
    edge = np.concatenate((e, e))
    color = c[edge]
    order = np.lexsort((edge, color, vertex))
    vertex, color, edge = vertex[order], color[order], edge[order]
    repeat = np.zeros(len(edge), dtype=bool)
    repeat[1:] = (vertex[1:] == vertex[:-1]) & (color[1:] == color[:-1])
    # Each run of equal (vertex, color) starts with its lowest-id edge.
    first = np.maximum.accumulate(np.where(repeat, 0, np.arange(len(edge))))
    at = np.flatnonzero(repeat)
    at = at[np.lexsort((edge[at], vertex[at]))]
    return list(zip(edge[first[at]].tolist(), edge[at].tolist(),
                    vertex[at].tolist(), color[at].tolist()))


def validate_proper(state: ColoringState) -> ValidationReport:
    """Full rescan of the slots and the edge-id table; the package's independent checker.

    The properness verdict is ``find_conflicts`` over the slot array, so a
    corrupted ``missing`` table cannot mask a conflict.  The table is then
    cross-checked against the slots in both directions.
    """
    g = state.graph
    q = state.q
    slot = np.asarray(state.slot, dtype=np.int64)
    report = ValidationReport(conflicts=find_conflicts(g, slot))
    report.colored_count = int(np.count_nonzero(slot > 0))
    report.blank_count = int(np.count_nonzero(slot == BLANK))
    report.flagged_count = int(np.count_nonzero(slot == FLAGGED))
    for e in np.flatnonzero((slot > q) | (slot < FLAGGED)).tolist():
        c = int(slot[e])
        if c > q:
            report.range_errors.append(f"edge {e} holds color {c} > q={q}")
        else:
            report.range_errors.append(f"edge {e} holds invalid slot value {c}")

    # The edge-id table the slots imply: lowest-id edge per (vertex, color <= q).
    colored = np.flatnonzero((slot > 0) & (slot <= q))
    expected = np.full((g.n, q + 1), len(slot), dtype=np.int64)
    for ends in endpoint_views(g):
        at = ends[colored]
        np.minimum.at(expected, (at, slot[colored]), colored)
    expected[expected == len(slot)] = NO_EDGE
    table = state.edge_id_table()
    for x, c in np.argwhere(table != expected).tolist():
        if expected[x, c] >= 0:
            report.table_errors.append(
                f"missing[{x}][{c}] = {table[x, c]}, expected edge {expected[x, c]}"
            )
        else:
            report.table_errors.append(
                f"missing[{x}][{c}] = {table[x, c]}, but no edge of color {c} is at vertex {x}"
            )

    if report.colored_count != state.colored_count:
        report.table_errors.append(
            f"colored_count={state.colored_count}, rescan found {report.colored_count}"
        )
    if report.flagged_count != state.flagged_count:
        report.table_errors.append(
            f"flagged_count={state.flagged_count}, rescan found {report.flagged_count}"
        )
    return report
