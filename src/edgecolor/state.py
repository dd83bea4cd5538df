"""Mutable partial edge-coloring state with O(1) color and missing-color lookups.

An edge slot is one of:

* ``BLANK`` (0)        -- the edge is uncolored,
* ``FLAGGED`` (-1)     -- the edge was set aside for the second stage,
* a color ``c`` with 1 <= c <= q.

Per vertex x and color c, ``missing[x][c]`` holds the id of the unique
incident edge colored c, or -1 when no such edge exists (i.e. c is missing
at x).  All single-edge mutations are O(1); ``validate_proper`` is the
independent full-rescan checker and deliberately never trusts these tables
for its properness verdict.

A ColoringState has a single writer; distinct states may be driven from
different threads concurrently.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import AlreadyColored, EdgeNotBlank, ImproperAssignment, NotColored
from .graph import Graph, build_graph

BLANK = 0
FLAGGED = -1
NO_EDGE = -1


class ColoringState:
    __slots__ = ("graph", "q", "slot", "missing", "present", "colored_count",
                 "flagged_count", "trace")

    def __init__(self, graph: Graph, q: int):
        """Fresh all-blank state over ``graph`` with palette {1, ..., q}."""
        if q < 1:
            raise ValueError(f"palette size must be >= 1, got {q}")
        self.graph = graph
        self.q = q
        # Machine-typed storage keeps values inline (no per-entry objects),
        # so lookups stay cheap even at benchmark sizes.  `slot` maps edge id
        # to BLANK, FLAGGED, or a color; `missing` maps (vertex, color) to
        # the incident edge id of that color, or -1.
        self.slot = array("i", [BLANK]) * len(graph.edges)
        blank_row = array("i", [NO_EDGE]) * (q + 1)
        self.missing = [blank_row[:] for _ in range(graph.n)]
        # Compact mirror of `missing` (1 where a color is present at the
        # vertex): probe loops scan these cache-resident rows, while the
        # edge-id table above answers the follow-up "which edge" lookups.
        self.present = [bytearray(q + 1) for _ in range(graph.n)]
        self.colored_count = 0
        self.flagged_count = 0
        # Optional event sink: callable(op: str, payload: tuple) or None.
        self.trace = None

    # -- basic queries -------------------------------------------------

    def color_of(self, e: int) -> int:
        """Raw slot value: BLANK, FLAGGED, or a color in [1, q]."""
        return self.slot[e]

    def missing_lookup(self, x: int, color: int) -> int | None:
        """The neighbor joined to x across ``color``, or None when missing. O(1)."""
        if not 1 <= color <= self.q:
            raise ValueError(f"color {color} outside palette [1, {self.q}]")
        eid = self.missing[x][color]
        if eid < 0:
            return None
        g = self.graph
        return g.edge_u[eid] + g.edge_v[eid] - x

    def is_missing(self, x: int, color: int) -> bool:
        return self.missing[x][color] < 0

    def is_happy(self, e: int) -> int | None:
        """Smallest color missing at both endpoints of blank edge e, or None."""
        if self.slot[e] != BLANK:
            raise EdgeNotBlank(f"edge {e} is not blank")
        g = self.graph
        mu = self.missing[g.edge_u[e]]
        mv = self.missing[g.edge_v[e]]
        for c in range(1, self.q + 1):
            if mu[c] < 0 and mv[c] < 0:
                return c
        return None

    # -- O(1) mutations ------------------------------------------------

    def assign(self, e: int, color: int) -> None:
        """Color blank edge e with ``color``; both endpoint tables updated."""
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
        self.present[u][color] = 1
        self.present[v][color] = 1
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
        self.present[u][color] = 0
        self.present[v][color] = 0
        self.colored_count -= 1
        return color

    def flag(self, e: int) -> None:
        """Set a blank edge aside for the second stage."""
        if self.slot[e] != BLANK:
            raise AlreadyColored(f"edge {e} is not blank (slot={self.slot[e]})")
        self.slot[e] = FLAGGED
        self.flagged_count += 1

    def _unflag(self, e: int) -> None:
        # Second-stage plumbing: return a flagged edge to the blank pool.
        if self.slot[e] != FLAGGED:
            raise NotColored(f"edge {e} is not flagged (slot={self.slot[e]})")
        self.slot[e] = BLANK
        self.flagged_count -= 1

    # -- derived views ---------------------------------------------------

    def colored_edges(self) -> list[int]:
        return [e for e, c in enumerate(self.slot) if c > 0]

    def flagged_edges(self) -> list[int]:
        return np.flatnonzero(np.asarray(self.slot) == FLAGGED).tolist()

    def max_color_used(self) -> int:
        return max((c for c in self.slot if c > 0), default=0)


def new_state(graph: Graph, q: int) -> ColoringState:
    """All-blank coloring state (alias for the constructor)."""
    return ColoringState(graph, q)


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


def validate_proper(state: ColoringState, graph: Graph | None = None) -> ValidationReport:
    """Full rescan of slots and tables; the package's independent checker.

    The properness verdict is computed from the slot array and adjacency
    lists alone, so corrupted missing tables cannot mask a conflict.  Table
    consistency is then cross-checked separately in both directions.
    """
    g = graph if graph is not None else state.graph
    report = ValidationReport()
    slot = state.slot
    q = state.q

    for e, c in enumerate(slot):
        if c > 0:
            report.colored_count += 1
            if c > q:
                report.range_errors.append(f"edge {e} holds color {c} > q={q}")
        elif c == BLANK:
            report.blank_count += 1
        elif c == FLAGGED:
            report.flagged_count += 1
        else:
            report.range_errors.append(f"edge {e} holds invalid slot value {c}")

    # Properness: scan each vertex's incident colored edges for repeats.
    for x in range(g.n):
        seen: dict[int, int] = {}
        for _, eid in g.adjacency[x]:
            c = slot[eid]
            if c > 0:
                if c in seen:
                    report.conflicts.append((seen[c], eid, x, c))
                else:
                    seen[c] = eid
        # Cross-check the missing table against the rescan.
        row = state.missing[x]
        for c, eid in seen.items():
            if c <= q and row[c] != eid:
                report.table_errors.append(
                    f"missing[{x}][{c}] = {row[c]}, expected edge {eid}"
                )
        recorded = sum(1 for c in range(1, q + 1) if row[c] >= 0)
        if recorded != len([c for c in seen if c <= q]):
            report.table_errors.append(
                f"missing[{x}] records {recorded} colors, rescan found {len(seen)}"
            )
        flags = state.present[x]
        for c in range(1, q + 1):
            if bool(flags[c]) != (row[c] >= 0):
                report.table_errors.append(
                    f"present[{x}][{c}] = {flags[c]} disagrees with the edge-id table"
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


def flagged_subgraph(state: ColoringState, graph: Graph | None = None) -> tuple[Graph, int]:
    """The subgraph induced by flagged edges, on the same vertex set, plus its max degree."""
    g = graph if graph is not None else state.graph
    pairs = [g.edges[e] for e in state.flagged_edges()]
    sub = build_graph(pairs, g.n)
    return sub, sub.max_degree
