"""Immutable simple-graph representation with dense ids and stable edge ids."""

from __future__ import annotations

import numpy as np

from .errors import MalformedInput


class Graph:
    """A finite, undirected, simple graph.

    Vertices are dense 0-based integers; edge e joins ``edge_u[e]`` and
    ``edge_v[e]``.  Instances are immutable by convention: nothing in the
    package mutates a Graph after construction, so one instance may be
    shared freely across threads and runs.

    Attributes:
        n: vertex count.
        edge_u / edge_v: flat endpoint lists with edge_u[e] < edge_v[e],
            indexed by edge id; the graph's only per-edge storage.
        degrees: per-vertex degree.
        max_degree: maximum degree over all vertices (0 for edgeless graphs).
    """

    __slots__ = ("n", "degrees", "max_degree", "edge_u", "edge_v")

    def __init__(self, n, edge_u, edge_v, degrees):
        self.n = n
        self.degrees = degrees
        self.max_degree = max(degrees, default=0)
        self.edge_u = edge_u
        self.edge_v = edge_v

    @property
    def m(self) -> int:
        return len(self.edge_u)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """(u, v) per edge id, zipped anew on each access: O(m), so never use it per edge."""
        return list(zip(self.edge_u, self.edge_v))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, max_degree={self.max_degree})"


def build_graph(edge_pairs, n) -> Graph:
    """Validate an edge list and build a Graph on vertices 0..n-1.

    Rejects self-loops, duplicate edges (in either orientation), and
    out-of-range endpoints with MalformedInput naming the first offending
    edge in input order.
    """
    if n < 0:
        raise MalformedInput(f"vertex count must be non-negative, got {n}")
    try:
        arr = np.asarray(edge_pairs, dtype=np.int64)
    except (ValueError, TypeError, OverflowError):
        raise MalformedInput("edge list must be pairs of integers") from None
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise MalformedInput("edge list must be pairs of integers")
    u = arr.min(axis=1)
    v = arr.max(axis=1)
    outside = (u < 0) | (v >= n)
    loop = u == v
    keys = u * n + v
    duplicate = np.ones(len(keys), dtype=bool)
    duplicate[np.unique(keys, return_index=True)[1]] = False  # keep first occurrences
    bad = np.flatnonzero(outside | loop | duplicate)
    if len(bad):
        i = int(bad[0])
        a, b = arr[i].tolist()
        if outside[i]:
            raise MalformedInput(f"edge ({a}, {b}) has an endpoint outside [0, {n})")
        if loop[i]:
            raise MalformedInput(f"self-loop at vertex {a}")
        raise MalformedInput(f"duplicate edge ({min(a, b)}, {max(a, b)})")
    # Gather from one shared int object per vertex: no int object per endpoint.
    ids = np.array(range(n), dtype=object)
    edge_u = ids[u].tolist()
    edge_v = ids[v].tolist()
    return Graph(n, edge_u, edge_v, np.bincount(arr.ravel(), minlength=n).tolist())
