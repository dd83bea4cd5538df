"""Immutable simple-graph representation with dense ids and stable edge ids."""

from __future__ import annotations

from array import array

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
        edge_u / edge_v: endpoint arrays (``array("i")``, 4 B per entry)
            with edge_u[e] < edge_v[e], indexed by edge id; the graph's only
            per-edge storage.  Python code indexes them like lists, and
            numpy reads them without a copy through ``endpoint_views``.
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


def endpoint_views(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``edge_u`` and ``edge_v`` as read-only int32 numpy views: no copy."""
    eu = np.frombuffer(g.edge_u, dtype=np.intc)
    ev = np.frombuffer(g.edge_v, dtype=np.intc)
    eu.flags.writeable = ev.flags.writeable = False
    return eu, ev


def first_occurrences(keys: np.ndarray, *, with_distinct: bool = False):
    """Boolean mask that is True at the first occurrence of each key; with
    ``with_distinct``, also the distinct keys in ascending order.

    Distinct keys cost one plain sort.  Only when some key repeats are its
    copies located and stably sorted to find which comes first.  The search
    allocates nothing the size of the key range: a bitmap on the low key
    bits, at least 8 slots per repeated key, lets few keys reach the binary
    search.
    """
    first = np.ones(len(keys), dtype=bool)
    ordered = np.sort(keys)
    same = ordered[1:] == ordered[:-1]
    repeated = ordered[1:][same]
    distinct = np.delete(ordered, np.flatnonzero(same) + 1) if with_distinct else None
    del ordered, same
    if len(repeated):
        repeated = np.unique(repeated)
        low = (8 << len(repeated).bit_length()) - 1
        hit = np.zeros(low + 1, dtype=bool)
        hit[repeated & low] = True
        maybe = np.flatnonzero(hit[keys & low])
        near = np.take(repeated, np.searchsorted(repeated, keys[maybe]), mode="clip")
        copies = maybe[near == keys[maybe]]
        first[copies] = False
        first[copies[np.unique(keys[copies], return_index=True)[1]]] = True
    return (first, distinct) if with_distinct else first


def build_graph(edge_pairs, n) -> Graph:
    """Validate an edge list and build a Graph on vertices 0..n-1.

    Rejects self-loops, duplicate edges (in either orientation), and
    out-of-range endpoints with MalformedInput naming the first offending
    edge in input order.  Valid input costs one sort of the edge keys; which
    fault an edge has is worked out only for the edge that is reported.
    """
    if n < 0:
        raise MalformedInput(f"vertex count must be non-negative, got {n}")
    if n > 1 << 31:
        raise MalformedInput(f"vertex count must be at most 2**31 (ids are int32), got {n}")
    try:
        arr = np.asarray(edge_pairs)
    except ValueError:
        raise MalformedInput("edge list must be pairs of integers") from None
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.int64)
    if arr.dtype.kind not in "iu" or arr.ndim != 2 or arr.shape[1] != 2:
        raise MalformedInput("edge list must be pairs of integers")
    # The ufuncs cast to int64 as they read: no int64 copy of the input.
    u = np.minimum(arr[:, 0], arr[:, 1], dtype=np.int64)
    v = np.maximum(arr[:, 0], arr[:, 1], dtype=np.int64)
    bad = ~first_occurrences(u * n + v)
    bad |= (u < 0) | (v >= n) | (u == v)
    if bad.any():
        a, b = arr[bad.argmax()].tolist()  # the first True
        if min(a, b) < 0 or max(a, b) >= n:
            raise MalformedInput(f"edge ({a}, {b}) has an endpoint outside [0, {n})")
        if a == b:
            raise MalformedInput(f"self-loop at vertex {a}")
        raise MalformedInput(f"duplicate edge ({min(a, b)}, {max(a, b)})")
    del arr, bad
    degrees = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    return Graph(n, _int_array(u), _int_array(v), degrees.tolist())


def _int_array(values: np.ndarray) -> array:
    """An ``array("i")`` holding ``values``, written through a numpy view of
    it, so no converted temporary is made."""
    out = array("i", [0]) * len(values)
    np.frombuffer(out, dtype=np.intc)[:] = values
    return out
