"""Seeded graph generators for tests and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, RejectionExhausted
from .graph import Graph, build_graph, endpoint_views, first_occurrences

MODELS = ("gnp", "random_regular", "complete", "complete_bipartite", "hypercube")


@dataclass(frozen=True)
class GenSpec:
    """A generator request: which model plus its parameters.

    Used by the CLI and the benchmark sweep; the per-model functions below
    can also be called directly.
    """

    model: str
    n: int = 0
    p: float = 0.0
    d: int = 0
    a: int = 0
    b: int = 0
    dim: int = 0
    seed: int = 0

    def check(self) -> None:
        if self.model not in MODELS:
            raise InvalidSpec(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.model == "gnp":
            if self.n < 0 or not 0.0 <= self.p <= 1.0:
                raise InvalidSpec(f"gnp requires n >= 0 and 0 <= p <= 1, got n={self.n} p={self.p}")
        elif self.model == "random_regular":
            if self.n < 0 or self.d < 0 or self.d >= max(self.n, 1) or (self.n * self.d) % 2:
                raise InvalidSpec(
                    f"random_regular requires 0 <= d < n and n*d even, got n={self.n} d={self.d}"
                )
        elif self.model == "complete":
            if self.n < 0:
                raise InvalidSpec(f"complete requires n >= 0, got {self.n}")
        elif self.model == "complete_bipartite":
            if self.a < 0 or self.b < 0:
                raise InvalidSpec(f"complete_bipartite requires a, b >= 0, got {self.a}, {self.b}")
        elif self.model == "hypercube":
            if not 1 <= self.dim <= 31:
                raise InvalidSpec(f"hypercube requires 1 <= dim <= 31, got {self.dim}")
        n, m = {"gnp": (self.n, 0), "random_regular": (self.n, self.n * self.d // 2),
                "complete": (self.n, self.n * (self.n - 1) // 2),
                "complete_bipartite": (self.a + self.b, self.a * self.b),
                "hypercube": (1 << self.dim, self.dim << self.dim >> 1)}[self.model]
        if n > 1 << 31:  # build_graph's bound: vertex and edge ids are int32
            raise InvalidSpec(f"{self.model} has {n} vertices; at most 2**31 fit")
        if m >= 1 << 31:
            raise InvalidSpec(f"{self.model} has {m} edges; at most 2**31 - 1 fit")


def generate(spec: GenSpec) -> Graph:
    """Build the graph described by ``spec``; deterministic given its seed."""
    spec.check()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.model == "gnp":
        return gnp(spec.n, spec.p, rng)
    if spec.model == "random_regular":
        return random_regular(spec.n, spec.d, rng)
    if spec.model == "complete":
        return complete(spec.n)
    if spec.model == "complete_bipartite":
        return complete_bipartite(spec.a, spec.b)
    return hypercube(spec.dim)


def gnp(n: int, p: float, rng) -> Graph:
    """Erdos-Renyi G(n, p), edges (u, v) with u < v in row order.

    The edge count k is drawn from Binomial(n(n-1)/2, p), then k distinct
    uniform positions of the upper triangle, so the time is O(n + k), not
    one draw per vertex pair.  A k of 2**31 or more (ids are int32) raises
    InvalidSpec.
    """
    pairs = n * (n - 1) // 2
    k = int(rng.binomial(pairs, p)) if pairs else 0
    if k >= 1 << 31:
        raise InvalidSpec(f"gnp drew {k} edges; at most 2**31 - 1 fit")
    pos = rng.choice(pairs, k, replace=False, shuffle=False)
    pos.sort()
    return build_graph(_triu_pairs(pos, n), n)


def _triu_pairs(pos: np.ndarray, n: int) -> np.ndarray:
    """The (u, v) at each position of the row-order upper triangle of K_n.

    Counted from the end, position y = N - 1 - pos lies in row
    u = n - 2 - r, the row of r + 1 pairs, where r(r + 1)/2 <= y <
    (r + 1)(r + 2)/2.  The float square root can put r one off at a row's
    edge; the integer comparisons after it fix that.
    """
    y = n * (n - 1) // 2 - 1 - pos
    r = ((np.sqrt(8.0 * y + 1) - 1) // 2).astype(np.int64)
    r -= r * (r + 1) // 2 > y
    r += (r + 1) * (r + 2) // 2 <= y
    u = n - 2 - r
    v = n - 1 - (y - r * (r + 1) // 2)
    return np.stack((u, v), axis=1)


def complete(n: int) -> Graph:
    """K_n, edges (u, v) for u < v in row order."""
    return build_graph(np.stack(np.triu_indices(n, 1), axis=1), n)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} on parts [0, a) and [a, a + b), edges (u, a + v) in row order."""
    u = np.repeat(np.arange(a, dtype=np.int64), b)
    v = np.tile(np.arange(a, a + b, dtype=np.int64), a)
    return build_graph(np.stack((u, v), axis=1), a + b)


def hypercube(dim: int) -> Graph:
    """Q_dim: v joins v ^ 2**bit, edges (v, w) with v < w by v, then bit."""
    n = 1 << dim
    v, bit = np.nonzero((np.arange(n)[:, None] >> np.arange(dim) & 1) == 0)  # w > v
    return build_graph(np.stack((v, v | 1 << bit), axis=1), n)


# Fresh shuffles random_regular makes before giving up.
_MAX_ATTEMPTS = 50


def random_regular(n: int, d: int, rng) -> Graph:
    """d-regular graph on n vertices via the pairing model.

    Stubs (d copies of each vertex) are shuffled and paired; pairs forming
    loops or repeated edges are rejected and their stubs re-shuffled into the
    next round.  A stuck attempt restarts from scratch; after
    ``_MAX_ATTEMPTS`` restarts the generator raises RejectionExhausted.
    Above d = (n - 1) / 2 the pairing rounds rarely clear their last
    repeats, so there the graph is the complement of a random
    (n - 1 - d)-regular one, in (u, v) order.
    """
    if d < 0 or d >= max(n, 1) or (n * d) % 2:
        raise InvalidSpec(f"random_regular requires 0 <= d < n and n*d even, got n={n} d={d}")
    if 2 * d > n - 1:
        return _complement(_pairing(n, n - 1 - d, rng))
    return _pairing(n, d, rng)


def _complement(g: Graph) -> Graph:
    """The graph on g's vertices whose edges are the pairs g lacks."""
    n = g.n
    u, v = np.triu_indices(n, 1)
    keep = np.ones(len(u), dtype=bool)
    a, b = (ends.astype(np.int64) for ends in endpoint_views(g))
    keep[a * (2 * n - a - 1) // 2 + b - a - 1] = False  # (a, b)'s place in triu order
    return build_graph(np.stack((u[keep], v[keep]), axis=1), n)


def _pairing(n: int, d: int, rng) -> Graph:
    """random_regular's pairing model, for a spec it has checked."""
    if d == 0 or n == 0:
        return build_graph([], n)

    base = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(_MAX_ATTEMPTS):
        stubs = base.copy()
        rng.shuffle(stubs)
        accepted_u: list[np.ndarray] = []
        accepted_keys = np.empty(0, dtype=np.int64)  # sorted
        stalls = 0
        for _round in range(200):
            u = stubs[0::2]
            v = stubs[1::2]
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            keys = lo * n + hi
            ok = lo != hi
            # A key repeated within this round keeps its first pair.
            first, distinct = first_occurrences(keys, with_distinct=True)
            ok &= first
            if len(accepted_keys):
                # Later rounds hold few stubs: binary-search them in the
                # accepted keys instead of re-sorting all of those.
                at = np.searchsorted(accepted_keys, keys)
                ok &= accepted_keys[np.minimum(at, len(accepted_keys) - 1)] != keys
            if ok.any():
                accepted_u.append(np.stack([lo[ok], hi[ok]], axis=1))
                if len(accepted_keys):
                    new = np.sort(keys[ok])
                    accepted_keys = np.insert(accepted_keys, np.searchsorted(accepted_keys, new), new)
                else:
                    # All distinct keys but the loops', already sorted.
                    loops = np.unique(keys[lo == hi])
                    accepted_keys = np.delete(distinct, np.searchsorted(distinct, loops))
                stalls = 0
            else:
                stalls += 1
            bad = ~ok
            if not bad.any():
                pairs = np.concatenate(accepted_u)
                return build_graph(pairs, n)
            if stalls >= 5:
                break  # this attempt is stuck; restart with a fresh shuffle
            stubs = np.concatenate([u[bad], v[bad]])
            rng.shuffle(stubs)
    raise RejectionExhausted(
        f"could not realize a {d}-regular graph on {n} vertices in {_MAX_ATTEMPTS} attempts"
    )
