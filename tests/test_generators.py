import subprocess
import sys
import time

import numpy as np
import pytest

from edgecolor import GenSpec, InvalidSpec, RejectionExhausted, generate
from edgecolor import generators
from edgecolor.generators import (
    complete,
    complete_bipartite,
    gnp,
    hypercube,
    random_regular,
)

from helpers import (
    reference_complete,
    reference_complete_bipartite,
    reference_hypercube,
    reference_random_regular,
    rng_for,
)


def test_complete_four():
    g = generate(GenSpec("complete", n=4))
    assert len(g.edges) == 6
    assert g.max_degree == 3


def test_gnp_zero_probability():
    g = generate(GenSpec("gnp", n=100, p=0.0))
    assert len(g.edges) == 0


def test_gnp_full_probability():
    g = gnp(10, 1.0, rng_for(0))
    assert len(g.edges) == 45


def test_gnp_deterministic():
    a = generate(GenSpec("gnp", n=50, p=0.3, seed=5))
    b = generate(GenSpec("gnp", n=50, p=0.3, seed=5))
    assert a.edges == b.edges
    c = generate(GenSpec("gnp", n=50, p=0.3, seed=6))
    assert a.edges != c.edges


@pytest.mark.parametrize("n, p, seed", [(2, 0.5, 1), (30, 0.3, 2), (200, 0.05, 3), (500, 0.9, 4)])
def test_gnp_simple_in_row_order(n, p, seed):
    g = generate(GenSpec("gnp", n=n, p=p, seed=seed))
    pairs = list(zip(g.edge_u, g.edge_v))
    assert all(u < v < n for u, v in pairs)  # no loops, in range
    assert pairs == sorted(set(pairs))  # no repeats, in row order


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64])
def test_gnp_extreme_probabilities(n):
    assert gnp(n, 0.0, rng_for(n)).m == 0
    full = gnp(n, 1.0, rng_for(n))
    assert full.n == n and full.edges == complete(n).edges


def test_gnp_edge_count_within_five_sigma():
    n, p = 20_000, 0.001
    pairs = n * (n - 1) // 2
    sigma = (pairs * p * (1 - p)) ** 0.5
    for seed in range(3):
        g = generate(GenSpec("gnp", n=n, p=p, seed=seed))
        assert abs(g.m - pairs * p) <= 5 * sigma, g.m


def test_gnp_refuses_two_to_the_31_edges(tmp_path):
    # 70,000 vertices at p = 1 hold 2,449,965,000 pairs: the spec passes its
    # check, and gnp refuses the drawn count before allocating anything.
    GenSpec("gnp", n=70_000, p=1.0).check()
    with pytest.raises(InvalidSpec, match="31"):
        gnp(70_000, 1.0, rng_for(0))
    out = tmp_path / "g.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "edgecolor", "gen", "--model", "gnp", "--n", "70000", "--p", "1",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stderr.startswith("error: "), proc.stderr
    assert proc.stderr.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("n", [2, 3, 1000, 65_537, 10**9 + 7, 2**31])
def test_gnp_positions_map_to_their_pairs(n):
    # Row u of the upper triangle starts at position u(2n - u - 1)/2.  The
    # float square root is checked against exact integer arithmetic at every
    # row edge near both ends and in the middle, up to 2**31 vertices.
    def start(u):
        return u * (2 * n - u - 1) // 2

    rows = sorted({u for u in (0, 1, 2, n // 3, n // 2, n - 4, n - 3, n - 2) if 0 <= u <= n - 2})
    pos = sorted({x for u in rows for x in (start(u) - 1, start(u), start(u) + 1, start(u + 1) - 1)
                  if 0 <= x < start(n - 1)})
    got = generators._triu_pairs(np.array(pos, dtype=np.int64), n)
    for x, (u, v) in zip(pos, got.tolist()):
        assert start(u) <= x < start(u + 1) and v == x - start(u) + u + 1, (x, u, v)


def test_random_regular_small():
    g = generate(GenSpec("random_regular", n=10, d=3, seed=1))
    assert len(g.edges) == 15
    assert all(d == 3 for d in g.degrees)
    again = generate(GenSpec("random_regular", n=10, d=3, seed=1))
    assert g.edges == again.edges


def test_random_regular_various_sizes():
    rng = rng_for(2)
    for n, d in ((4, 3), (50, 7), (200, 12), (64, 2)):
        if (n * d) % 2:
            continue
        g = random_regular(n, d, rng)
        assert all(deg == d for deg in g.degrees)


def test_random_regular_zero_degree():
    g = random_regular(5, 0, rng_for(0))
    assert len(g.edges) == 0


def test_hypercube():
    g = generate(GenSpec("hypercube", dim=4))
    assert g.n == 16
    assert g.max_degree == 4
    assert len(g.edges) == 32


def test_complete_bipartite():
    g = complete_bipartite(3, 4)
    assert len(g.edges) == 12
    assert g.max_degree == 4


@pytest.mark.parametrize("build, ref, args, n", [
    *((complete, reference_complete, (n,), n) for n in (0, 1, 2, 3, 7, 40)),
    *((complete_bipartite, reference_complete_bipartite, (a, b), a + b)
      for a, b in ((0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (4, 1), (3, 4), (9, 13))),
    *((hypercube, reference_hypercube, (dim,), 1 << dim) for dim in (1, 2, 3, 6, 9)),
])
def test_deterministic_families_match_the_tuple_loops(build, ref, args, n):
    # Built with numpy, each family keeps the loop's edges in the loop's
    # order, so gen writes the same bytes.
    g = build(*args)
    assert list(zip(g.edge_u, g.edge_v)) == ref(*args)
    assert g.n == n and len(g.degrees) == n


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        generate(GenSpec("nonsense"))
    with pytest.raises(InvalidSpec):
        generate(GenSpec("gnp", n=10, p=1.5))
    with pytest.raises(InvalidSpec):
        generate(GenSpec("random_regular", n=5, d=3))  # n*d odd
    with pytest.raises(InvalidSpec):
        generate(GenSpec("random_regular", n=4, d=4))  # d >= n
    with pytest.raises(InvalidSpec):
        generate(GenSpec("hypercube", dim=0))


@pytest.mark.parametrize("spec, fits", [
    (GenSpec("gnp", n=2**31, p=1e-12), True), (GenSpec("gnp", n=2**31 + 1, p=1e-12), False),
    (GenSpec("random_regular", n=2**31, d=1), True),
    (GenSpec("random_regular", n=2**31 + 2, d=1), False),
    (GenSpec("random_regular", n=2**16 + 2, d=2**16 - 2), True),  # 2**31 - 2 edges
    (GenSpec("random_regular", n=2**16 + 2, d=2**16), False),  # 2**31 + 2**16 edges
    (GenSpec("complete", n=2**16), True), (GenSpec("complete", n=2**16 + 1), False),
    (GenSpec("complete_bipartite", a=2**31 - 1, b=1), True),
    (GenSpec("complete_bipartite", a=2**31, b=1), False),
    (GenSpec("complete_bipartite", a=2**16, b=2**15 - 1), True),
    (GenSpec("complete_bipartite", a=2**16, b=2**15), False),
    (GenSpec("hypercube", dim=27), True), (GenSpec("hypercube", dim=28), False),
    (GenSpec("hypercube", dim=10**9), False),
])
def test_check_bounds_vertex_and_edge_counts(spec, fits):
    # build_graph takes at most 2**31 vertices and 2**31 - 1 edges (int32
    # ids); the check refuses larger specs before anything is allocated.
    if fits:
        spec.check()
    else:
        with pytest.raises(InvalidSpec, match="31"):
            spec.check()


# (n, d, seed, pairing rounds, restarts) of the reference on that seed.
_PAIRING_SHAPES = [
    (5000, 4, 3, 1, 0),      # every pair accepted in the first round
    (5000, 4, 4, 3, 0),      # a few repair rounds
    (500, 200, 2, 12, 0),    # >= 8 rounds in one attempt, 100k stubs
    (5000, 4, 0, 16, 2),     # stalls and restarts twice
    (60, 40, 5, 54, 2),      # near-complete: long repair rounds, two restarts
    (10, 3, 1, 2, 0),        # small
]


@pytest.mark.parametrize("n, d, seed, rounds, restarts", _PAIRING_SHAPES)
def test_random_regular_matches_isin_reference(n, d, seed, rounds, restarts):
    ref, ref_rounds, ref_restarts = reference_random_regular(n, d, rng_for(seed))
    assert (ref_rounds, ref_restarts) == (rounds, restarts)  # the shape covers what it says
    # The pairing model itself: above d = (n - 1) / 2 random_regular takes
    # the complement of a sparser graph instead, and below it calls this.
    g = generators._pairing(n, d, rng_for(seed))
    assert g.edge_u == ref.edge_u
    assert g.edge_v == ref.edge_v
    if 2 * d <= n - 1:
        again = random_regular(n, d, rng_for(seed))
        assert (again.edge_u, again.edge_v) == (g.edge_u, g.edge_v)


def test_random_regular_near_complete_is_a_complement():
    # The pairing model alone takes minutes on this spec and then raises
    # RejectionExhausted; its complement is the empty graph, so this is K1000.
    start = time.perf_counter()
    g = random_regular(1000, 999, rng_for(0))
    assert time.perf_counter() - start < 10
    k1000 = complete(1000)
    assert (g.edge_u, g.edge_v) == (k1000.edge_u, k1000.edge_v)
    for n, d, seed in ((30, 20, 1), (31, 16, 2), (4, 3, 0), (10, 5, 3)):
        g = random_regular(n, d, rng_for(seed))
        assert g.m == n * d // 2 and set(g.degrees) == {d}  # build_graph rejected any repeat
        sparse = random_regular(n, n - 1 - d, rng_for(seed))
        pairs = set(zip(g.edge_u, g.edge_v))
        assert pairs.isdisjoint(zip(sparse.edge_u, sparse.edge_v))
        assert len(pairs) + sparse.m == n * (n - 1) // 2
    at_half = random_regular(9, 4, rng_for(5))  # d = (n - 1) / 2 still pairs
    paired = generators._pairing(9, 4, rng_for(5))
    assert (at_half.edge_u, at_half.edge_v) == (paired.edge_u, paired.edge_v)


def test_random_regular_exhausted_message(monkeypatch):
    monkeypatch.setattr(generators, "_MAX_ATTEMPTS", 2)
    with pytest.raises(RejectionExhausted, match="could not realize a 4-regular graph on 5000 "
                                                 "vertices in 2 attempts"):
        random_regular(5000, 4, rng_for(0))  # restarts twice, see _PAIRING_SHAPES
