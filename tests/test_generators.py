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

from helpers import reference_random_regular, rng_for


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
    g = random_regular(n, d, rng_for(seed))
    assert g.edge_u == ref.edge_u
    assert g.edge_v == ref.edge_v


def test_random_regular_exhausted_message(monkeypatch):
    monkeypatch.setattr(generators, "_MAX_ATTEMPTS", 2)
    with pytest.raises(RejectionExhausted, match="could not realize a 4-regular graph on 5000 "
                                                 "vertices in 2 attempts"):
        random_regular(5000, 4, rng_for(0))  # restarts twice, see _PAIRING_SHAPES
