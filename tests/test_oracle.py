import pytest

from edgecolor import (
    ChainFailure,
    RunConfig,
    TooLarge,
    augment,
    brute_chromatic_index,
    build_graph,
    check_extension_exists,
    find_conflicts,
    new_state,
    run_full,
    vizing_chain,
)
from edgecolor.generators import complete, complete_bipartite, gnp

from helpers import blank_edges, random_partial_state, rng_for


def cycle(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def path(n):
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def test_known_chromatic_indices():
    assert brute_chromatic_index(complete(4)).chromatic_index == 3
    assert brute_chromatic_index(cycle(5)).chromatic_index == 3  # odd cycle
    assert brute_chromatic_index(cycle(6)).chromatic_index == 2
    assert brute_chromatic_index(path(4)).chromatic_index == 2
    assert brute_chromatic_index(build_graph([(0, 1)], 2)).chromatic_index == 1
    assert brute_chromatic_index(build_graph([], 3)).chromatic_index == 0
    assert brute_chromatic_index(complete_bipartite(3, 3)).chromatic_index == 3


def test_witness_is_proper_and_tight():
    for g in (complete(4), cycle(5), complete_bipartite(2, 4)):
        res = brute_chromatic_index(g)
        assert not find_conflicts(g, list(res.witness))
        assert all(1 <= c <= res.chromatic_index for c in res.witness)
        assert max(res.witness) == res.chromatic_index


def test_size_guard():
    with pytest.raises(TooLarge):
        brute_chromatic_index(complete(7))  # 21 edges
    st = new_state(complete(7), 7)
    with pytest.raises(TooLarge):
        check_extension_exists(st, 0)


def test_vizing_bound_on_random_tiny_graphs():
    # self-check of the search: the answer is always Delta or Delta + 1
    rng = rng_for(31)
    count = 0
    while count < 200:
        n = int(rng.integers(2, 8))
        g = gnp(n, float(rng.uniform(0.2, 0.9)), rng)
        if not g.edges or len(g.edges) > 16:
            continue
        res = brute_chromatic_index(g)
        assert g.max_degree <= res.chromatic_index <= g.max_degree + 1
        count += 1


def test_extension_blank_triangle():
    st = new_state(cycle(3), 3)
    assert check_extension_exists(st, 0)


def test_extension_triangle_two_colors():
    # with the other two edges colored, no 2-color completion exists
    st = new_state(cycle(3), 2)
    st.assign(1, 1)
    st.assign(2, 2)
    assert not check_extension_exists(st, 0)


def test_extension_path_two_colors():
    st = new_state(path(3), 2)
    st.assign(1, 1)
    assert check_extension_exists(st, 0)


def test_extension_matches_chain_success():
    # whenever a full-palette chain colors an edge, the oracle must agree an
    # extension existed; with q = Delta + 1 both always hold.
    rng = rng_for(63)
    done = 0
    while done < 80:
        n = int(rng.integers(3, 8))
        g = gnp(n, float(rng.uniform(0.3, 0.8)), rng)
        if not g.edges or len(g.edges) > 16:
            continue
        q = g.max_degree + 1
        st = random_partial_state(g, q, rng, fill=0.6, flag_frac=0.0)
        blanks = blank_edges(st)
        if not blanks:
            continue
        e = blanks[int(rng.integers(0, len(blanks)))]
        assert check_extension_exists(st, e)
        chain = vizing_chain(st, e, g.edge_u[e], list(range(1, q + 1)), cap=g.n)
        assert not isinstance(chain, ChainFailure)
        augment(st, chain)
        done += 1


def test_engine_colorings_verify_through_oracle_checker():
    rng = rng_for(8)
    fixtures = [complete(4), cycle(5), path(4), complete_bipartite(3, 3)]
    for g in fixtures:
        for eps in (0.2, 0.9):
            st, _ = run_full(g, RunConfig(epsilon=eps, seed=11))
            assert not find_conflicts(g, st.slot)
            assert all(c > 0 for c in st.slot)
