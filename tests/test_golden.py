"""Golden gate: fixed (graph, config, seed) runs must reproduce recorded outputs.

Each case hashes the coloring (``state.slot``) together with the timing-free
stats block of ``run_full``.  A change that alters the RNG stream or any
output on purpose must say so and update the hashes in the same change; any
other change must leave them as they are.
"""

import hashlib

import pytest

from edgecolor import GenSpec, RunConfig, generate, run_full, validate_proper

# name: (graph spec, run config, sha256, expected (restarts_used, fallback_used), shifts?)
CASES = {
    # eps*D/6 = 0.33 < 1: no stage-1 attempt is made, Vizing colors with D+1.
    "fallback-d4": (
        GenSpec("random_regular", n=300, d=4, seed=1),
        RunConfig(epsilon=0.5, seed=1),
        "8c01e743fa7df74c35b2fac08c940337552be714e70a6b8e22e3d032fc5d6858",
        (0, True),
        False,
    ),
    # eps*D/6 = 1: the only attempt fails, then Vizing colors with D+1.
    "fallback-after-attempt-d12": (
        GenSpec("random_regular", n=200, d=12, seed=1),
        RunConfig(epsilon=0.5, seed=135, max_restarts=0),
        "19469db30bd4b2065300946f1705b335654760ad3869aaf678bdff3d90320876",
        (0, True),
        False,
    ),
    # eps*D/6 = 1: attempt 0 fails, attempt 1 succeeds.
    "restart-d12": (
        GenSpec("random_regular", n=200, d=12, seed=1),
        RunConfig(epsilon=0.5, seed=135),
        "a41283680216a927c7e2787e57b77b88bc59b709c8a4e0200536f35f4fa3b23d",
        (1, False),
        False,
    ),
    # The paper's regime at default constants: first attempt succeeds.
    "inregime-d40": (
        GenSpec("random_regular", n=400, d=40, seed=2),
        RunConfig(epsilon=0.5, seed=2),
        "d7aa50018aa9d684a5efa1200cf2617248e5e940195ae8dfbd5a3da118e99334",
        (0, False),
        False,
    ),
    # A small path cap (ell = 34) makes chains truncate and shift the blank edge.
    "shift-d60": (
        GenSpec("random_regular", n=400, d=60, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.005, seed=3),
        "fcc27180d49537fa8144344a8b04475d1f7382d87e87d39fd94df9cd4d485ff5",
        (0, False),
        True,
    ),
    # Shifting plus one restart (ell = 17): attempt 0 fails, attempt 1 succeeds.
    "shift-restart-d40": (
        GenSpec("random_regular", n=400, d=40, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.003, seed=0),
        "d13ceee89425d4356c1a0afc3d4865ea656cd5c6e0a526f9b687419d465e0d6f",
        (1, False),
        True,
    ),
    # A small palette sample leaves the pool above the floor after round 1, so
    # shifted edges are colored in rounds 2 and 3; 216 flagged edges go to stage 2.
    "multiround-d60": (
        GenSpec("random_regular", n=200, d=60, seed=1),
        RunConfig(epsilon=0.9, kappa_const=1.0, ell_const=0.05, seed=3),
        "e9d0b4ad2f5826bcc49cd52e626155c04a46c7f5f66a2c8c2032aa1c1c395c14",
        (0, False),
        True,
    ),
}


def _digest(state, stats) -> str:
    text = ",".join(map(str, state.slot)) + "\n" + stats.to_text(include_timings=False)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    spec, cfg, expected, (restarts, fallback), shifts = CASES[name]
    state, stats = run_full(generate(spec), cfg)
    report = validate_proper(state)
    assert report.ok and report.blank_count == 0 and report.flagged_count == 0
    assert (stats.restarts_used, stats.fallback_used) == (restarts, fallback)
    assert (stats.shift_count > 0) == shifts
    assert stats.max_color_used <= cfg.total_colors(stats.delta)
    assert _digest(state, stats) == expected
