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
        RunConfig(epsilon=0.5, seed=126, max_restarts=0),
        "c4c5e341e975414aee4a0c879c2cd065a914165f469ad88574f3a9dfc068c84f",
        (0, True),
        False,
    ),
    # eps*D/6 = 1: attempt 0 fails, attempt 1 succeeds.
    "restart-d12": (
        GenSpec("random_regular", n=200, d=12, seed=1),
        RunConfig(epsilon=0.5, seed=126),
        "88a5468eeac9c1d196d7dea8c541782c17317cf41a5803a9128938578f66d3c9",
        (1, False),
        False,
    ),
    # The paper's regime at default constants: first attempt succeeds.
    "inregime-d40": (
        GenSpec("random_regular", n=400, d=40, seed=2),
        RunConfig(epsilon=0.5, seed=2),
        "2652b84bb051b5428cadcb23217b922c69ae8616d4863ccabd4271d9a7024c58",
        (0, False),
        False,
    ),
    # A small path cap (ell = 34) makes chains truncate and shift the blank edge.
    "shift-d60": (
        GenSpec("random_regular", n=400, d=60, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.005, seed=3),
        "de97bffb8cee67133be2fd3ad8a3297dedc59a0f65c4076cfce05a9b30d46ba3",
        (0, False),
        True,
    ),
    # Shifting plus one restart (ell = 17): attempt 0 fails, attempt 1 succeeds.
    "shift-restart-d40": (
        GenSpec("random_regular", n=400, d=40, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.003, seed=3),
        "d03141618df249f991f27278b491ed7f31554fdc8bfd837bfdc1f49a29bcc192",
        (1, False),
        True,
    ),
    # A small palette sample leaves the pool above the floor after round 1, so
    # shifted edges are colored in rounds 2 and 3; 334 flagged edges go to stage 2.
    "multiround-d60": (
        GenSpec("random_regular", n=200, d=60, seed=1),
        RunConfig(epsilon=0.9, kappa_const=1.0, ell_const=0.05, seed=3),
        "61df6735628e245a26b3f2f3dab0fead0142383fd9ea383fe50bc287d6204119",
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
