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
        "8b50037d28185bfc395ef2e567201ff933962f3139e73bbc817b6392106fe192",
        (0, True),
        False,
    ),
    # eps*D/6 = 1: the only attempt fails, then Vizing colors with D+1.
    "fallback-after-attempt-d12": (
        GenSpec("random_regular", n=200, d=12, seed=1),
        RunConfig(epsilon=0.5, seed=6, max_restarts=0),
        "d8d3a16b81819c9786ae514f6a709750133dc540446428078e6f7c32cb4052bb",
        (0, True),
        False,
    ),
    # eps*D/6 = 1: attempt 0 fails, attempt 1 succeeds.
    "restart-d12": (
        GenSpec("random_regular", n=200, d=12, seed=1),
        RunConfig(epsilon=0.5, seed=6),
        "1575b005bcb9f61514b7eefd9382e07533935f6c4ca704843ae1ff404e20b460",
        (1, False),
        False,
    ),
    # The paper's regime at default constants: first attempt succeeds.
    "inregime-d40": (
        GenSpec("random_regular", n=400, d=40, seed=2),
        RunConfig(epsilon=0.5, seed=2),
        "ff10187a30c75fba018c302957ee9c6485a4d4fd485cb600eef53c20f1d8979b",
        (0, False),
        False,
    ),
    # A small path cap (ell = 34) makes chains truncate and shift the blank edge.
    "shift-d60": (
        GenSpec("random_regular", n=400, d=60, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.005, seed=3),
        "9215879fcb91902e93104731ab28d370d91f9befd6837837540d7783190340c9",
        (0, False),
        True,
    ),
    # Shifting plus one restart: attempt 0 fails, attempt 1 succeeds.
    "shift-restart-d40": (
        GenSpec("random_regular", n=400, d=40, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.005, seed=3),
        "41d6fa006455f4c3a7e0159aa314a2ea8c54d5db5bbae5d989b4caeb844e9793",
        (1, False),
        True,
    ),
    # A small palette sample leaves the pool above the floor after round 1, so
    # shifted edges are colored in rounds 2 and 3; 432 flagged edges go to stage 2.
    "multiround-d60": (
        GenSpec("random_regular", n=200, d=60, seed=1),
        RunConfig(epsilon=0.9, kappa_const=1.0, ell_const=0.05, seed=3),
        "397bb7e63e62dd9ee12f9b1237e17189c1c9f3efc8c82f263615eadb546ab7b3",
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
