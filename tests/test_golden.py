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
        RunConfig(epsilon=0.5, seed=117, max_restarts=0),
        "e43a50f0d82edb2134c579227b82e80001218e3e5f0db4e2276a7373f44aef47",
        (0, True),
        False,
    ),
    # eps*D/6 = 1: attempt 0 fails, attempt 1 succeeds.
    "restart-d12": (
        GenSpec("random_regular", n=200, d=12, seed=1),
        RunConfig(epsilon=0.5, seed=117),
        "471003e026dc4e4f2e273682fe2713612aeb7ab30cfc5597f52e006fc4f21e23",
        (1, False),
        False,
    ),
    # The paper's regime at default constants: first attempt succeeds.
    "inregime-d40": (
        GenSpec("random_regular", n=400, d=40, seed=2),
        RunConfig(epsilon=0.5, seed=2),
        "64ad27902daef0ef0ef41de40f4946ae8d2ac2d0d6c77c5753338a549aec24d3",
        (0, False),
        False,
    ),
    # A small path cap (ell = 34) makes chains truncate and shift the blank edge.
    "shift-d60": (
        GenSpec("random_regular", n=400, d=60, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.005, seed=3),
        "8e0f3102611d83b78bd99172fad5746207a038c41675e755b63f4fce47c08e41",
        (0, False),
        True,
    ),
    # Shifting plus one restart (ell = 17): attempt 0 fails, attempt 1 succeeds.
    "shift-restart-d40": (
        GenSpec("random_regular", n=400, d=40, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.003, seed=7),
        "c4662939455f36ea36fc8d0994ddbc5612bbedcdd9704c905b105e8ae8baffba",
        (1, False),
        True,
    ),
    # A small palette sample leaves the pool above the floor after round 1, so
    # shifted edges are colored in rounds 2 and 3; 354 flagged edges go to stage 2.
    "multiround-d60": (
        GenSpec("random_regular", n=200, d=60, seed=1),
        RunConfig(epsilon=0.9, kappa_const=1.0, ell_const=0.05, seed=3),
        "6c749780293fcdaa52c8c42e2911ff447be4856c1ead224896ef3c2afd7ecca6",
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
