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
        RunConfig(epsilon=0.5, seed=1, max_restarts=0),
        "dca8836d10ae5b395c1fe2acd41737668198c82d5d6f7ed0134ae72a0063731f",
        (0, True),
        False,
    ),
    # eps*D/6 = 1: attempt 0 fails, attempt 1 succeeds.
    "restart-d12": (
        GenSpec("random_regular", n=200, d=12, seed=1),
        RunConfig(epsilon=0.5, seed=1),
        "f375386258aa4b5107603ae1a8227e058681533e0cc23fe5869830b02fd2397f",
        (1, False),
        False,
    ),
    # The paper's regime at default constants: first attempt succeeds.
    "inregime-d40": (
        GenSpec("random_regular", n=400, d=40, seed=2),
        RunConfig(epsilon=0.5, seed=2),
        "04e9523bafb332c4478b261db97c7548da41c46058b5505721e8b4ac7351126e",
        (0, False),
        False,
    ),
    # A small path cap makes chains truncate and shift the blank edge.
    "shift-d60": (
        GenSpec("random_regular", n=400, d=60, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.02, seed=3),
        "18fa0b940e288a4bc8333f60208b9b0e493cb3601905384082c168e92f56c515",
        (0, False),
        True,
    ),
    # Shifting plus one restart: attempt 0 fails, attempt 1 succeeds.
    "shift-restart-d40": (
        GenSpec("random_regular", n=400, d=40, seed=3),
        RunConfig(epsilon=0.2, ell_const=0.02, seed=3),
        "d2b4a17d20a30e9d05b9cd5819dc48ceba699fbe14c3ec77e01838f9d7e30ac6",
        (1, False),
        True,
    ),
    # A small palette sample leaves the pool above the floor after round 1, so
    # shifted edges are colored in rounds 2 and 3; 433 flagged edges go to stage 2.
    "multiround-d60": (
        GenSpec("random_regular", n=200, d=60, seed=1),
        RunConfig(epsilon=0.9, kappa_const=1.0, ell_const=0.05, seed=1),
        "15d19439060083178391cbd519cf824bcc618cbbc2e2be17afdeb47550cfa301",
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
