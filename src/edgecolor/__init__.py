"""Randomized (1+eps)*Delta edge coloring with validators, oracles, and a harness.

Names are imported from their modules on first use (PEP 562), so
``import edgecolor`` loads no submodule and each CLI command loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Home module of every exported name.
_HOMES = {
    "chains": (
        "AltPath", "ChainFailure", "Fan", "FanResult", "VizingChain", "augment", "flip_path",
        "follow_path", "make_fan", "shift_fan", "vizing_chain",
    ),
    "engine": (
        "ColorOneOutcome", "FlagReason", "RunConfig", "RunStats", "color_one", "edge_color",
        "greedy_color", "run_full", "sample_palette", "vizing_color",
    ),
    "errors": (
        "AlreadyColored", "ColoringFailed", "EdgeColorError", "EmptyPool",
        "ImproperAssignment", "ImproperAugment", "ImproperFlip", "ImproperShift",
        "InsufficientColors", "InvalidSpec", "MalformedInput", "NotColored",
        "RejectionExhausted", "TooLarge",
    ),
    "generators": ("GenSpec", "generate"),
    "graph": ("Graph", "build_graph"),
    "oracle": ("OracleResult", "brute_chromatic_index", "check_extension_exists"),
    "state": (
        "BLANK", "FLAGGED", "ColoringState", "ValidationReport", "find_conflicts",
        "validate_proper",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = {"bench", "chains", "cli", "engine", "errors", "fileio", "generators", "graph",
               "oracle", "state"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
