"""Randomized (1+eps)*Delta edge coloring with validators, oracles, and a harness."""

from .chains import (
    AltPath,
    ChainFailure,
    Fan,
    FanResult,
    VizingChain,
    augment,
    flip_path,
    follow_path,
    make_fan,
    shift_fan,
    vizing_chain,
)
from .engine import (
    ColorOneOutcome,
    FlagReason,
    RunConfig,
    RunStats,
    color_one,
    edge_color,
    greedy_color,
    run_full,
    sample_palette,
    vizing_color,
)
from .errors import (
    AlreadyColored,
    ColoringFailed,
    EdgeColorError,
    EdgeNotBlank,
    EmptyPool,
    ImproperAssignment,
    ImproperAugment,
    ImproperFlip,
    ImproperShift,
    InsufficientColors,
    InvalidSpec,
    MalformedInput,
    NotColored,
    RejectionExhausted,
    TooLarge,
)
from .generators import GenSpec, generate
from .graph import Graph, build_graph
from .oracle import OracleResult, brute_chromatic_index, check_extension_exists
from .state import (
    BLANK,
    FLAGGED,
    ColoringState,
    ValidationReport,
    find_conflicts,
    flagged_subgraph,
    validate_proper,
)

__version__ = "0.1.0"

__all__ = [
    "AltPath", "AlreadyColored", "BLANK", "ChainFailure", "ColorOneOutcome",
    "ColoringFailed", "ColoringState", "EdgeColorError", "EdgeNotBlank",
    "EmptyPool", "FLAGGED", "Fan", "FanResult", "FlagReason",
    "GenSpec", "Graph", "ImproperAssignment", "ImproperAugment", "ImproperFlip",
    "ImproperShift", "InsufficientColors", "InvalidSpec", "MalformedInput",
    "NotColored", "OracleResult", "RejectionExhausted", "RunConfig", "RunStats",
    "TooLarge", "ValidationReport", "VizingChain", "augment",
    "brute_chromatic_index", "build_graph", "check_extension_exists",
    "color_one", "edge_color", "find_conflicts", "flagged_subgraph",
    "flip_path", "follow_path", "generate", "greedy_color", "make_fan",
    "run_full", "sample_palette", "shift_fan", "validate_proper",
    "vizing_chain", "vizing_color",
]
