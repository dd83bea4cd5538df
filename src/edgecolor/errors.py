"""Exception types shared across the package."""


class EdgeColorError(Exception):
    """Base class for all package errors."""


class MalformedInput(EdgeColorError):
    """Input graph data is invalid (self-loop, duplicate edge, bad vertex id, bad file)."""


class AlreadyColored(EdgeColorError):
    """Operation requires a blank edge but the slot is colored or flagged."""


class NotColored(EdgeColorError):
    """Operation requires a colored edge but the slot is blank or flagged."""


class ImproperAssignment(EdgeColorError):
    """Assigning this color would break properness at an endpoint."""


class ImproperFlip(EdgeColorError):
    """Path flip would corrupt the coloring; the path does not match the state."""


class ImproperShift(EdgeColorError):
    """Fan shift would corrupt the coloring; the fan does not match the state."""


class ImproperAugment(EdgeColorError):
    """Internal contract violation while augmenting a chain or finishing a run."""


class EmptyPool(EdgeColorError):
    """Palette sampling was asked to draw from an empty color pool."""


class InsufficientColors(EdgeColorError):
    """The greedy colorer was given fewer colors than its guarantee requires."""


class ColoringFailed(EdgeColorError):
    """Stage 1 made the flagged subgraph too dense; the run must restart.

    Carries the stats of the failed run up to the abort; their delta_gstar
    is the offending flagged-subgraph degree.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class TooLarge(EdgeColorError):
    """Instance exceeds the exhaustive oracle's size guard."""


class InvalidSpec(EdgeColorError):
    """Graph generator parameters are out of range."""


class RejectionExhausted(EdgeColorError):
    """The pairing-model generator ran out of retries."""
