"""Exception hierarchy shared by all vlab modules."""


class VilenkinError(Exception):
    """Base class for all vlab errors."""


class RadixTooSmall(VilenkinError):
    """A generating radix is below 2."""


class CapacityExceeded(VilenkinError):
    """The scale table would exceed the configured capacity bound."""


class IndexOutOfRange(VilenkinError):
    """A frequency or summation index lies outside its admissible range."""


class DigitOutOfRange(VilenkinError):
    """A digit vector violates its per-coordinate radix bound."""


class RankOutOfRange(VilenkinError):
    """A cylinder rank lies outside 0..N."""


class CoordinateOutOfRange(VilenkinError):
    """A coordinate index lies outside the truncation depth."""


class InvalidExponent(VilenkinError):
    """A quasi-norm exponent p is outside its admissible range."""


class ResolutionMismatch(VilenkinError):
    """Operands live on different radix sequences or resolutions."""


class ZeroTotalWeight(VilenkinError):
    """A weighted mean was requested with vanishing total weight Q_n."""


class InvalidWeight(VilenkinError):
    """A weight sequence or weight function violates its invariants."""


class DepthTooSmall(VilenkinError):
    """The radix sequence is too shallow for the requested construction."""


class DegenerateInput(VilenkinError):
    """An operation received an input it is undefined for (e.g. zero norm)."""


class ConfigError(VilenkinError):
    """A CLI flag or config file entry could not be interpreted."""
