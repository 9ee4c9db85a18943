"""Exception hierarchy shared by all vlab modules."""


class VilenkinError(Exception):
    """Base class for all vlab errors."""


class RadixTooSmall(VilenkinError):
    """A generating radix is below 2."""


class CapacityExceeded(VilenkinError):
    """A group exceeds a capacity bound.

    Its scale table would pass ``group_core.CAPACITY``, its integer
    character phases 2^53, or its arrays physical memory (``group_core.check_memory``).
    """


class IndexOutOfRange(VilenkinError):
    """A frequency or summation index lies outside its admissible range."""


class RankOutOfRange(VilenkinError):
    """A cylinder rank lies outside 0..N."""


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
