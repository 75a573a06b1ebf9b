"""Exception types shared across the package."""


class EmbtreesError(Exception):
    """Base class for all package-specific errors."""


class DivisionByNonUnit(EmbtreesError):
    """Series division whose valuations cannot cancel."""


class NonUnitConstantTerm(EmbtreesError):
    """Square root of a series whose constant term is not 1."""


class VariableMismatch(EmbtreesError):
    """Polynomial operands declared over different variable lists."""


class SingularRoot(EmbtreesError):
    """Newton iteration started at a root where the derivative vanishes."""


class NoRootAtOrigin(EmbtreesError):
    """Newton iteration started at a value that is not a root at z=0."""


class DegenerateStepSet(EmbtreesError):
    """Step set without both a negative and a positive jump."""


class DegenerateWeights(EmbtreesError):
    """Weight vector outside the domain of the requested closed form."""


class DegenerateCharacteristic(EmbtreesError):
    """Characteristic equation without a downward offset: X = 0 solves it."""


class NoPowerSeriesBranch(EmbtreesError):
    """Neither root of the boundary quadratic yields a power series."""


class InsufficientPrecision(EmbtreesError):
    """A series input, or a result built from it, is known to fewer orders than requested."""


class SizeTooLarge(EmbtreesError):
    """Brute-force enumeration requested beyond its guard size."""


class NetworkDisabled(EmbtreesError):
    """Remote fetch attempted without the explicit network opt-in."""


class MalformedBFile(EmbtreesError):
    """Unparsable line in a sequence data file."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonIntegerCoefficients(EmbtreesError):
    """Sequence matching requested for a series with non-integer entries."""
