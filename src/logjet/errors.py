"""Exception hierarchy shared by all logjet modules."""


class LogjetError(Exception):
    """Base class for all errors raised by this package."""


class MonoidError(LogjetError):
    """Invalid monoid data (bad generators, group span, saturation)."""


class NoUnimodularSubsetError(MonoidError):
    """No subset of the generators forms a Z-basis of the ambient lattice."""


class ModeMismatchError(LogjetError):
    """Operation requires the other jet-variable mode (ordinary vs log)."""


class ExpressionSyntaxError(LogjetError):
    """Malformed polynomial expression; carries position and expectation."""

    def __init__(self, message, position, expected=None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class SupportError(LogjetError):
    """A polynomial has a monomial outside the chart's monoid."""


class ResourceLimitError(LogjetError):
    """A Budgets field or a MAX_* bound was exceeded; never a wrong answer."""


class PrimeTooSmallError(LogjetError):
    """Prime does not exceed the jet order or divides a generator coefficient."""


class TooManyVariablesError(LogjetError):
    """Input exceeds the brute-force variable bound of the F_p counter."""


class UnlocalizedLaurentError(LogjetError):
    """Laurent generators handed to the dimension engine without inversion."""


class CompleteIntersectionError(LogjetError):
    """Chart dimension does not match ambient rank minus equation count."""


class ChartParseError(LogjetError):
    """A chart file is malformed; message carries field context."""
