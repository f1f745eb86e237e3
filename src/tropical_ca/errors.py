"""Exception hierarchy shared by all tropical_ca modules."""


class TropicalError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(TropicalError):
    """Operands have incompatible or invalid shapes."""


class KleeneStarDivergenceError(TropicalError):
    """The Kleene star does not exist: a positive-weight circuit is present."""


class NoCircuitError(TropicalError):
    """The precedence graph is acyclic, so no cycle mean is defined."""


class ReducibleMatrixError(TropicalError):
    """Spectral operation requested on a matrix whose graph is not strongly
    connected.  Reducible systems need policy-iteration style algorithms,
    which are outside the scope of this library."""


class ScalarError(TropicalError):
    """A value is not a scalar of this library (an int, a Fraction or EPS),
    or its JSON literal is malformed or not allowed in the mode."""


class CapExceededError(TropicalError):
    """An iteration cap was hit before the search finished.

    ``k_reached`` holds the last index examined so callers can report
    partial progress.
    """

    def __init__(self, message, k_reached=None):
        super().__init__(message)
        self.k_reached = k_reached


class NetworkError(TropicalError):
    """A network description is malformed or internally inconsistent."""


class RuleError(TropicalError):
    """A CA rule cannot be applied to the given network."""


class StateUndefinedError(TropicalError):
    """A state was queried where the computed run does not define it: an
    asynchronous state outside the time window covered by the contours, or
    a synchronous state past an open orbit trace."""


class ConfigError(TropicalError):
    """An experiment configuration file is malformed.  CLI exit code 2."""
