"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: parameter/domain problems exit 3,
numerical failures (non-convergence, overflow) exit 2.
"""


class ClutterStatsError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(ClutterStatsError, ValueError):
    """A parameter or argument lies outside its valid domain."""


class StripError(ParameterError):
    """Transform argument s lies outside the analyticity strip."""


class MomentDivergesError(StripError):
    """Requested classical moment does not exist (pole at s = n + 1)."""


class NotCompoundError(ParameterError):
    """decompose() called on a simple (non-compound) family."""


class InfeasibleCumulantsError(ParameterError):
    """Log-cumulants admit no positive parameter solution."""


class EmptySampleError(ParameterError):
    """Sample set has no values."""


class NonConvergenceError(ClutterStatsError, RuntimeError):
    """An iterative numerical routine failed to reach its tolerance."""


class NumericOverflowError(ClutterStatsError, OverflowError):
    """A computation overflowed double precision.

    Also raised by sampling when a draw is not representable as a positive
    finite double, as happens for gamma shapes of a few hundredths or less
    (a draw underflows to 0).
    """
