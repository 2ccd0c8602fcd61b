"""Exception types raised across the package.

Everything derives from :class:`SwitchSDEError` so callers can catch the whole
family at once.  Validation-style errors additionally derive from
:class:`ValueError` to behave like ordinary argument errors.
"""

from __future__ import annotations


class SwitchSDEError(Exception):
    """Base class for all errors raised by switchsde."""


class NonSquareError(SwitchSDEError, ValueError):
    """Generator matrix is not square."""


class NegativeOffDiagonalError(SwitchSDEError, ValueError):
    """Generator matrix has a negative off-diagonal rate."""

    def __init__(self, i: int, j: int, value: float):
        self.i = i
        self.j = j
        self.value = value
        super().__init__(f"rate ({i}, {j}) is negative: {value}")


class RowSumNonzeroError(SwitchSDEError, ValueError):
    """A generator matrix row does not sum to zero."""

    def __init__(self, i: int, residual: float):
        self.i = i
        self.residual = residual
        super().__init__(f"row {i} sums to {residual}, expected 0")


class StateIndexError(SwitchSDEError, IndexError):
    """State index outside {1, ..., L}."""


class AbsorbingStateError(SwitchSDEError):
    """Operation undefined for a state with zero holding rate."""


class TimeOutOfRangeError(SwitchSDEError, ValueError):
    """Query time outside the valid interval."""


class NegativeTimeError(SwitchSDEError, ValueError):
    """Brownian path queried at a negative time."""


class ReversedIntervalError(SwitchSDEError, ValueError):
    """Increment requested over an interval with end before start."""


class InvalidParamsError(SwitchSDEError, ValueError):
    """Model or stepping parameters violate their invariants."""


class NonpositiveRemainingTimeError(SwitchSDEError, ValueError):
    """Step requested at or beyond the terminal time."""


class NonfiniteResultError(SwitchSDEError, ArithmeticError):
    """A one-step map produced NaN or infinity; the trajectory must abort."""


class RootNotFoundError(SwitchSDEError, ArithmeticError):
    """Implicit-map root solve failed to bracket or converge."""


class StepBudgetExceededError(SwitchSDEError):
    """Solver exceeded the N_max iteration cap for its mesh."""


class DegenerateGridError(SwitchSDEError, ValueError):
    """Convergence study grid has too few levels or is not decreasing."""


class AllTrajectoriesFailedError(SwitchSDEError):
    """Every trajectory in an ensemble aborted."""


class HistogramRangeError(SwitchSDEError, ValueError):
    """Study values span a range too small for their histogram's bins."""


class ConfigParseError(SwitchSDEError, ValueError):
    """Configuration file or flag could not be parsed."""


class ConfigValidationError(SwitchSDEError, ValueError):
    """Configuration parsed but violates a module precondition."""
