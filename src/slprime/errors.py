"""Exception types shared across the toolkit.

Every error raised on a violated precondition derives from SlprimeError,
so callers (and the CLI) can catch one base class.
"""


class SlprimeError(Exception):
    pass


class NonMonotoneMesh(SlprimeError):
    """Breakpoints are not strictly increasing."""


class LengthMismatch(SlprimeError):
    """len(values) != len(breakpoints) - 1."""


class NonFiniteValue(SlprimeError):
    """A coefficient value or breakpoint is NaN/inf."""


class DomainMismatch(SlprimeError):
    """Two piecewise coefficients do not share the same interval."""


class OutOfDomain(SlprimeError):
    """Argument outside the documented domain of the operation."""


class NotRightDefinite(SlprimeError):
    """Coefficients violate s >= 0, r >= 0 (or s/r vanish identically at solve time)."""


class EigenvalueNotFound(SlprimeError):
    """Bracket expansion hit the lambda cap without attaining the target angle.

    For Atkinson-type problems this is a legitimate outcome: the spectrum
    can be finite, and the first missing index marks its end.
    """

    def __init__(self, message, index=None, cap=None):
        super().__init__(message)
        self.index = index
        self.cap = cap


class InsufficientData(SlprimeError):
    """Not enough eigenvalues/rows for the requested fit or report."""


class NoRoot(SlprimeError):
    """The nonlinear parameter map has no root on the principal branch."""


class LimitTooLarge(SlprimeError):
    """Sieve limit beyond the supported range."""


class EpsilonOutOfRange(SlprimeError):
    """Series exponent offset must satisfy 0 < epsilon < 1/2."""


class DegenerateModulus(SlprimeError):
    """Max modulus never exceeded the noise floor; no order slope available."""


class BadConfig(SlprimeError):
    """A problem, solver or search configuration failed validation (field-precise message)."""
