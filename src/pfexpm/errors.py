"""Exception hierarchy shared across the package."""


class PfexpmError(Exception):
    """Base class for all package-specific errors."""


class OrderOutOfRange(PfexpmError, ValueError):
    """Approximation order n is not an even integer in the supported range."""


class IterationLimitExceeded(PfexpmError, RuntimeError):
    """Root refinement failed to reach the residual target."""


class InvariantViolation(PfexpmError):
    """A validated structural invariant does not hold.

    `check` names the failed invariant; `detail` carries the offending values.
    """

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        super().__init__(f"{check}: {detail}" if detail else check)


class ParseError(PfexpmError, ValueError):
    """A table file or CLI argument is syntactically malformed."""


class PoleHit(PfexpmError, ZeroDivisionError):
    """Evaluation point coincides with (or underflows at) a pole."""


class ConditionViolated(PfexpmError, ValueError):
    """The digit-model applicability condition gamma > n*10^(1-D) fails."""


class SingularSystem(PfexpmError, RuntimeError):
    """A shifted linear system was reported singular by the factorization."""


class ConvergenceFailure(PfexpmError, RuntimeError):
    """The eigensolver did not converge."""


class Overflow(PfexpmError, OverflowError):
    """A value would overflow binary64: exp(c) of a requested shift, or a
    matrix's Gershgorin interval."""


class BadSpec(PfexpmError, ValueError):
    """A matrix or benchmark specification is inconsistent."""


class OrderTooSmallWarning(UserWarning):
    """The spectral interval of a run reaches above 0: no certified bound.

    Warned by an unshifted call whose interval (attached or Gershgorin) has a
    positive upper end, and by a fixed shift c below the interval's top.
    """
