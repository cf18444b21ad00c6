"""Exception hierarchy shared across the library.

Every error raised on purpose by this package derives from BicLabError,
so callers (and the CLI) can distinguish domain failures from bugs.
"""

import functools


class BicLabError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(BicLabError, ValueError):
    """One or more parameter invariants are violated.

    Carries the full list of violation messages so a caller can report
    every problem at once instead of discovering them one at a time.
    """

    def __init__(self, violations):
        self.violations = [str(v) for v in violations]
        super().__init__("; ".join(self.violations))


class DegenerateDressing(BicLabError):
    """Both the coupling and the detuning of the dressing laser vanish."""


class ZeroLinewidth(BicLabError):
    """A bare linewidth required to be positive is zero or negative."""


class ConvergenceFailure(BicLabError):
    """An iterative refinement did not reach its tolerance budget."""


class DegenerateVector(BicLabError):
    """The decay-free superposition is undefined (vanishing denominator)."""


class SingularSolve(BicLabError):
    """The closed-form eigenvalue equation degenerates (lambda unconstrained)."""


class NoPeak(BicLabError):
    """No interior spectral maximum exists in the requested window."""


class MultiPeak(BicLabError):
    """More than one comparable spectral maximum exists in the window."""


class GainMode(BicLabError):
    """An eigenvalue grows (Im E > 0): an unphysical regime, not a line."""


class PoleHit(BicLabError):
    """A spectrum was requested exactly at a non-removable real pole."""


class SingularEndpoint(BicLabError):
    """A principal-value singularity sits on or outside the integration range."""


class DivergentTail(BicLabError):
    """A semi-infinite integral shows no sign of converging."""


class ZeroWidth(BicLabError):
    """A Feshbach width required to be positive vanishes."""


class ZeroCross(BicLabError):
    """A Fano q parameter is requested for a vanishing cross coupling."""


class GridCoverage(BicLabError):
    """A discretization grid misses a non-negligible part of a coupling."""


class ProbeOnSpectrum(BicLabError):
    """A resolvent probe point sits (numerically) on the real spectrum."""


class FixedPointDivergence(BicLabError):
    """The self-consistent pole search left its basin or exceeded its budget."""


def _overflow_is_convergence_failure(fn):
    """Re-raise an OverflowError from fn as ConvergenceFailure.

    Python float arithmetic (``x ** 2`` on a coupling value) raises where
    numpy would return inf, so an overflow is still a numerical failure.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise ConvergenceFailure(f"{fn.__name__} overflowed: {exc}") from None
    return wrapper
