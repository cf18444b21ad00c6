"""Exception hierarchy shared across the library.

Every error raised on purpose by this package derives from BicLabError,
so callers (and the CLI) can distinguish domain failures from bugs. Each
class carries the CLI exit code of its kind as ``exit_code``, which
library callers can read too.
"""

import functools

import numpy as np


class BicLabError(Exception):
    """Base class for all library-specific errors."""
    # 2 config or validation, 3 numerical failure, 4 degenerate manifold or gain mode
    exit_code = 3


class ValidationError(BicLabError, ValueError):
    """One or more parameter invariants are violated.

    Carries the full list of violation messages so a caller can report
    every problem at once instead of discovering them one at a time.
    """
    exit_code = 2

    def __init__(self, violations):
        self.violations = [str(v) for v in violations]
        super().__init__("; ".join(self.violations))


class DegenerateDressing(BicLabError):
    """Both the coupling and the detuning of the dressing laser vanish."""
    exit_code = 4


class ZeroLinewidth(BicLabError):
    """A bare linewidth required to be positive is zero or negative."""
    exit_code = 4


class ConvergenceFailure(BicLabError):
    """An iterative refinement did not reach its tolerance budget."""


class DegenerateVector(BicLabError):
    """The decay-free superposition is undefined (vanishing denominator)."""
    exit_code = 4


class SingularSolve(BicLabError):
    """The closed-form eigenvalue equation degenerates (lambda unconstrained)."""
    exit_code = 4


class NoPeak(BicLabError):
    """No interior spectral maximum exists in the requested window."""
    exit_code = 4


class MultiPeak(BicLabError):
    """More than one comparable spectral maximum exists in the window."""
    exit_code = 4


class GainMode(BicLabError):
    """An eigenvalue grows (Im E > 0): an unphysical regime, not a line."""
    exit_code = 4


class PoleHit(BicLabError):
    """A spectrum was requested exactly at a non-removable real pole."""
    exit_code = 4


class SingularEndpoint(BicLabError):
    """A principal-value singularity sits on or outside the integration range."""
    exit_code = 4


class DivergentTail(BicLabError):
    """A semi-infinite integral shows no sign of converging."""


class ZeroWidth(BicLabError):
    """A Feshbach width required to be positive vanishes."""
    exit_code = 4


class ZeroCross(BicLabError):
    """A Fano q parameter is requested for a vanishing cross coupling."""
    exit_code = 4


class GridCoverage(BicLabError):
    """A discretization grid misses a non-negligible part of a coupling."""
    exit_code = 2


class ProbeOnSpectrum(BicLabError):
    """A resolvent probe point sits (numerically) on the real spectrum."""
    exit_code = 4


class FixedPointDivergence(BicLabError):
    """The self-consistent pole search left its basin or exceeded its budget."""


def _numerical(fn):
    """The floating-point boundary of a public numerical entry point: numpy's
    float warnings are off inside fn, whose overflows end in checked
    BicLabErrors, and Python float arithmetic's OverflowError becomes a
    ConvergenceFailure naming fn.  Left bare on purpose: build, which checks
    nothing and returns its matrix, NaN included, and pv_integral,
    refine_peak and smoothed_kernel_sum, whose f is the caller's code."""
    @np.errstate(all="ignore")
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise ConvergenceFailure(f"{fn.__name__} overflowed: {exc}") from None
    return wrapper
