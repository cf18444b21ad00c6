"""Exception hierarchy shared across the library.

Every error raised on purpose by this package derives from BicLabError,
so callers (and the CLI) can distinguish domain failures from bugs. Each
error is one message, and each class carries the CLI exit code of its kind
as ``exit_code``, which library callers can read too. A class exists only
where a caller tells it apart: ValidationError (2), ConvergenceFailure (3),
Degenerate (4), and the four line failures sweep_eta records by name,
NoPeak, MultiPeak, PoleHit and GainMode (4). ``_require_finite`` is the one
bare-number rule and ``_require_counts`` the one count rule, for the library
and the CLI's config reader alike.
"""

import functools
import numbers
import sys

import numpy as np


class BicLabError(Exception):
    """Base class for all library-specific errors."""
    # 2 config or validation, 3 numerical failure, 4 degenerate manifold or gain mode
    exit_code = 3


class ValidationError(BicLabError, ValueError):
    """A config or an input breaks an invariant: a parameter out of its
    range, a bare number that is not a finite real, or a discretization
    grid that misses a non-negligible part of a coupling (discretize).
    A site that finds several problems joins them with "; "."""
    exit_code = 2


class ConvergenceFailure(BicLabError):
    """A numerical computation did not converge, overflowed, or failed its own check."""


class Degenerate(BicLabError):
    """The construction is undefined at this point of the parameter manifold:
    dress at Omega_m = Delta_m = 0 or with a bare width <= 0; solve_bic at
    g1/g2 = gamma1/gamma2, where the decay-free direction is undefined;
    pv_integral with its pole E3 outside (0, upper); to_dimensionless and
    compare_pole_approximation at Gamma_F <= 0, and to_dimensionless at a
    q_n whose Gamma_nF vanishes; resolvent_check at a probe on the real axis."""
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


def _require_finite(**values) -> list[float]:
    """The keyword values as Python floats, in order; one ValidationError names each
    bool or non-real ("is not a real number") and each non-finite ("is not finite")."""
    out, problems = [], []
    for name, v in values.items():
        if type(v) is float and abs(v) <= sys.float_info.max:  # the common case
            out.append(v)
        # float and int first: the numbers.Real check alone is slow
        elif isinstance(v, bool) or not isinstance(v, (float, int, numbers.Real)):
            problems.append(f"{name}={v!r} is not a real number")
        # float(v) drops a numpy repr; float() of a huge int or Fraction overflows
        elif abs(x := v if isinstance(v, numbers.Rational) else float(v)) <= sys.float_info.max:
            out.append(float(x))
        else:
            problems.append(f"{name}={x!r} is not finite")
    if problems:
        raise ValidationError("; ".join(problems))
    return out


def _require_complex(**values) -> list[complex]:
    """The keyword values as Python complex numbers, in order, by _require_finite:
    a complex value is held to it part by part (``<name>.real``, ``<name>.imag``),
    any other value as it is, so a bool or a non-number is not a real number."""
    parts = {}
    for name, v in values.items():
        if isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real):
            parts[f"{name}.real"], parts[f"{name}.imag"] = v.real, v.imag
        else:
            parts[name], parts[f"{name}.imag"] = v, 0.0
    flat = _require_finite(**parts)
    return [complex(re, im) for re, im in zip(flat[::2], flat[1::2])]


def _require_counts(**values) -> None:
    """Raise one ValidationError naming every keyword value that is not a count:
    an integer (numbers.Integral) other than a bool, at most sys.maxsize (numpy's
    index range)."""
    problems = []
    for name, n in values.items():
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            problems.append(f"{name} must be an integer, got {n!r}")
        elif n > sys.maxsize:
            problems.append(f"{name} must be at most {sys.maxsize}, got {n!r}")
    if problems:
        raise ValidationError("; ".join(problems))
