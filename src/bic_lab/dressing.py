"""Magnetic dressing of the two excited bound states.

A resonant magnetic field of Rabi frequency Omega_m and detuning Delta_m
mixes the bare excited levels into the dressed pair actually coupled by
the photoassociation lasers.  The mixing angle controls how the bare
spontaneous widths recombine; ``dress`` summarizes one working point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDressing, ValidationError, ZeroWidth, _require_finite


@dataclass(frozen=True)
class DressedPair:
    """Dressed-basis summary: mixing angle, splitting and feasibility."""

    theta: float
    splitting: float
    feasibility: float | None = None


def dress(omega_m: float, delta_m: float,
          gamma1_bare: float | None = None,
          gamma2_bare: float | None = None) -> DressedPair:
    """Full dressing summary for one magnetic-field working point.

    The mixing angle of the bare -> dressed basis change is
    theta = atan2(Omega_m, Delta_m) / 2, continuous through Delta_m = 0
    for Omega_m > 0 and odd in Omega_m.  It is undefined when both
    arguments vanish (the two bare states are then exactly degenerate and
    any basis is as good as any other), which raises DegenerateDressing.
    The dressed pair is split by sqrt(Omega_m^2 + Delta_m^2).

    When both bare widths are supplied, which must then be positive
    (else ZeroWidth; one alone is a ValidationError), the feasibility is
    the figure of merit splitting / (sqrt(gamma1_bare) sqrt(gamma2_bare)),
    whose denominator never underflows to 0 (a ratio past the float
    range is inf).  Values of about 1 or below are favourable: the
    vacuum-induced cross damping between the two dressed states survives
    only when their spacing is comparable to or smaller than the geometric
    mean of the widths.  At values >> 1 the cross terms oscillate faster
    than they decay and the secular approximation drops them.  A non-finite input is a
    ValidationError naming it.
    """
    _require_finite(omega_m=omega_m, delta_m=delta_m)
    if omega_m == 0.0 and delta_m == 0.0:
        raise DegenerateDressing("Omega_m = Delta_m = 0 leaves the dressed basis undefined")
    theta = 0.5 * math.atan2(omega_m, delta_m)
    splitting = math.hypot(omega_m, delta_m)
    feas = None
    if (gamma1_bare is None) != (gamma2_bare is None):
        missing = "gamma1_bare" if gamma1_bare is None else "gamma2_bare"
        raise ValidationError([f"{missing} is missing: the feasibility needs both bare widths"])
    if gamma1_bare is not None:
        _require_finite(gamma1_bare=gamma1_bare, gamma2_bare=gamma2_bare)
        if gamma1_bare <= 0.0 or gamma2_bare <= 0.0:
            raise ZeroWidth(
                f"bare widths must be positive, got {gamma1_bare!r}, {gamma2_bare!r}")
        feas = splitting / (math.sqrt(gamma1_bare) * math.sqrt(gamma2_bare))
    return DressedPair(theta=theta, splitting=splitting, feasibility=feas)
