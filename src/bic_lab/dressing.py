"""Magnetic dressing of the two excited bound states.

A resonant magnetic field of Rabi frequency Omega_m and detuning Delta_m
mixes the bare excited levels into the dressed pair actually coupled by
the photoassociation lasers.  The mixing angle controls how the bare
spontaneous widths recombine.  The vacuum-induced coherence between the
dressed states is effective only when their splitting is comparable to
or smaller than the geometric mean of the bare widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDressing, ZeroLinewidth


def mixing_angle(omega_m: float, delta_m: float) -> float:
    """Rotation angle theta of the bare -> dressed basis change.

    theta = atan2(Omega_m, Delta_m) / 2, continuous through Delta_m = 0
    for Omega_m > 0 and odd in Omega_m.  Undefined when both arguments
    vanish (the two bare states are then exactly degenerate and any
    basis is as good as any other).
    """
    if omega_m == 0.0 and delta_m == 0.0:
        raise DegenerateDressing("Omega_m = Delta_m = 0 leaves the dressed basis undefined")
    return 0.5 * math.atan2(omega_m, delta_m)


def dressed_splitting(omega_m: float, delta_m: float) -> float:
    """Energy separation of the dressed pair, sqrt(Omega_m^2 + Delta_m^2)."""
    return math.hypot(omega_m, delta_m)


def vic_feasibility(omega_m: float, delta_m: float,
                    gamma1_bare: float, gamma2_bare: float) -> float:
    """Figure of merit splitting / sqrt(gamma1_bare * gamma2_bare), with
    splitting = dressed_splitting(Omega_m, Delta_m).

    Values of about 1 or below are favourable: the vacuum-induced cross
    damping between the two dressed states survives only when their
    spacing is comparable to or smaller than the geometric mean of the
    widths.  At values >> 1 the cross terms oscillate faster than they
    decay and the secular approximation drops them.
    """
    if gamma1_bare <= 0.0 or gamma2_bare <= 0.0:
        raise ZeroLinewidth(
            f"bare widths must be positive, got {gamma1_bare!r}, {gamma2_bare!r}")
    return dressed_splitting(omega_m, delta_m) / math.sqrt(gamma1_bare * gamma2_bare)


@dataclass(frozen=True)
class DressedPair:
    """Dressed-basis summary: angle, basis coefficients and splitting."""

    theta: float
    cos_theta: float
    sin_theta: float
    splitting: float
    feasibility: float | None = None


def dress(omega_m: float, delta_m: float,
          gamma1_bare: float | None = None,
          gamma2_bare: float | None = None) -> DressedPair:
    """Full dressing summary for one magnetic-field working point.

    The feasibility ratio (see vic_feasibility; about 1 or below is
    favourable) is only computed when both bare widths are supplied
    (it needs them to be positive).
    """
    theta = mixing_angle(omega_m, delta_m)
    feas = None
    if gamma1_bare is not None and gamma2_bare is not None:
        feas = vic_feasibility(omega_m, delta_m, gamma1_bare, gamma2_bare)
    return DressedPair(
        theta=theta,
        cos_theta=math.cos(theta),
        sin_theta=math.sin(theta),
        splitting=dressed_splitting(omega_m, delta_m),
        feasibility=feas,
    )
