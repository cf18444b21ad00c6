"""Bundled benchmark parameter sets and their externally quoted targets.

Three reference scenarios (named fig3, fig4, fig5 after the source
figures they replicate) are shipped verbatim, including the quirks of
the quoted numbers:

* fig3: photoassociation spectrum with g2 deviated to 1.91 (2 for the
  exact bound state), no decay; plus the decay-restored variants.  The
  published text says g1 was deviated while the caption deviates g2;
  both variants are exposed.  The caption also quotes eta = 0.0101 for
  gamma = 0.01 although the exact coherence condition gives 0.01; both
  values are run.
* fig4: eta-deviation sweep at gamma = 1 with g1 deviated to 3.01
  (3 for the exact bound state) and rounded detunings 6.4/6.6.
* fig5: width-vs-eta curve for the same set with g1 = 3.

The quoted eigenvalues of fig4's E2, E3 violate the exact trace
identity sum(Im) = tr B and are therefore report-only, never targets.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .params import DimensionlessParams

FIG3_SHARED = dict(q1=-0.8, q2=-0.6, delta1=0.45, delta2=1.88, delta=0.1)
FIG4_SHARED = dict(q1=-0.8, q2=0.54, delta1=6.4, delta2=6.6, delta=0.1)


def fig3_params(deviate: str = "g2", gamma: float = 0.0,
                eta: float | None = None) -> DimensionlessParams:
    """The fig3 caption set.

    deviate: 'g2' (caption, g2=1.91) or 'g1' (text variant, g1 scaled by
    the same 4.5% to 3.82); the exact bound state has g1=4, g2=2.  gamma
    sets gamma1=gamma2; eta defaults to the exact coherence value
    sqrt(gamma1*gamma2).
    """
    if deviate == "g2":
        g1, g2 = 4.0, 1.91
    elif deviate == "g1":
        g1, g2 = 3.82, 2.0
    else:
        raise ValidationError([f"deviate must be 'g1' or 'g2', got {deviate!r}"])
    return DimensionlessParams(g1=g1, g2=g2, gamma1=gamma, gamma2=gamma,
                               eta=eta, **FIG3_SHARED)


def fig4_params() -> DimensionlessParams:
    """The fig4 caption set: gamma = eta = 1, g1 = 3.01."""
    return DimensionlessParams(g1=3.01, g2=2.0, gamma1=1.0, gamma2=1.0, eta=1.0, **FIG4_SHARED)


def fig5_params() -> DimensionlessParams:
    """The fig5 caption set: the fig4 geometry with g1 = 3 exactly."""
    return DimensionlessParams(g1=3.0, g2=2.0, gamma1=1.0, gamma2=1.0, eta=1.0, **FIG4_SHARED)


FIG4_ETA_LIST = (1.0, 0.999, 0.99, 0.9)

QUOTED = {
    "fig3": {
        "eigenvalues": (1.29 - 1e-4j, -0.538 - 6.459j, 1.571 - 0.450j),
        "vic_gamma": 0.01,
        "vic_eta_quoted": 0.0101,   # caption value; exact condition gives 0.01
        "vic_eta_exact": 0.01,
    },
    "fig4": {
        "e1": 6.763 - 1e-6j,
        # report-only: their imaginary parts sum to -16.01, but tr B = -8.01
        "e2": 6.051 - 7.182j,
        "e3": 0.227 - 8.828j,
        "widths": {1.0: 1e-6, 0.999: 2.0e-5, 0.99: 0.025, 0.9: 0.25},
        "im_e1": {0.999: -1e-3, 0.99: -1e-2, 0.9: -1e-1},
    },
    "fig5": {
        # the curve endpoints quoted in the fig4 panels
        "widths": {0.999: 2.0e-5, 0.99: 0.025, 0.9: 0.25},
    },
}


def fig5_eta_grid() -> np.ndarray:
    """The 41 etas of the fig5 width curve, evenly spaced over [0.9, 1]."""
    return np.linspace(0.9, 1.0, 41)
