"""Parameter containers for the three-level effective model.

All model inputs are expressed in units of half the Feshbach width
hbar*Gamma_F/2, which makes every quantity below dimensionless:

* ``g1, g2``     laser-induced widths of the two dressed bound states,
* ``g12``        laser-induced coherence (defaults to sqrt(g1*g2), the
                 value it takes when both lasers share a single phase),
* ``q1, q2``     Fano asymmetry parameters of the two photoassociation lines,
* ``delta1, delta2``  shifted laser detunings,
* ``delta``      cross coupling of the two bound states via the continuum,
* ``gamma1, gamma2``  spontaneous-emission widths of the dressed states,
* ``eta``        vacuum-induced coherence (defaults to sqrt(gamma1*gamma2),
                 the maximal-interference value reached for parallel dipoles),
* ``inv_kca``    1/(k_c * a_s), inverse scattering length at the collision
                 wave number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ValidationError, _require_finite

#: the parameter names in canonical order (the order of as_dict)
PARAM_KEYS = (
    "g1", "g2", "g12", "q1", "q2",
    "delta1", "delta2", "delta",
    "gamma1", "gamma2", "eta", "inv_kca",
)

VALIDATION_MODES = ("permissive", "physical", "strict")

# absolute slack for the strict equalities and the physical inequalities
_EQ_TOL = 1e-12


@dataclass(frozen=True)
class DimensionlessParams:
    """Complete dimensionless input set for the effective Hamiltonian.

    ``g12`` and ``eta`` may be passed as ``None`` to request their
    coherent defaults sqrt(g1*g2) and sqrt(gamma1*gamma2).
    """

    g1: float
    g2: float
    q1: float
    q2: float
    delta1: float
    delta2: float
    delta: float
    gamma1: float = 0.0
    gamma2: float = 0.0
    g12: float | None = None
    eta: float | None = None
    inv_kca: float = 0.0

    def __post_init__(self):
        rest = {}  # a finite Python float is stored as given, a None coherence defaulted
        for name in _FIELD_NAMES:
            v = getattr(self, name)
            if not (type(v) is float and math.isfinite(v) or v is None and name in ("g12", "eta")):
                rest[name] = v
        if rest:  # through the library's one number rule
            for name, x in zip(rest, _require_finite(**rest)):
                object.__setattr__(self, name, x)
        if self.g1 < 0.0 or self.g2 < 0.0:
            raise ValidationError(
                f"laser-induced widths must be >= 0, got g1={self.g1}, g2={self.g2}")
        if self.gamma1 < 0.0 or self.gamma2 < 0.0:
            raise ValidationError(
                f"spontaneous widths must be >= 0, got gamma1={self.gamma1}, gamma2={self.gamma2}")
        if self.g12 is None:
            object.__setattr__(self, "g12", math.sqrt(self.g1 * self.g2))
        if self.eta is None:
            object.__setattr__(self, "eta", math.sqrt(self.gamma1 * self.gamma2))

    def replace(self, **changes) -> "DimensionlessParams":
        """Return a copy with the given fields replaced (re-validated).

        A coherence that currently sits at its coherent default follows
        its parent widths: replacing g1 or g2 re-derives g12, replacing
        gamma1 or gamma2 re-derives eta, unless the coherence itself is
        part of the change.
        """
        if ("g12" not in changes and ("g1" in changes or "g2" in changes)
                and self.g12 == math.sqrt(self.g1 * self.g2)):
            changes["g12"] = None
        if ("eta" not in changes and ("gamma1" in changes or "gamma2" in changes)
                and self.eta == math.sqrt(self.gamma1 * self.gamma2)):
            changes["eta"] = None
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in PARAM_KEYS}


#: the constructor's field names in declaration order
_FIELD_NAMES = tuple(f.name for f in fields(DimensionlessParams))


def _passive(params: DimensionlessParams) -> bool:
    """Whether B is negative semidefinite, so that no mode can grow: its
    Schur complement on the Feshbach entry is -[[gamma1, c], [c, gamma2]]
    with c = g12 + eta - sqrt(g1*g2), so exactly when |c| <= sqrt(gamma1*gamma2)
    (up to _EQ_TOL, which absorbs the rounding of a coherent set)."""
    return (abs(params.g12 + params.eta - math.sqrt(params.g1 * params.g2))
            <= math.sqrt(params.gamma1 * params.gamma2) + _EQ_TOL)


def validate(params: DimensionlessParams, mode: str = "physical") -> DimensionlessParams:
    """Check a parameter set against one of three strictness levels.

    permissive  only the constructor's finiteness and g, gamma >= 0.
    physical    additionally the Cauchy-Schwarz bounds
                |eta| <= sqrt(gamma1*gamma2) and |g12| <= sqrt(g1*g2),
                and passivity: B negative semidefinite, so no mode grows.
    strict      additionally the coherent equalities
                eta = sqrt(gamma1*gamma2) and g12 = sqrt(g1*g2).

    Returns the (unchanged) params on success; raises ValidationError
    listing every violated constraint otherwise.
    """
    if mode not in VALIDATION_MODES:
        raise ValidationError(
            f"unknown validation mode {mode!r}; expected one of {VALIDATION_MODES}")
    problems = []
    if mode in ("physical", "strict"):
        eta_max = math.sqrt(params.gamma1 * params.gamma2)
        g12_max = math.sqrt(params.g1 * params.g2)
        if abs(params.eta) > eta_max + _EQ_TOL:
            problems.append(
                f"eta={params.eta} exceeds sqrt(gamma1*gamma2)={eta_max}")
        if abs(params.g12) > g12_max + _EQ_TOL:
            problems.append(
                f"g12={params.g12} exceeds sqrt(g1*g2)={g12_max}")
        if not _passive(params):
            problems.append(
                f"g12={params.g12} and eta={params.eta} make a growing mode possible: "
                f"|g12 + eta - sqrt(g1*g2)| exceeds sqrt(gamma1*gamma2)={eta_max}")
        if mode == "strict":
            if abs(params.eta - eta_max) > _EQ_TOL:
                problems.append(
                    f"strict mode needs eta=sqrt(gamma1*gamma2)={eta_max}, got {params.eta}")
            if abs(params.g12 - g12_max) > _EQ_TOL:
                problems.append(
                    f"strict mode needs g12=sqrt(g1*g2)={g12_max}, got {params.g12}")
    if problems:
        raise ValidationError("; ".join(problems))
    return params
