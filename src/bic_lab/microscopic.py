"""From microscopic couplings to the dimensionless effective parameters.

The starting point is the rotating-frame Hamiltonian of two laser-dressed
bound states |e1>, |e2> and the Feshbach state |c> coupled to the
collisional continuum (couplings Lambda1(E), Lambda2(E), V3(E)) and to
two photon continua (vacuum couplings V1f, V2f at the emitted-photon
energies).  Eliminating the continua at the quasi-bound energy E3 gives

    shifts     E_sh_n = PV int |Lambda_n(E)|^2 / (E3 - E) dE   (same for V3)
    crossings  alpha  = PV int Lambda1 Lambda2 / (E3 - E) dE
               beta_n = PV int Lambda_n V3     / (E3 - E) dE
    widths     Gamma_n = 2 pi Lambda_n(E3)^2,  Gamma_F = 2 pi V3(E3)^2
    coherences gamma_LIC = 2 pi Lambda1(E3) Lambda2(E3)
               Gamma_nF  = 2 pi Lambda_n(E3) V3(E3)
    vacuum     gamma_n   = 4 pi V_nf^2
               gamma_VIC = 4 pi V1f V2f * dipole_overlap

with hbar = 1 (rates and energies identified).  Everything is evaluated
at E = E3 -- the pole approximation of the underlying derivation -- and
all vacuum-induced *shifts* are dropped, as in the source treatment.

The cross term carries the same 4 pi as the diagonal rates, so parallel
dipoles saturate Cauchy-Schwarz (gamma_VIC = sqrt(gamma1*gamma2), the
bound-state condition) and the photon bins of the discretized check
converge to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConvergenceFailure, Degenerate, ValidationError, _numerical,
                     _require_finite)
from .params import DimensionlessParams

_RTOL = 1e-10  # relative tolerance of every principal-value quadrature
#: bound on |integrand| x |range| of a subtracted PV piece.  QUADPACK's
#: 21-point sums, their absolute deviations and its interval error sums
#: reach a few times that product, and near the float range they break it:
#: quad of the constant 1e308 on [0, 1] returns NaN, and a difference
#: quotient of about 1e308 has killed the interpreter with SIGBUS
_PV_SUM_MAX = 2.0 ** 1020


class _OutOfRange(Exception):
    """A subtracted PV integrand beyond _PV_SUM_MAX per unit of its range."""


# ---------------------------------------------------------------------------
# coupling shapes


@dataclass(frozen=True)
class GaussianCoupling:
    """amplitude * exp(-(E - center)^2 / (2 width^2)), defined for E >= 0."""

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        _require_finite(amplitude=self.amplitude, center=self.center, width=self.width)
        if self.width <= 0.0:
            raise ValidationError(f"width must be positive, got {self.width!r}")
        try:
            2.0 * self.width ** 2   # the denominator of __call__
        except OverflowError:
            raise ValidationError(f"width must have a finite square, got {self.width!r}") from None

    def __call__(self, e):
        # a Python float (what quad passes) as a numpy scalar: no 0-d array
        e = np.float64(e) if type(e) is float else np.asarray(e, dtype=float)
        out = self.amplitude * np.exp(-((e - self.center) ** 2) / (2.0 * self.width ** 2))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class WignerCoupling:
    """amplitude * E^(1/4) * exp(-E/scale): threshold-law rise, decaying tail."""

    amplitude: float
    scale: float

    def __post_init__(self):
        _require_finite(amplitude=self.amplitude, scale=self.scale)
        if self.scale <= 0.0:
            raise ValidationError(f"scale must be positive, got {self.scale!r}")

    def __call__(self, e):
        e = np.float64(e) if type(e) is float else np.asarray(e, dtype=float)
        out = np.where(e > 0.0,
                       self.amplitude * np.abs(e) ** 0.25 * np.exp(-e / self.scale),
                       0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class FlatCoupling:
    """Constant coupling; usable only with a finite integration window."""

    amplitude: float

    def __post_init__(self):
        _require_finite(amplitude=self.amplitude)

    def __call__(self, e):
        e = np.asarray(e, dtype=float)
        out = np.full(e.shape, self.amplitude) if e.ndim else self.amplitude
        return out


@dataclass(frozen=True)
class CouplingModel:
    """Microscopic inputs: coupling shapes plus scalar couplings.

    lambda1, lambda2, v3 are functions of collision energy E >= 0 that
    map a float, or a float array of any shape, elementwise to real,
    finite values of the same shape; derive_couplings and discretize hold
    every value they evaluate to this contract (_coupling_values).  e_max
    truncates their PV integrals (None means integrate to
    infinity, requiring decaying shapes).  v1f, v2f are the vacuum
    couplings at the two emitted-photon energies, dipole_overlap the
    cosine between the two transition dipoles, omega13/omega23 the
    direct bound-bound couplings, e3 the quasi-bound energy.  v1f, v2f,
    omega13, omega23 and e3 must be finite; e_max = inf is the same as None.
    """

    lambda1: Callable[[float], float]
    lambda2: Callable[[float], float]
    v3: Callable[[float], float]
    v1f: float
    v2f: float
    omega13: float
    omega23: float
    e3: float
    dipole_overlap: float
    e_max: float | None = None

    def __post_init__(self):
        _require_finite(v1f=self.v1f, v2f=self.v2f, omega13=self.omega13,
                        omega23=self.omega23, e3=self.e3)
        if not -1.0 <= self.dipole_overlap <= 1.0:
            raise ValidationError(
                f"dipole_overlap must lie in [-1, 1], got {self.dipole_overlap!r}")
        if self.e3 <= 0.0:
            raise ValidationError(f"e3 must be positive, got {self.e3!r}")
        if self.e_max is not None and not self.e_max > self.e3:
            raise ValidationError(f"e_max={self.e_max!r} must exceed e3={self.e3!r} (or be None)")


def _coupling_values(name: str, fn, e):
    """fn(e) for the coupling called name, held to the CouplingModel
    contract: a breach, or any exception the call raises, is a
    ValidationError naming the coupling (and the exception's type).  A
    scalar e is a quadrature node, an array e the collision grid."""
    try:
        out, raised = fn(e), None
    except Exception as exc:
        out, raised = None, exc
    if type(e) is float and type(out) is float and math.isfinite(out):
        return out  # a quadrature node, at the cost of the finiteness check
    where = f"at E={e!r}" if np.ndim(e) == 0 else "on the collision grid"
    try:
        vals = np.asarray(out)
    except ValueError as exc:  # a ragged sequence of values
        raised = exc
    if raised is not None:  # the first two: e.g. math.exp or `a < e < b` of an array
        what = "is not elementwise" if isinstance(raised, (TypeError, ValueError)) else "raised"
        problem = f"{what} {where}: {type(raised).__name__}: {raised}"
    elif vals.shape != np.shape(e):
        problem = f"is not elementwise {where} (values of shape {vals.shape})"
    elif vals.dtype.kind not in "iuf":
        problem = f"is not real {where} ({vals.dtype} values)"
    elif not np.isfinite(vals).all():
        problem = f"is not finite {where}"
    else:
        return np.asarray(vals, dtype=float) if vals.ndim else float(vals)
    raise ValidationError(f"{name} {problem}")


# ---------------------------------------------------------------------------
# principal-value quadrature


def _difference_quotient(f, e3: float, f_e3: float, bound: float):
    """(f(E) - f(E3))/(E3 - E) with a symmetric-difference guard at the
    pole; a value beyond bound in magnitude raises _OutOfRange."""
    scale = max(1.0, abs(e3))

    def g(e: float) -> float:
        d = e3 - e
        if abs(d) < 1e-9 * scale:
            h = 1e-6 * scale
            q = -(f(e3 + h) - f(e3 - h)) / (2.0 * h)
        else:
            q = (f(e) - f_e3) / d
        if abs(q) > bound:
            raise _OutOfRange
        return q

    return g


def _quad(what: str, *args, **kwargs) -> float:
    """quad with full_output: a failure comes back as a message, raised as ConvergenceFailure."""
    # imported on use: scipy.integrate takes longer to import than the package
    from scipy.integrate import quad
    value, _, _, *failure = quad(*args, full_output=1, **kwargs)
    if failure:
        raise ConvergenceFailure(f"{what} did not converge: {failure[0].splitlines()[0]}")
    return value


def pv_integral(f: Callable[[float], float], e3: float,
                upper: float | None = None) -> float:
    """Cauchy principal value of int_0^upper f(E)/(E3 - E) dE.

    Computed by singularity subtraction:

        PV int f/(E3-E) = int (f(E) - f(E3))/(E3 - E) dE
                          + f(E3) * ln(E3 / (upper - E3))

    where the log term is the analytic principal value of the constant
    remainder (for f == 1, E3=1, upper=3 this correctly gives -ln 2).
    upper=None or +inf integrates to infinity: the subtraction runs over the
    pole-symmetric interval [0, 2*E3] (log term zero) and the plain tail
    f/(E3 - E) beyond it is one call of QUADPACK's infinite-range rule
    QAGI.  A QUADPACK message is a ConvergenceFailure naming its piece:
    ``PV integral over [a, b]`` or ``tail of the PV integral past E=``.
    A subtracted integrand that QUADPACK cannot sum in floats (|value| x
    |range| beyond _PV_SUM_MAX) makes the integral NaN.  Fixed tolerances:
    relative 1e-10 (_RTOL) on every piece, absolute 1e-14 on the
    subtracted pieces and 1e-16 on the tail.  An e3 or a finite upper that
    is not a finite real number is a ValidationError naming it.
    """
    infinite = upper is None or upper == math.inf
    if infinite:
        (e3,) = _require_finite(e3=e3)
        if e3 <= 0.0:
            raise Degenerate(f"pole E3={e3!r} must be positive")
    else:
        e3, upper = _require_finite(e3=e3, upper=upper)
        if e3 <= 0.0 or e3 >= upper or e3 / (upper - e3) == 0.0:
            raise Degenerate(
                f"pole E3={e3!r} must lie strictly inside (0, {upper!r}), "
                "with a log term ln(E3/(upper - E3)) that does not underflow")
    f_e3 = float(f(e3))
    sub_upper = 2.0 * e3 if infinite else upper
    g = _difference_quotient(f, e3, f_e3, _PV_SUM_MAX / max(1.0, sub_upper))
    try:
        total = sum(_quad(f"PV integral over [{a:.3e}, {b:.3e}]",
                          g, a, b, epsabs=1e-14, epsrel=_RTOL, limit=400)
                    for a, b in ((0.0, e3), (e3, sub_upper)))
    except _OutOfRange:
        return math.nan
    if not infinite:
        return total + f_e3 * math.log(e3 / (upper - e3))
    return total + _quad(f"tail of the PV integral past E={sub_upper:.3e}",
                         lambda e: f(e) / (e3 - e), sub_upper, math.inf,
                         epsabs=1e-16, epsrel=_RTOL, limit=200)


# ---------------------------------------------------------------------------
# derived effective parameters


@dataclass(frozen=True)
class MicroscopicResult:
    """Shifts, widths and coherences produced by continuum elimination.

    All entries are energies (hbar = 1).
    """

    e_sh_1: float
    e_sh_2: float
    e_sh_f: float
    alpha: float
    beta1: float
    beta2: float
    gamma_1: float
    gamma_2: float
    gamma_f: float
    gamma_lic: float
    gamma_1f: float
    gamma_2f: float
    gamma1_sp: float
    gamma2_sp: float
    gamma_vic: float


#: the couplings each MicroscopicResult field derives from, in field order
_SOURCES = (("lambda1",), ("lambda2",), ("v3",), ("lambda1", "lambda2"),
            ("lambda1", "v3"), ("lambda2", "v3")) * 2 + (("v1f",), ("v2f",), ("v1f", "v2f"))


@_numerical
def derive_couplings(model: CouplingModel) -> MicroscopicResult:
    """Evaluate every shift, width and coherence of the elimination.

    PV integrals use the pole approximation (all evaluated at E3), and
    widths take the on-shell coupling values Lambda_n(E3), V3(E3).
    Vacuum-induced shifts are zero by construction here; only the vacuum
    widths and the VIC cross term survive.  Memoised for the length of the
    call, each coupling is evaluated once per distinct quadrature node; a
    value that breaks the CouplingModel contract, or a field that is not
    finite, is a ValidationError naming the couplings it derives from.
    """
    l1, l2, v3 = (functools.cache(functools.partial(_coupling_values, name, getattr(model, name)))
                  for name in ("lambda1", "lambda2", "v3"))
    e3, upper = model.e3, model.e_max
    e_sh_1 = pv_integral(lambda e: l1(e) ** 2, e3, upper)
    e_sh_2 = pv_integral(lambda e: l2(e) ** 2, e3, upper)
    e_sh_f = pv_integral(lambda e: v3(e) ** 2, e3, upper)
    alpha = pv_integral(lambda e: l1(e) * l2(e), e3, upper)
    beta1 = pv_integral(lambda e: l1(e) * v3(e), e3, upper)
    beta2 = pv_integral(lambda e: l2(e) * v3(e), e3, upper)
    l1f, l2f, v3f = l1(e3), l2(e3), v3(e3)
    two_pi = 2.0 * math.pi
    res = MicroscopicResult(
        e_sh_1=e_sh_1, e_sh_2=e_sh_2, e_sh_f=e_sh_f,
        alpha=alpha, beta1=beta1, beta2=beta2,
        gamma_1=two_pi * l1f ** 2, gamma_2=two_pi * l2f ** 2, gamma_f=two_pi * v3f ** 2,
        gamma_lic=two_pi * l1f * l2f, gamma_1f=two_pi * l1f * v3f, gamma_2f=two_pi * l2f * v3f,
        gamma1_sp=2.0 * two_pi * model.v1f ** 2, gamma2_sp=2.0 * two_pi * model.v2f ** 2,
        gamma_vic=2.0 * two_pi * model.v1f * model.v2f * model.dipole_overlap,
    )
    bad = [(name, field) for (field, value), names in zip(vars(res).items(), _SOURCES)
           if not math.isfinite(value) for name in names]
    if bad:
        raise ValidationError("; ".join(f"{name} is not finite in {field}" for name, field in bad))
    return res


def to_dimensionless(res: MicroscopicResult, model: CouplingModel,
                     e1: float = 0.0, e2: float = 0.0) -> DimensionlessParams:
    """Scale the derived energies by hbar*Gamma_F/2 into model parameters.

    e1, e2 are the rotating-frame energies E_n - hbar*omega_n of the
    dressed states, in the same units as the coupling model (what
    discretize takes as e1_rot, e2_rot).  The Fano parameters use
    q_n = (beta_n + omega_n3) / (Gamma_nF / 2), with q_n = 0 adopted
    when numerator and denominator both vanish.
    """
    e1, e2 = _require_finite(e1=e1, e2=e2)
    if res.gamma_f <= 0.0:
        raise Degenerate(f"Gamma_F={res.gamma_f!r} must be positive")
    ef = res.gamma_f / 2.0

    def q_of(beta_n: float, omega_n3: float, gamma_nf: float, label: str) -> float:
        num = beta_n + omega_n3
        den = gamma_nf / 2.0
        if den == 0.0:
            if num == 0.0:
                return 0.0
            raise Degenerate(
                f"q{label} undefined: Gamma_{label}F = 0 while beta+omega = {num!r}")
        return num / den

    return DimensionlessParams(
        g1=res.gamma_1 / res.gamma_f,
        g2=res.gamma_2 / res.gamma_f,
        g12=res.gamma_lic / res.gamma_f,
        q1=q_of(res.beta1, model.omega13, res.gamma_1f, "1"),
        q2=q_of(res.beta2, model.omega23, res.gamma_2f, "2"),
        delta1=(e1 + res.e_sh_1) / ef,
        delta2=(e2 + res.e_sh_2) / ef,
        delta=res.alpha / ef,
        gamma1=res.gamma1_sp / res.gamma_f,
        gamma2=res.gamma2_sp / res.gamma_f,
        eta=res.gamma_vic / res.gamma_f,
        inv_kca=-2.0 * (model.e3 + res.e_sh_f) / res.gamma_f,
    )


def reference_gaussian_model() -> CouplingModel:
    """The bundled Gaussian fixture used across tests and demos.

    Couplings peak near the quasi-bound energy e3 = 1 with order-0.1
    amplitudes, mildly off-center so every PV shift and cross term is
    nonzero; vacuum couplings and a partial dipole overlap give all
    three decoherence channels nonzero values.
    """
    return CouplingModel(
        lambda1=GaussianCoupling(amplitude=0.16, center=1.25, width=0.45),
        lambda2=GaussianCoupling(amplitude=0.12, center=0.85, width=0.55),
        v3=GaussianCoupling(amplitude=0.20, center=1.05, width=0.60),
        v1f=0.05, v2f=0.04,
        omega13=0.05, omega23=-0.03,
        e3=1.0,
        dipole_overlap=0.8,
        e_max=None,
    )
