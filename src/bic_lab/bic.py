"""Existence conditions and closed-form construction of the bound state.

A bound state in the continuum (BIC) of the effective matrix A + i*B is
a real eigenvalue lambda, which requires a common real eigenvector X of
both A and B with B X = 0.  For coherent lasers (g12 = sqrt(g1*g2)) a
zero mode of B exists iff the vacuum-induced coherence is maximal,
eta = sqrt(gamma1*gamma2); the zero-mode direction is

    X = (x1, x2, 1),   x1 =  sqrt(gamma2) / d,
                       x2 = -sqrt(gamma1) / d,
    d  = sqrt(g2*gamma1) - sqrt(g1*gamma2).

Feeding X into A X = lambda X then fixes lambda and the two detunings
(delta1, delta2) in closed form; ``solve_bic`` returns those together
with the residuals of both eigen-equations, so the result certifies
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, Degenerate, ValidationError, _numerical,
                     _require_finite)
from .hamiltonian import _refuse_gain, build, eigensystem
from .params import DimensionlessParams


@dataclass(frozen=True)
class BicSolution:
    """Closed-form BIC: eigenvalue, residuals, and params with the detunings."""

    lam: float
    x: np.ndarray          # unnormalized common eigenvector (x1, x2, 1)
    c: float               # its norm
    residual_a: float      # ||A X - lam X|| for the unit vector X
    residual_b: float      # ||B X|| for the unit vector X
    params: DimensionlessParams


@_numerical
def solve_bic(g1: float, g2: float, q1: float, q2: float, delta: float,
              gamma1: float, gamma2: float, inv_kca: float = 0.0) -> BicSolution:
    """Solve A X = lambda X, B X = 0 for (lambda, delta1, delta2).

    Both coherences take their maximal values, the only ones at which B
    has the zero mode: g12 = sqrt(g1*g2) and eta = sqrt(gamma1*gamma2).
    X = (x1, x2, 1) of the module docstring and its norm C come back as
    ``x`` and ``c``.  Raises ValidationError for an input that is not a
    finite real number, or unless g1, g2 >= 0 and gamma1, gamma2 > 0;
    Degenerate when g1/g2 = gamma1/gamma2 leaves X undefined, that is when
    |d| <= 1e-12 * max(sqrt(g2*gamma1), sqrt(g1*gamma2)), g1 = g2 = 0 included;
    ConvergenceFailure when a residual is non-finite or exceeds
    1e-12 * max(1, ||A||_F, ||B||_F), as it does once the inputs
    overflow: the result would not be a solution.
    """
    _require_finite(g1=g1, g2=g2, q1=q1, q2=q2, delta=delta, gamma1=gamma1,
                    gamma2=gamma2, inv_kca=inv_kca)
    if g1 < 0.0 or g2 < 0.0 or gamma1 <= 0.0 or gamma2 <= 0.0:
        raise ValidationError(
            f"solve_bic needs g1, g2 >= 0 and gamma1, gamma2 > 0, got g1={g1!r}, "
            f"g2={g2!r}, gamma1={gamma1!r}, gamma2={gamma2!r}")
    root_a, root_b = math.sqrt(g2 * gamma1), math.sqrt(g1 * gamma2)
    denom = root_a - root_b
    if abs(denom) <= 1e-12 * max(root_a, root_b):
        raise Degenerate(
            "g1/g2 = gamma1/gamma2 leaves the decay-free direction undefined "
            f"(denominator {denom:.3e})")
    x = np.array([math.sqrt(gamma2) / denom, -math.sqrt(gamma1) / denom, 1.0])
    c = float(np.linalg.norm(x))

    s1 = math.sqrt(g1)
    s2 = math.sqrt(g2)
    # rows of A X = lambda X written out for X = (x1, x2, 1):
    #   row3: q1*sqrt(g1)*x1 + q2*sqrt(g2)*x2 - inv_kca = lambda
    #   row1: delta1*x1 + delta*x2 + q1*sqrt(g1) = lambda*x1
    #   row2: delta*x1 + delta2*x2 + q2*sqrt(g2) = lambda*x2
    # row3 gives lambda with no division, so d = 0 is the only singular
    # geometry; evaluating it via x1, x2 keeps the eigen-residual at
    # machine zero by construction
    x1, x2 = x[0], x[1]
    lam = q1 * s1 * x1 + q2 * s2 * x2 - inv_kca
    delta1 = lam - (delta * x2 + q1 * s1) / x1
    delta2 = lam - (delta * x1 + q2 * s2) / x2

    params = DimensionlessParams(
        g1=g1, g2=g2, q1=q1, q2=q2,
        delta1=delta1, delta2=delta2, delta=delta,
        gamma1=gamma1, gamma2=gamma2, inv_kca=inv_kca)
    m = build(params)
    # contiguous copies: unit is real, so a product with the strided
    # m.real or m.imag would take other bits
    a, b = np.ascontiguousarray(m.real), np.ascontiguousarray(m.imag)
    unit = x / c
    residual_a = float(np.linalg.norm(a @ unit - lam * unit))
    residual_b = float(np.linalg.norm(b @ unit))
    tol = 1e-12 * max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    # an overflowed matrix has a non-finite norm and fails too
    if not (residual_a <= tol and residual_b <= tol and math.isfinite(tol)):
        raise ConvergenceFailure(
            f"BIC residuals ||AX - lam X|| = {residual_a:.3e}, ||BX|| = {residual_b:.3e} "
            f"exceed 1e-12 * max(1, ||A||_F, ||B||_F) = {tol:.3e}")
    return BicSolution(lam=float(lam), x=x, c=c, residual_a=residual_a,
                       residual_b=residual_b, params=params)


@dataclass(frozen=True)
class CertificationReport:
    """Spectral evidence for (or against) a real eigenvalue."""

    is_bic: bool           # |Im eigenvalue| <= 1e-9 * ComplexEigenSet.scale
    eigenvalue: complex    # the eigenvalue nearest the real axis
    residual_b: float      # ||B v|| for its eigenvector
    vic_residual: float    # eta^2 - gamma1*gamma2, zero at maximal coherence


@_numerical
def certify(params: DimensionlessParams) -> CertificationReport:
    """Check numerically whether A + i*B has a real eigenvalue.

    This is deliberately independent of the closed-form construction in
    ``solve_bic``: it diagonalizes the full complex matrix and inspects
    the mode nearest the real axis, so the two routes cross-check each
    other.  ``is_bic`` holds when |Im E| <= 1e-9 * max(1, ||A + iB||_F); another
    verdict reads ``eigenvalue``.  A gain mode raises GainMode, as for a spectrum.
    """
    m = build(params)
    eig = eigensystem(m)
    _refuse_gain(params, eig)
    ims = np.abs(eig.eigenvalues.imag)
    k = int(np.argmin(ims))
    v = eig.eigenvectors[:, k]
    return CertificationReport(
        is_bic=bool(ims[k] <= 1e-9 * eig.scale),
        eigenvalue=complex(eig.eigenvalues[k]),
        residual_b=float(np.linalg.norm(m.imag @ v)),
        vic_residual=params.eta ** 2 - params.gamma1 * params.gamma2,
    )
