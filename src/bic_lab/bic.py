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

from .errors import (ConvergenceFailure, DegenerateVector, SingularSolve,
                     ValidationError, _numerical)
from .hamiltonian import build, eigensystem
from .params import DimensionlessParams


@dataclass(frozen=True)
class BicSolution:
    """Closed-form BIC: eigenvalue, required detunings and residuals."""

    lam: float
    delta1: float
    delta2: float
    x: np.ndarray          # unnormalized common eigenvector (x1, x2, 1)
    c: float               # its norm
    residual_a: float      # ||A X - lam X|| for the unit vector X
    residual_b: float      # ||B X|| for the unit vector X
    params: DimensionlessParams


@_numerical
def solve_bic(g1: float, g2: float, q1: float, q2: float, delta: float,
              gamma1: float, gamma2: float,
              g12: float | None = None, inv_kca: float = 0.0) -> BicSolution:
    """Solve A X = lambda X, B X = 0 for (lambda, delta1, delta2).

    g12 defaults to the coherent value sqrt(g1*g2), which is also the
    only case in which B can have the zero mode; eta is always set to
    sqrt(gamma1*gamma2).  X = (x1, x2, 1) of the module docstring and its
    norm C come back as ``x`` and ``c``.  Raises ValidationError unless
    g1, g2 >= 0 and gamma1, gamma2 > 0; DegenerateVector when
    g1/g2 = gamma1/gamma2 leaves X undefined, checked before SingularSolve
    for g1 = g12 * sqrt(gamma1/gamma2), which makes the continuum row of
    A X = lambda X insoluble; ConvergenceFailure when a residual is
    non-finite or exceeds 1e-12 * max(1, ||A||_F, ||B||_F), as it does
    once the inputs overflow: the result would not be a solution.
    """
    if g1 < 0.0 or g2 < 0.0 or gamma1 <= 0.0 or gamma2 <= 0.0:
        raise ValidationError(
            [f"solve_bic needs g1, g2 >= 0 and gamma1, gamma2 > 0, got g1={g1!r}, "
             f"g2={g2!r}, gamma1={gamma1!r}, gamma2={gamma2!r}"])
    if g12 is None:
        g12 = math.sqrt(g1 * g2)
    denom = math.sqrt(g2 * gamma1) - math.sqrt(g1 * gamma2)
    if abs(denom) < 1e-12:
        raise DegenerateVector(
            "g1/g2 = gamma1/gamma2 leaves the decay-free direction undefined "
            f"(denominator {denom:.3e})")
    x = np.array([math.sqrt(gamma2) / denom, -math.sqrt(gamma1) / denom, 1.0])
    c = float(np.linalg.norm(x))

    r = math.sqrt(gamma1 / gamma2)
    if abs(g1 - g12 * r) < 1e-12:
        raise SingularSolve(
            f"g1 - g12*sqrt(gamma1/gamma2) = {g1 - g12 * r:.3e} vanishes; "
            "lambda is unconstrained by the continuum row")
    s1 = math.sqrt(g1)
    s2 = math.sqrt(g2)
    # rows of A X = lambda X written out for X = (x1, x2, 1):
    #   row3: q1*sqrt(g1)*x1 + q2*sqrt(g2)*x2 - inv_kca = lambda
    #   row1: delta1*x1 + delta*x2 + q1*sqrt(g1) = lambda*x1
    #   row2: delta*x1 + delta2*x2 + q2*sqrt(g2) = lambda*x2
    # row3 is the standard rearranged form
    # (g12*r*q2 - g1*q1 + inv_kca*(g12*r - g1)) / (g1 - g12*r)
    # multiplied through by sqrt(gamma2/g1)/denominator; evaluating it
    # via x1, x2 keeps the eigen-residual at machine zero by construction
    x1, x2 = x[0], x[1]
    lam = q1 * s1 * x1 + q2 * s2 * x2 - inv_kca
    delta1 = lam - (delta * x2 + q1 * s1) / x1
    delta2 = lam - (delta * x1 + q2 * s2) / x2

    params = DimensionlessParams(
        g1=g1, g2=g2, q1=q1, q2=q2,
        delta1=delta1, delta2=delta2, delta=delta,
        gamma1=gamma1, gamma2=gamma2,
        g12=g12, eta=math.sqrt(gamma1 * gamma2), inv_kca=inv_kca)
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
    return BicSolution(lam=float(lam), delta1=float(delta1), delta2=float(delta2),
                       x=x, c=c, residual_a=residual_a, residual_b=residual_b,
                       params=params)


@dataclass(frozen=True)
class CertificationReport:
    """Spectral evidence for (or against) a real eigenvalue."""

    is_bic: bool
    min_abs_im: float
    lambda_est: float      # real part of the least-damped eigenvalue
    eigenvalue: complex    # the least-damped eigenvalue itself
    residual_b: float      # ||B v|| for its eigenvector
    vic_residual: float    # eta^2 - gamma1*gamma2, zero at maximal coherence


@_numerical
def certify(params: DimensionlessParams, tol_im: float = 1e-9) -> CertificationReport:
    """Check numerically whether A + i*B has a (near-)real eigenvalue.

    This is deliberately independent of the closed-form construction in
    ``solve_bic``: it diagonalizes the full complex matrix and inspects
    the least-damped mode, so the two routes cross-check each other.
    """
    m = build(params)
    eig = eigensystem(m)
    ims = np.abs(eig.eigenvalues.imag)
    k = int(np.argmin(ims))
    lam = eig.eigenvalues[k]
    v = eig.eigenvectors[:, k]
    return CertificationReport(
        is_bic=bool(ims[k] <= tol_im),
        min_abs_im=float(ims[k]),
        lambda_est=float(lam.real),
        eigenvalue=complex(lam),
        residual_b=float(np.linalg.norm(m.imag @ v)),
        vic_residual=params.eta ** 2 - params.gamma1 * params.gamma2,
    )
