"""Effective non-Hermitian Hamiltonian of the driven three-level complex.

After the collisional and photon continua are integrated out, the two
laser-dressed bound states and the Feshbach quasi-bound state evolve
under H_eff = (hbar*Gamma_F/2) * (A + i*B) with A, B real symmetric:

    A = [[delta1, delta,  q1*sqrt(g1)],
         [delta,  delta2, q2*sqrt(g2)],
         [q1*sqrt(g1), q2*sqrt(g2), -inv_kca]]

    B = -[[g1+gamma1, g12+eta, sqrt(g1)],
          [g12+eta,   g2+gamma2, sqrt(g2)],
          [sqrt(g1),  sqrt(g2),  1      ]]

``build`` returns the dimensionless matrix M = A + i*B as one complex
(3, 3) array, symmetric by construction, with A = M.real and B = M.imag;
``eigensystem`` takes that array.  Its eigenvalues are the complex mode
energies E_tilde in units of hbar*Gamma_F/2.

The eigenvalues are a closed-form Cardano solve of the characteristic
cubic followed by a Newton polish that keeps its best iterate and stops
at its first repeated iterate, after which the steps would only cycle
through iterates already scored.  They stay closed-form because the
pinned reference outputs of ``reproduce`` depend on their exact bits:
moving E1 by about one ulp, as LAPACK or any other route may, moves a
fig5 ``width`` by up to 1.2e-3 relative through refine_peak's floor fit
(ROADMAP.md, item 1b).  The three eigenvectors and their residuals come
from one batched singular value decomposition of M - lam_k I.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, GainMode, ValidationError, _numerical
from .params import DimensionlessParams, _passive

#: eigenvalue residual tolerance, relative to ||A + iB||_F
RESIDUAL_RTOL = 1e-10
_EYE, _COLS = np.eye(3), np.arange(3)


def build(params: DimensionlessParams) -> np.ndarray:
    """The complex (3, 3) matrix A + i*B of a dimensionless parameter set."""
    s1 = math.sqrt(params.g1)
    s2 = math.sqrt(params.g2)
    a = np.array([
        [params.delta1, params.delta, params.q1 * s1],
        [params.delta, params.delta2, params.q2 * s2],
        [params.q1 * s1, params.q2 * s2, -params.inv_kca],
    ])
    off = params.g12 + params.eta
    b = -np.array([
        [params.g1 + params.gamma1, off, s1],
        [off, params.g2 + params.gamma2, s2],
        [s1, s2, 1.0],
    ])
    return a + 1j * b


def _refuse_gain(params: DimensionlessParams, eig: ComplexEigenSet) -> None:
    """Raise GainMode when B is not negative semidefinite and the least-damped
    eigenvalue E1 grows beyond the rounding allowance 1e-12 * eig.scale."""
    e1 = eig.eigenvalues[0]
    if not _passive(params) and e1.imag > 1e-12 * eig.scale:
        raise GainMode(f"least-damped eigenvalue {complex(e1)!r} grows (Im E1 > 0)")


def char_coeffs(m: np.ndarray) -> tuple[complex, complex, complex]:
    """(c2, c1, c0) with det(x*I - M) = x^3 - c2 x^2 + c1 x - c0."""
    c2 = m[0, 0] + m[1, 1] + m[2, 2]
    c1 = ((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
          + (m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0])
          + (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]))
    c0 = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
          - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
          + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
    return c2, c1, c0


_CUBE_ROOTS_OF_UNITY = (1.0 + 0.0j,
                        complex(-0.5, math.sqrt(3.0) / 2.0),
                        complex(-0.5, -math.sqrt(3.0) / 2.0))


def cubic_roots(c2: complex, c1: complex, c0: complex) -> list[complex]:
    """Roots of x^3 - c2 x^2 + c1 x - c0 by Cardano's formula.

    The cube-root branch is picked to maximise |u|, which avoids the
    catastrophic cancellation in t = u - p/(3u) that the naive branch
    suffers when the depressed cubic is nearly pure-quadratic.
    """
    shift = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = -2.0 * c2 ** 3 / 27.0 + c2 * c1 / 3.0 - c0
    # x = t + c2/3 turns the monic cubic into t^3 + p t + q = 0
    scale = max(abs(p), abs(q), 1e-300)
    if abs(p) <= 1e-30 * scale and abs(q) <= 1e-30 * scale:
        return [shift, shift, shift]
    disc = cmath.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    u3_plus = -q / 2.0 + disc
    u3_minus = -q / 2.0 - disc
    u3 = u3_plus if abs(u3_plus) >= abs(u3_minus) else u3_minus
    u = u3 ** (1.0 / 3.0)
    roots = []
    for w in _CUBE_ROOTS_OF_UNITY:
        uk = u * w
        t = uk - p / (3.0 * uk)
        roots.append(t + shift)
    return roots


def _polish_root(x: complex, c2: complex, c1: complex, c0: complex) -> complex:
    """Newton refinement of one cubic root; keeps the best iterate seen.

    An iterate depends only on the one before it, so after the first
    repeated iterate the rest only repeat and cannot strictly lower the
    best residual: stopping there returns what all 40 steps would.
    """
    two_c2 = 2.0 * c2
    f = ((x - c2) * x + c1) * x - c0
    best, best_f = x, abs(f)
    seen = {x}
    for _ in range(40):
        fp = (3.0 * x - two_c2) * x + c1
        if fp == 0:
            break
        step = f / fp
        x = x - step
        f = ((x - c2) * x + c1) * x - c0
        fx = abs(f)
        if fx < best_f:
            best, best_f = x, fx
        if abs(step) <= 1e-16 * (1.0 + abs(x)) or x in seen:
            break
        seen.add(x)
    return best


@dataclass(frozen=True)
class ComplexEigenSet:
    """Eigen decomposition of A + i*B.

    eigenvalues   (3,) complex, sorted by descending imaginary part and,
                  on ties, ascending real part; index 0 is the
                  least-damped mode E_tilde_1
    eigenvectors  (3, 3) complex, column k belongs to eigenvalues[k],
                  unit norm with the first significant component real
                  positive; at a defective (exceptional-point) pair
                  two columns are parallel
    residuals     (3,) float, per mode the smallest singular value of
                  M - lam I, which is ||M v - lam v||_2 for its unit
                  vector v: the backward error of lam
    scale         max(1, ||A + iB||_F), the scale of every tolerance on
                  this matrix: residual 1e-10 (RESIDUAL_RTOL), trace
                  1e-8, gain 1e-12 (_refuse_gain) and BIC 1e-9 (certify)
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    scale: float


@_numerical
def eigensystem(m: np.ndarray) -> ComplexEigenSet:
    """All three complex eigenpairs of the matrix m = A + i*B.

    Raises ValidationError unless m is 3x3, and ConvergenceFailure if the
    roots fail the trace check or any residual exceeds
    RESIDUAL_RTOL * max(||A + iB||_F, 1).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (3, 3):
        raise ValidationError(f"the matrix must be 3x3, got shape {m.shape}")
    c2, c1, c0 = char_coeffs(m)
    roots = [_polish_root(r, c2, c1, c0) for r in cubic_roots(c2, c1, c0)]
    roots.sort(key=lambda z: (-z.imag, z.real))

    # a NaN norm stays NaN, and fails the trace check
    scale = max(float(np.linalg.norm(m)), 1.0)
    # Vieta guard: a collapsed root multiset passes per-pair residual
    # checks (each pair is individually genuine), the trace sum does not;
    # written so that overflowed (NaN) roots fail it too
    if not abs(sum(roots) - c2) <= 1e-8 * scale:
        raise ConvergenceFailure(
            f"root sum {complex(sum(roots))} deviates from trace {complex(c2)}")
    lams = np.array(roots, dtype=complex)
    # the right singular vector v of the smallest singular value of
    # M - lam I is the unit vector with the least residual, and that
    # value is its residual ||(M - lam I) v||, the backward error of lam
    _, s, vh = np.linalg.svd(m - lams[:, None, None] * _EYE)
    residuals = s[:, -1]
    vecs = vh[:, -1, :].conj().T
    mags = np.abs(vecs)
    lead = np.argmax(mags > 1e-12, axis=0)
    vecs = vecs * (vecs[lead, _COLS].conj() / mags[lead, _COLS])
    if np.max(residuals) > RESIDUAL_RTOL * scale:
        raise ConvergenceFailure(
            f"eigen residual {np.max(residuals):.3e} exceeds {RESIDUAL_RTOL:.1e} * ||M|| = "
            f"{RESIDUAL_RTOL * scale:.3e}")
    return ComplexEigenSet(eigenvalues=lams, eigenvectors=vecs, residuals=residuals, scale=scale)
