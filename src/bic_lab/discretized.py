"""Brute-force check of the continuum elimination on a discretized model.

The full rotating-frame Hamiltonian -- three discrete states plus the
collisional continuum and two photon continua -- is discretized into
energy bins: a continuum state |E> with coupling Lambda(E) becomes a bin
state with coupling Lambda(E_j) * sqrt(dE_j), which is exactly the
normalization that makes Q-space sums converge to the continuum
integrals as the grid refines.

Two kinds of validation live here:

* ``resolvent_check`` verifies the exact algebraic identity
  P (z - H)^-1 P = (z - H_PP - Sigma(z))^-1 with
  Sigma(z) = C (z - D)^-1 C^T on the same discretized matrix.  This
  holds to machine precision at any grid size: it validates the
  projection algebra, independent of any pole approximation.  The left
  side comes from one sparse LU factorization of z - H per probe, which
  sees only the assembled matrix, so it does not reuse Sigma; one pattern
  of z - H serves every probe, which writes only the diagonal.

* ``compare_pole_approximation`` locates the true resonance poles of
  the discretized model by a secant on Re z for the energy-dependent
  3x3 matrix H_PP + Sigma(z) and compares them against the eigenvalues
  of the constant effective Hamiltonian built by the microscopic route.
  The residual deviation measures the quality of the freeze-at-E3
  approximation itself.

Vacuum-sector convention: photon-bin couplings carry an extra sqrt(2)
so the resulting decay rates are gamma_n = 4 pi V_nf^2, matching the
stated spontaneous rates (the source's k-integrals carry twice the
naive golden-rule weight).  The two photon continua share one grid; a
dipole overlap p makes |e2> couple to the |e1> continuum with weight p
and to an orthogonal one with weight sqrt(1 - p^2), reproducing the
cross damping gamma_VIC = 4 pi V1f V2f p that derive_couplings uses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConvergenceFailure, FixedPointDivergence, GridCoverage,
                     ProbeOnSpectrum, ValidationError, ZeroWidth,
                     _overflow_is_convergence_failure)
from .hamiltonian import build, eigensystem
from .microscopic import CouplingModel, FlatCoupling
from .params import DimensionlessParams

_TAIL_FRACTION = 1e-8
_MAX_ITER = 500  # iteration budget of compare_pole_approximation's pole search


@dataclass(frozen=True)
class GridSpec:
    """Bin layout: collision grid [e_min, e_max] x n_e, photon grid
    [k_min, k_max] x n_k per continuum (n_k = 0 disables the vacuum
    sector)."""

    e_min: float
    e_max: float
    n_e: int
    k_min: float = 0.0
    k_max: float = 0.0
    n_k: int = 0

    def __post_init__(self):
        if not (self.e_min >= 0.0 and self.e_max > self.e_min):
            raise ValidationError([f"collision grid [{self.e_min!r}, {self.e_max!r}] invalid"])
        if self.n_e < 1:
            raise ValidationError([f"n_e must be >= 1, got {self.n_e!r}"])
        if self.n_k < 0:
            raise ValidationError([f"n_k must be >= 0, got {self.n_k!r}"])
        if self.n_k > 0 and not (self.k_min >= 0.0 and self.k_max > self.k_min):
            raise ValidationError([f"photon grid [{self.k_min!r}, {self.k_max!r}] invalid"])


def _midpoint_grid(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    width = (hi - lo) / n
    centers = lo + (np.arange(n) + 0.5) * width
    return centers, width


def _coverage_fraction(f, lo: float, hi: float) -> float:
    """Weight of f^2 outside [lo, hi] relative to its total on [0, inf), at
    quad's default tolerances (1.49e-8 absolute and relative); the tail
    past hi is one call of QUADPACK's infinite-range rule QAGI."""
    from scipy.integrate import quad  # imported on use, see pv_integral

    def f2(e):
        return float(f(e)) ** 2

    inside, _ = quad(f2, lo, hi, limit=400)
    below, _ = quad(f2, 0.0, lo, limit=200) if lo > 0.0 else (0.0, 0.0)
    above, _ = quad(f2, hi, math.inf, limit=200)
    total = inside + below + above
    if total <= 0.0:
        return 0.0
    return (below + above) / total


@dataclass(frozen=True)
class DiscretizedModel:
    """Discretized full Hamiltonian in factored form.

    h_pp      3x3 block of the discrete states (diagonal energies plus
              the direct bound-bound couplings)
    coupling  3 x n_q block C of P-Q couplings (rows: e1, e2, c)
    diag_q    n_q bin energies
    The assembled matrix [[h_pp, C], [C^T, diag(diag_q)]] is available
    from matrix() as a sparse array; it is symmetric real, hence exactly
    Hermitian, and has no continuum-continuum coupling by construction.
    """

    h_pp: np.ndarray
    coupling: np.ndarray
    diag_q: np.ndarray
    e_centers: np.ndarray
    e_width: float
    k_width: float = 0.0

    @property
    def n_q(self) -> int:
        return self.diag_q.size

    @property
    def size(self) -> int:
        return 3 + self.n_q

    def matrix(self):
        """H as a scipy.sparse CSC array of 9 + 7 n_q stored entries."""
        from scipy.sparse import csc_array  # imported on use, see pv_integral

        p, q = np.arange(3), np.arange(3, self.size)
        c_rows, c_cols = np.repeat(p, self.n_q), np.tile(q, 3)
        rows = np.concatenate([np.repeat(p, 3), c_rows, c_cols, q])
        cols = np.concatenate([np.tile(p, 3), c_cols, c_rows, q])
        vals = np.concatenate([self.h_pp.ravel(), self.coupling.ravel(),
                               self.coupling.ravel(), self.diag_q])
        return csc_array((vals, (rows, cols)), shape=(self.size, self.size))

    def sigma(self, z) -> np.ndarray:
        """Level-shift matrix Sigma(z) = C (z - D)^-1 C^T (3x3 complex).

        z is one complex value, or one value per bin (n_q of them)."""
        weights = self.coupling / (z - self.diag_q)
        return weights @ self.coupling.T


@_overflow_is_convergence_failure
def discretize(model: CouplingModel, grid: GridSpec,
               e1_rot: float = 0.0, e2_rot: float = 0.0) -> DiscretizedModel:
    """Assemble the discretized Hamiltonian for a coupling model.

    e1_rot, e2_rot are the rotating-frame energies E_n - hbar*omega_n of
    the dressed states.  GridCoverage is raised when more than 1e-8 of
    any decaying coupling's weight falls outside its grid; flat
    couplings are exempt (they model an idealized wide-band limit and
    carry no normalizable weight).
    """
    e_centers, e_width = _midpoint_grid(grid.e_min, grid.e_max, grid.n_e)
    for name, fn in (("lambda1", model.lambda1), ("lambda2", model.lambda2),
                     ("v3", model.v3)):
        if isinstance(fn, FlatCoupling):
            continue
        frac = _coverage_fraction(fn, grid.e_min, grid.e_max)
        if frac > _TAIL_FRACTION:
            raise GridCoverage(
                f"collision grid misses {frac:.3e} of |{name}|^2 "
                f"(tolerance {_TAIL_FRACTION:.1e})")

    h_pp = np.array([
        [e1_rot, 0.0, model.omega13],
        [0.0, e2_rot, model.omega23],
        [model.omega13, model.omega23, model.e3],
    ])
    root_de = math.sqrt(e_width)
    blocks = [np.vstack([
        np.asarray(model.lambda1(e_centers), dtype=float) * root_de,
        np.asarray(model.lambda2(e_centers), dtype=float) * root_de,
        np.asarray(model.v3(e_centers), dtype=float) * root_de,
    ])]
    diag = [e_centers]
    k_width = 0.0
    if grid.n_k > 0:
        k_centers, k_width = _midpoint_grid(grid.k_min, grid.k_max, grid.n_k)
        root2_dk = math.sqrt(2.0 * k_width)
        p = model.dipole_overlap
        ortho = math.sqrt(max(0.0, 1.0 - p * p))
        ones = np.ones_like(k_centers)
        zeros = np.zeros_like(k_centers)
        # continuum shared with |e1>; |e2> couples with overlap weight p
        blocks.append(np.vstack([
            model.v1f * root2_dk * ones,
            model.v2f * p * root2_dk * ones,
            zeros,
        ]))
        diag.append(k_centers)
        # orthogonal complement continuum seen only by |e2>
        blocks.append(np.vstack([
            zeros,
            model.v2f * ortho * root2_dk * ones,
            zeros,
        ]))
        diag.append(k_centers)
    return DiscretizedModel(
        h_pp=h_pp,
        coupling=np.hstack(blocks),
        diag_q=np.concatenate(diag),
        e_centers=e_centers,
        e_width=e_width,
        k_width=k_width,
    )


@dataclass(frozen=True)
class ResolventReport:
    """Per-probe relative deviations of the projected-resolvent identity."""

    probes: list[complex]
    deviations: list[float]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)


def default_probes(dm: DiscretizedModel) -> list[complex]:
    """8 points on a rectangle enclosing the spectrum.

    The height is max(1, Gamma-scale); far off the real axis both sides
    of the identity are well-conditioned.  A Gamma-scale that overflows
    is a ConvergenceFailure.
    """
    with np.errstate(over="ignore"):  # an overflow is reported just below
        gamma_scale = 2.0 * math.pi * float(np.max(np.sum(dm.coupling ** 2, axis=1)))
    if not math.isfinite(gamma_scale):
        raise ConvergenceFailure(
            f"coupling scale 2 pi max_n sum_q C_nq^2 overflowed ({gamma_scale!r}): "
            "no finite default probes")
    h = max(1.0, gamma_scale)
    diag_all = np.concatenate([np.diag(dm.h_pp), dm.diag_q])
    lo, hi = float(np.min(diag_all)) - h, float(np.max(diag_all)) + h
    res = np.linspace(lo, hi, 4)
    return [complex(r, s * h) for s in (+1.0, -1.0) for r in res]


def resolvent_check(dm: DiscretizedModel,
                    probes: Sequence[complex] | None = None) -> ResolventReport:
    """Verify P (z-H)^-1 P = (z - H_PP - Sigma(z))^-1 at each probe.

    Both sides are computed on the same matrix, so this is an exact
    identity; deviations reflect linear-algebra conditioning only.

    The full side factors the sparse z - H once per probe with SuperLU
    (scipy.sparse.linalg.splu: COLAMD column order, partial pivoting) and
    solves for the three discrete-state columns.  z - H is assembled once
    per check, as 1j - H, whose stored pattern is that of every z - H off
    the real axis (H's explicit zeros dropped, every diagonal kept); each
    probe writes z - H_ii into the diagonal slots, the same bits a fresh
    z - H holds.  The factorization sees the assembled matrix alone and
    picks its own order and pivots, so the full side stays independent of
    the Schur-complement side built from Sigma(z).  An empty probe list or
    a non-finite probe is a ValidationError; a failed factorization or a
    singular 3x3 is a ConvergenceFailure.
    """
    if probes is None:
        probes = default_probes(dm)
    else:
        probes = [complex(z) for z in probes]
        if not probes or not all(map(cmath.isfinite, probes)):
            raise ValidationError([f"probes: must be nonempty and finite ({probes!r})"])
    for z in probes:
        if abs(z.imag) < 1e-12:
            raise ProbeOnSpectrum(f"probe {z!r} sits on the real axis")
    from scipy.sparse import csc_array  # imported on use, see pv_integral
    from scipy.sparse.linalg import splu

    h = dm.matrix()
    diag = np.arange(dm.size)
    shifted = csc_array((np.ones(dm.size), (diag, diag))) * 1j - h
    slots = np.flatnonzero(shifted.indices == np.repeat(diag, np.diff(shifted.indptr)))
    h_diag = h.diagonal()
    columns = np.eye(dm.size, 3)
    deviations = []
    for z in probes:
        shifted.data[slots] = z - h_diag
        try:
            full = splu(shifted).solve(columns)[:3]
            reduced = np.linalg.inv(z * np.eye(3) - dm.h_pp - dm.sigma(z))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise ConvergenceFailure(f"resolvent solve failed: splu: {exc}") from None
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"resolvent solve failed: {exc}") from None
        scale = max(np.max(np.abs(full)), 1e-300)
        deviations.append(float(np.max(np.abs(full - reduced)) / scale))
    # couplings near the overflow threshold turn both sides into NaN
    if not np.all(np.isfinite(deviations)):
        raise ConvergenceFailure(f"non-finite resolvent deviations {deviations!r}")
    return ResolventReport(probes=probes, deviations=deviations)


@dataclass(frozen=True)
class PoleComparison:
    """Effective-Hamiltonian eigenvalues vs discretized resonance poles."""

    reference: np.ndarray    # (3,) eigenvalues of the constant H_eff (energy units)
    poles: np.ndarray        # (3,) self-consistent poles z = eig(H_PP + Sigma(Re z))
    deviations: np.ndarray   # (3,) absolute |reference - pole|
    smoothing: float         # the i*eps used when sampling Sigma near the axis

    @property
    def max_deviation(self) -> float:
        return float(np.max(self.deviations))


def _eig3_nearest(mat: np.ndarray, z0: complex) -> complex:
    lams = np.linalg.eigvals(mat)
    return complex(lams[np.argmin(np.abs(lams - z0))])


def compare_pole_approximation(dm: DiscretizedModel, model: CouplingModel,
                               params: DimensionlessParams) -> PoleComparison:
    """Locate discretized resonance poles and compare with constant H_eff.

    The reference is hbar*Gamma_F/2 * (A + iB) built from ``params``
    (which must come from the same model via the microscopic route, so
    both paths share detunings and shifts).  Poles solve
    z = eig(H_PP + Sigma(z)); Sigma is sampled at Re(z) + i*eps with
    eps = 10 bin widths (per continuum), the standard smoothing that
    turns the rational bin sum into the half-plane limit of the continuum
    integral.  So a pole is a root of the real g(x) = Re lam_k(x) - x,
    lam_k tracked from the reference eigenvalue, and z = lam_k(x): a
    secant on x (Numerical Recipes 3rd ed., sec. 9.2) from x = Re z_ref
    stops at a step <= 1e-12 * max(1, |x|) and returns lam_k at the last
    x evaluated.  FixedPointDivergence is raised on a non-finite step or
    no root within _MAX_ITER = 500 steps, and ZeroWidth when the model's
    Gamma_F vanishes.
    """
    gamma_f = 2.0 * math.pi * float(model.v3(model.e3)) ** 2
    if gamma_f <= 0.0:
        raise ZeroWidth(f"Gamma_F={gamma_f!r} must be positive")
    ef = gamma_f / 2.0
    reference = eigensystem(build(params)).eigenvalues * ef

    eps_e = 10.0 * dm.e_width
    eps_bins = np.full(dm.n_q, eps_e)
    eps_bins[dm.e_centers.size:] = 10.0 * dm.k_width

    poles = np.empty(3, dtype=complex)
    for k, z0 in enumerate(reference):
        x, lam, x_prev, g_prev = float(z0.real), complex(z0), None, 0.0
        for _ in range(_MAX_ITER):
            mat = dm.h_pp + dm.sigma(x + 1j * eps_bins)
            # eigvals refuses a non-finite matrix; that is a non-finite step
            lam = _eig3_nearest(mat, lam) if np.isfinite(mat).all() else complex(math.nan)
            g = lam.real - x
            # the first step is x <- Re lam_k(x), a secant of slope -1
            slope = -1.0 if x_prev is None else (g - g_prev) / (x - x_prev)
            step = -g / slope if slope else math.inf
            if not math.isfinite(step):
                raise FixedPointDivergence(f"pole search from {z0!r}: non-finite step at x={x!r}")
            x_prev, g_prev, x = x, g, x + step
            if abs(step) <= 1e-12 * max(1.0, abs(x)):
                break
        else:
            raise FixedPointDivergence(
                f"pole search from {z0!r} found no root within {_MAX_ITER} iterations")
        poles[k] = lam
    return PoleComparison(
        reference=reference,
        poles=poles,
        deviations=np.abs(reference - poles),
        smoothing=float(eps_e),
    )


def smoothed_kernel_sum(f, e3: float, lo: float, hi: float, n_bins: int) -> complex:
    """Discrete analogue of the PV kernel: sum f(E_j) dE / (E3 + i eps - E_j).

    With eps = 10 dE, its real part converges to
    pv_integral(f, E3, upper=hi) as the grid refines; used as the
    cross-check between the quadrature and discretized routes.
    """
    centers, width = _midpoint_grid(lo, hi, n_bins)
    eps = 10.0 * width
    vals = np.asarray(f(centers), dtype=float)
    return complex(np.sum(vals * width / (e3 + 1j * eps - centers)))
