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
  On a grid without photon bins the deviation is dominated by the vacuum
  block that H_eff carries and the grid lacks, and by the i*eps smoothing,
  not by the freeze-at-E3 approximation (ROADMAP.md, item 10).

Vacuum-sector convention: photon-bin couplings carry an extra sqrt(2)
so the resulting decay rates are gamma_n = 4 pi V_nf^2, matching the
stated spontaneous rates (the source's k-integrals carry twice the
naive golden-rule weight).  The two photon continua share one grid; a
dipole overlap p makes |e2> couple to the |e1> continuum with weight p
and to an orthogonal one with weight sqrt(1 - p^2), reproducing the
cross damping gamma_VIC = 4 pi V1f V2f p that derive_couplings uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConvergenceFailure, Degenerate, ValidationError, _numerical,
                     _require_complex, _require_counts, _require_finite)
from .hamiltonian import build, eigensystem
from .microscopic import CouplingModel, FlatCoupling, _coupling_values, _quad
from .params import DimensionlessParams

_TAIL_FRACTION = 1e-8
_MAX_ITER = 500  # iteration budget of compare_pole_approximation's pole search
#: the i*eps of a sampled kernel, in bin widths
_SMOOTHING_BINS = 10.0


@dataclass(frozen=True)
class GridSpec:
    """Bin layout: collision grid [e_min, e_max] x n_e, photon grid
    [k_min, k_max] x n_k per continuum (n_k = 0 disables the vacuum
    sector).  Bounds are finite; counts are integers."""

    e_min: float
    e_max: float
    n_e: int
    k_min: float = 0.0
    k_max: float = 0.0
    n_k: int = 0

    def __post_init__(self):
        _require_counts(n_e=self.n_e, n_k=self.n_k)
        _require_finite(e_min=self.e_min, e_max=self.e_max, k_min=self.k_min, k_max=self.k_max)
        if not (self.e_min >= 0.0 and self.e_max > self.e_min):
            raise ValidationError(f"collision grid [{self.e_min!r}, {self.e_max!r}] invalid")
        if self.n_e < 1:
            raise ValidationError(f"n_e must be >= 1, got {self.n_e!r}")
        if self.n_k < 0:
            raise ValidationError(f"n_k must be >= 0, got {self.n_k!r}")
        if self.n_k > 0 and not (self.k_min >= 0.0 and self.k_max > self.k_min):
            raise ValidationError(f"photon grid [{self.k_min!r}, {self.k_max!r}] invalid")


def _midpoint_grid(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    width = (hi - lo) / n
    centers = lo + (np.arange(n) + 0.5) * width
    return centers, width


def _coverage_fraction(name: str, fn, lo: float, hi: float, held: float) -> float:
    """Weight of fn^2 outside [lo, hi] relative to that weight plus held,
    the weight the grid holds (sum_j fn(E_j)^2 dE over its bins); fn is
    the coupling called name, read through _coupling_values, and a held
    weight that overflowed is an OverflowError.  Each tail is one quad at
    its default tolerances (1.49e-8 absolute and relative), past hi by
    QUADPACK's infinite-range rule QAGI; a QUADPACK message is a
    ConvergenceFailure naming its tail, ``past E=hi`` or ``below E=lo``."""

    def f2(e):
        return _coupling_values(name, fn, e) ** 2

    below = _quad(f"|{name}|^2 below E={lo:.3e}", f2, 0.0, lo, limit=200) if lo > 0.0 else 0.0
    above = _quad(f"|{name}|^2 past E={hi:.3e}", f2, hi, math.inf, limit=200)
    total = below + held + above
    if math.isinf(total):
        raise OverflowError(f"held weight of f^2 is {held!r}")
    return (below + above) / total if total > 0.0 else 0.0


@dataclass(frozen=True)
class DiscretizedModel:
    """Discretized full Hamiltonian in factored form.

    h_pp       3x3 block of the discrete states (diagonal energies plus
               the direct bound-bound couplings)
    coupling   3 x n_q block C of P-Q couplings (rows: e1, e2, c)
    diag_q     n_q bin energies
    bin_width  n_q bin widths: dE on the collision bins, dk on the photon bins
    The assembled matrix [[h_pp, C], [C^T, diag(diag_q)]] is available
    from matrix() as a sparse array; it is symmetric real, hence exactly
    Hermitian, and has no continuum-continuum coupling by construction.
    """

    h_pp: np.ndarray
    coupling: np.ndarray
    diag_q: np.ndarray
    bin_width: np.ndarray

    @property
    def n_q(self) -> int:
        return self.diag_q.size

    @property
    def size(self) -> int:
        return 3 + self.n_q

    def matrix(self):
        """H as a scipy.sparse CSC array of 9 + 7 n_q stored entries."""
        from scipy.sparse import csc_array  # imported on use, see microscopic._quad

        p, q = np.arange(3), np.arange(3, self.size)
        c_rows, c_cols = np.repeat(p, self.n_q), np.tile(q, 3)
        rows = np.concatenate([np.repeat(p, 3), c_rows, c_cols, q])
        cols = np.concatenate([np.tile(p, 3), c_cols, c_rows, q])
        vals = np.concatenate([self.h_pp.ravel(), self.coupling.ravel(),
                               self.coupling.ravel(), self.diag_q])
        return csc_array((vals, (rows, cols)), shape=(self.size, self.size))

    def sigma(self, z) -> np.ndarray:
        """Level-shift matrix Sigma(z) = C (z - D)^-1 C^T (3x3 complex).

        z is one complex value, one value per bin (n_q of them), or k
        stacked values of shape (k, 1, 1) for a (k, 3, 3) stack."""
        weights = self.coupling / (z - self.diag_q)
        return weights @ self.coupling.T


@_numerical
def discretize(model: CouplingModel, grid: GridSpec,
               e1_rot: float = 0.0, e2_rot: float = 0.0) -> DiscretizedModel:
    """Assemble the discretized Hamiltonian for a coupling model.

    e1_rot, e2_rot are the rotating-frame energies E_n - hbar*omega_n of the
    dressed states.  A coupling that breaks the CouplingModel contract on
    the grid is a ValidationError, raised before any quadrature, as is one
    that breaks it at a node of a tail outside the grid, and so is a grid
    that misses more than 1e-8 of any decaying coupling's weight, the
    weight inside being what its bins hold (sum_j C_nj^2, from the rows
    built anyway), so only the tails outside the grid are integrated; flat
    couplings are exempt (they model an idealized wide-band limit and carry
    no normalizable weight).
    """
    e1_rot, e2_rot = _require_finite(e1_rot=e1_rot, e2_rot=e2_rot)
    e_centers, e_width = _midpoint_grid(grid.e_min, grid.e_max, grid.n_e)
    root_de = math.sqrt(e_width)
    names, fns = ("lambda1", "lambda2", "v3"), (model.lambda1, model.lambda2, model.v3)
    rows = np.vstack([_coupling_values(name, fn, e_centers) * root_de
                      for name, fn in zip(names, fns)])
    held = np.sum(rows ** 2, axis=1)  # an overflow is reported by _coverage_fraction
    for name, fn, weight in zip(names, fns, held):
        if isinstance(fn, FlatCoupling):
            continue
        frac = _coverage_fraction(name, fn, grid.e_min, grid.e_max, float(weight))
        if frac > _TAIL_FRACTION:
            raise ValidationError(
                f"collision grid misses {frac:.3e} of |{name}|^2 "
                f"(tolerance {_TAIL_FRACTION:.1e})")

    h_pp = np.array([
        [e1_rot, 0.0, model.omega13],
        [0.0, e2_rot, model.omega23],
        [model.omega13, model.omega23, model.e3],
    ])
    coupling, diag_q, bin_width = rows, e_centers, np.full(grid.n_e, e_width)
    if grid.n_k > 0:
        k_centers, k_width = _midpoint_grid(grid.k_min, grid.k_max, grid.n_k)
        p = model.dipole_overlap
        ortho = math.sqrt(max(0.0, 1.0 - p * p))
        # one column per photon continuum: the one shared with |e1>, which
        # |e2> sees with overlap weight p, and its complement, |e2>'s alone
        photon = np.array([[model.v1f, 0.0], [model.v2f * p, model.v2f * ortho],
                           [0.0, 0.0]]) * math.sqrt(2.0 * k_width)
        coupling = np.hstack([rows, np.repeat(photon, grid.n_k, axis=1)])
        diag_q = np.concatenate([e_centers, k_centers, k_centers])
        bin_width = np.concatenate([bin_width, np.full(2 * grid.n_k, k_width)])
    return DiscretizedModel(h_pp=h_pp, coupling=coupling, diag_q=diag_q, bin_width=bin_width)


@dataclass(frozen=True)
class ResolventReport:
    """Per-probe relative deviations of the projected-resolvent identity."""

    probes: list[complex]
    deviations: list[float]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)


@_numerical
def resolvent_check(dm: DiscretizedModel,
                    probes: Sequence[complex] | None = None) -> ResolventReport:
    """Verify P (z-H)^-1 P = (z - H_PP - Sigma(z))^-1 at each probe.

    Both sides are computed on the same matrix, so this is an exact
    identity; deviations reflect linear-algebra conditioning only.  The
    default probes are 8 points on a rectangle enclosing the spectrum, of
    height max(1, Gamma-scale) with Gamma-scale = 2 pi max_n sum_q C_nq^2:
    far off the real axis both sides are well-conditioned.  A Gamma-scale
    that overflows is a ConvergenceFailure.

    The full side factors the sparse z - H once per probe with SuperLU
    (scipy.sparse.linalg.splu: COLAMD column order, partial pivoting) and
    solves for the three discrete-state columns.  z - H is an arrowhead
    (three border rows and columns plus a diagonal) whose continuum
    columns hold no supernodes, so it is factored in single-column panels:
    SuperLU's default 10-column panels only add dense workspace.  z - H is
    assembled once per check, as 1j - H, whose stored pattern is that of
    every z - H off the real axis (H's explicit zeros dropped, every
    diagonal kept); each probe writes z - H_ii into the diagonal slots, the
    same bits a fresh z - H holds.  The factorization sees the assembled
    matrix alone and picks its own order and pivots, so the full side
    stays independent of the Schur-complement side: one stacked Sigma(z)
    and one stacked 3x3 inverse over all probes.  An empty probe list, or a
    probe that is not a finite number (probes[i]), is a ValidationError, a
    probe on the real axis is Degenerate, and a failed factorization or a
    singular 3x3 is a ConvergenceFailure.
    """
    if probes is None:
        gamma_scale = 2.0 * math.pi * float(np.max(np.sum(dm.coupling ** 2, axis=1)))
        if not math.isfinite(gamma_scale):
            raise ConvergenceFailure(
                f"coupling scale 2 pi max_n sum_q C_nq^2 overflowed ({gamma_scale!r}): "
                "no finite default probes")
        height = max(1.0, gamma_scale)
        diag_all = np.concatenate([np.diag(dm.h_pp), dm.diag_q])
        lo, hi = float(np.min(diag_all)) - height, float(np.max(diag_all)) + height
        probes = [complex(r, s * height) for s in (+1.0, -1.0)
                  for r in np.linspace(lo, hi, 4)]
    else:
        probes = _require_complex(**{f"probes[{i}]": z for i, z in enumerate(probes)})
        if not probes:
            raise ValidationError("probes: must be nonempty")
    for z in probes:
        if abs(z.imag) < 1e-12:
            raise Degenerate(f"probe {z!r} sits on the real axis")
    from scipy.sparse import csc_array  # imported on use, see microscopic._quad
    from scipy.sparse.linalg import splu

    h = dm.matrix()
    diag = np.arange(dm.size)
    shifted = csc_array((np.ones(dm.size), (diag, diag))) * 1j - h
    slots = np.flatnonzero(shifted.indices == np.repeat(diag, np.diff(shifted.indptr)))
    h_diag = h.diagonal()
    columns = np.eye(dm.size, 3)
    full = np.empty((len(probes), 3, 3), dtype=complex)
    for k, z in enumerate(probes):
        shifted.data[slots] = z - h_diag
        try:
            full[k] = splu(shifted, panel_size=1).solve(columns)[:3]
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise ConvergenceFailure(f"resolvent solve failed: splu: {exc}") from None
    zs = np.array(probes)[:, None, None]
    try:
        reduced = np.linalg.inv(zs * np.eye(3) - dm.h_pp - dm.sigma(zs))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"resolvent solve failed: {exc}") from None
    scale = np.maximum(np.max(np.abs(full), axis=(1, 2)), 1e-300)
    deviations = (np.max(np.abs(full - reduced), axis=(1, 2)) / scale).tolist()
    # couplings near the overflow threshold turn both sides into NaN
    if not np.all(np.isfinite(deviations)):
        raise ConvergenceFailure(f"non-finite resolvent deviations {deviations!r}")
    return ResolventReport(probes=probes, deviations=deviations)


@dataclass(frozen=True)
class PoleComparison:
    """Effective-Hamiltonian eigenvalues vs discretized resonance poles."""

    reference: np.ndarray    # (3,) eigenvalues of the constant H_eff (energy units)
    poles: np.ndarray        # (3,) self-consistent poles z = eig(H_PP + Sigma(Re z))
    smoothing: float         # the i*eps of the collision bins when sampling Sigma

    @property
    def deviations(self) -> np.ndarray:
        """(3,) absolute |reference - pole|."""
        return np.abs(self.reference - self.poles)

    @property
    def max_deviation(self) -> float:
        return float(np.max(self.deviations))


def _eig3_nearest(mat: np.ndarray, z0: complex) -> complex:
    lams = np.linalg.eigvals(mat)
    return complex(lams[np.argmin(np.abs(lams - z0))])


@_numerical
def compare_pole_approximation(dm: DiscretizedModel, model: CouplingModel,
                               params: DimensionlessParams) -> PoleComparison:
    """Locate discretized resonance poles and compare with constant H_eff.

    The reference is hbar*Gamma_F/2 * (A + iB) built from ``params``
    (which must come from the same model via the microscopic route, so
    both paths share detunings and shifts).  Poles solve
    z = eig(H_PP + Sigma(z)); Sigma is sampled at Re(z) + i*eps with
    eps = _SMOOTHING_BINS = 10 bin widths (per continuum), the standard
    smoothing that turns the rational bin sum into the half-plane limit
    of the continuum integral.  So a pole is a root of the real
    g(x) = Re lam_k(x) - x, lam_k tracked from the reference eigenvalue,
    and z = lam_k(x): a secant on x (Numerical Recipes 3rd ed., sec. 9.2)
    from x = Re z_ref stops at a step <= 1e-12 * max(1, |x|) and returns
    lam_k at the last x evaluated.  ConvergenceFailure is raised on a
    non-finite step or no root within _MAX_ITER = 500 steps, and Degenerate
    when the model's Gamma_F, from v3(E3) held to the CouplingModel
    contract, vanishes.  Without photon bins, other errors dominate the
    deviations (module docstring).
    """
    gamma_f = 2.0 * math.pi * _coupling_values("v3", model.v3, model.e3) ** 2
    if gamma_f <= 0.0:
        raise Degenerate(f"Gamma_F={gamma_f!r} must be positive")
    ef = gamma_f / 2.0
    reference = eigensystem(build(params)).eigenvalues * ef

    eps_bins = _SMOOTHING_BINS * dm.bin_width

    poles = np.empty(3, dtype=complex)
    for k, z0 in enumerate(reference.tolist()):
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
                raise ConvergenceFailure(f"pole search from {z0!r}: non-finite step at x={x!r}")
            x_prev, g_prev, x = x, g, x + step
            if abs(step) <= 1e-12 * max(1.0, abs(x)):
                break
        else:
            raise ConvergenceFailure(
                f"pole search from {z0!r} found no root within {_MAX_ITER} iterations")
        poles[k] = lam
    return PoleComparison(reference=reference, poles=poles, smoothing=float(eps_bins[0]))


def smoothed_kernel_sum(f, e3: float, lo: float, hi: float, n_bins: int) -> complex:
    """Discrete analogue of the PV kernel: sum f(E_j) dE / (E3 + i eps - E_j).

    With eps = _SMOOTHING_BINS * dE = 10 dE, its real part converges to
    pv_integral(f, E3, upper=hi) as the grid refines; used as the
    cross-check between the quadrature and discretized routes.  e3 and
    the bounds must be finite with lo < hi, and n_bins a positive integer.
    """
    _require_counts(n_bins=n_bins)
    _require_finite(e3=e3, lo=lo, hi=hi)
    if not lo < hi:
        raise ValidationError(f"need lo < hi, got {lo!r} >= {hi!r}")
    if n_bins < 1:
        raise ValidationError(f"n_bins must be >= 1, got {n_bins!r}")
    centers, width = _midpoint_grid(lo, hi, n_bins)
    eps = _SMOOTHING_BINS * width
    vals = np.asarray(f(centers), dtype=float)
    return complex(np.sum(vals * width / (e3 + 1j * eps - centers)))
