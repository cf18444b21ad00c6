"""Photoassociation spectra, peak metrics, and eta-deviation sweeps.

The dimensionless absorption spectrum of channel n is

    S_n(E_tilde) = (1/pi) * |[adj(E_tilde*I - (A+iB)) v]_n / det(E_tilde*I - (A+iB))|^2

with v = (sqrt(g1), sqrt(g2), 1), i.e. the cofactor combination
A_n1*sqrt(g1) + A_n2*sqrt(g2) + A_n3 over the determinant, where A is
the transpose of the cofactor matrix.  The dimensional prefactor
sqrt(2/(pi*hbar*Gamma_F)) of the raw amplitude is factored out; what is
reported is S_n(E)*E_F, the quantity the reference figures plot.

Width convention: W is the full width at 1/e of the peak height (not
FWHM).  For a Lorentzian of half-width-at-half-maximum h this gives
W = 2h*sqrt(e-1) ~ 2.622*h; Fano asymmetry makes the two crossings
unequal distances from the peak, so both are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConvergenceFailure, GainMode, MultiPeak, NoPeak, PoleHit,
                     ValidationError, _numerical)
from .hamiltonian import build, eigensystem
from .params import DimensionlessParams, _passive

_INV_E = 1.0 / math.e
_EPS = float(np.finfo(float).eps)


def _amplitude(mat: np.ndarray, v: np.ndarray, channel: int):
    """The complex amplitude of channel 1 or 2 as a function of a 1-d
    float array of abscissae.

    The channel check, the entries of M, their point-free products and
    the floor scales are taken once per matrix; a call shifts the diagonal
    once, as a (3, N) array, and one of det's minors is a cofactor of the
    numerator.  At an exact bound state in the continuum the real
    eigenvalue is a removable singularity (numerator and determinant share
    the root): points where det sits at its float rounding level, if any,
    are evaluated at a one-sided offset instead of returning a ratio of
    rounding residues.  A rounding-level determinant with a surviving
    numerator is a true real pole and raises PoleHit.
    """
    if channel not in (1, 2):
        raise ValidationError([f"channel must be 1 or 2, got {channel!r}"])
    diag = mat.diagonal()
    n01, n02, n12 = -mat[0, 1], -mat[0, 2], -mat[1, 2]
    n10, n20, n21 = -mat[1, 0], -mat[2, 0], -mat[2, 1]
    # the products of two off-diagonal entries do not depend on the point
    p12_21, p12_20, p10_21 = n12 * n21, n12 * n20, n10 * n21
    pc1, pc2 = (n02 * n21, n01 * n12) if channel == 1 else (n02 * n20, n02 * n10)
    v0, v1, v2 = v[0], v[1], v[2]
    # det and the numerator are cubic and quadratic in the point and the
    # entries: their float errors are a few eps * s^3 and eps * s^2 * max|v|
    # with s the dominant magnitude; 8x covers the operation count
    s_mat = max(1.0, float(np.max(np.abs(mat))))
    v_max = float(np.max(np.abs(v)))

    def det_and_numerator(e):
        # adj[n, j] is the (j, n) cofactor of eI - M: channel n needs cof(0..2, n-1).
        # A scalar e keeps numpy's scalar products, which round unlike its array loops
        n00, n11, n22 = e - (diag[:, None] if np.ndim(e) else diag)
        minor0, minor1 = n11 * n22 - p12_21, n10 * n22 - p12_20
        det = n00 * minor0 - n01 * minor1 + n02 * (p10_21 - n11 * n20)
        if channel == 1:
            return det, minor0 * v0 + -(n01 * n22 - pc1) * v1 + (pc2 - n02 * n11) * v2
        return det, -minor1 * v0 + (n00 * n22 - pc1) * v1 + -(n00 * n12 - pc2) * v2

    def resolve_rounding_zero(e: float, num: complex, floor_d: float) -> complex:
        """The amplitude where det sits below its rounding floor: a pole
        unless the numerator does too; else the limit at a one-sided
        offset, escalated until det clears its floor by 1e5 (relative
        accuracy ~1e-5, better where the amplitude is locally flat)."""
        s = max(s_mat, abs(e))
        if abs(num) >= 8.0 * _EPS * (s * s) * v_max:
            raise PoleHit(f"determinant vanishes at E_tilde={e!r} with nonzero numerator")
        h = 1e-9 * max(1.0, abs(e))
        for _ in range(6):
            det_off, num_off = det_and_numerator(complex(e + h))
            if abs(complex(det_off)) >= 1e5 * floor_d:
                return complex(num_off) / complex(det_off)
            h *= 32.0
        raise PoleHit(f"determinant stays at rounding level near E_tilde={e!r}")

    def amplitude(x: np.ndarray) -> np.ndarray:
        det, num = det_and_numerator(x)
        floor_d = 8.0 * _EPS * np.maximum(s_mat, np.abs(x)) ** 3
        # a NaN det is not tiny: its ratio is reported as non-finite, not as a pole
        tiny = np.abs(det) < floor_d
        if not tiny.any():
            return num / det
        amps = num / np.where(tiny, 1.0, det)
        for i in np.flatnonzero(tiny):
            amps[i] = resolve_rounding_zero(float(x[i]), complex(num[i]), float(floor_d[i]))
        return amps

    return amplitude


def _spectrum(params: DimensionlessParams, mat: np.ndarray, e1: complex,
              channel: int) -> Callable[[np.ndarray | float], np.ndarray | float]:
    """S_n of a solved parameter set: an array for an array, a float for a
    scalar, which is evaluated as a one-point array and so takes the same
    arithmetic as the same point inside a larger grid.

    A gain mode raises GainMode: B is not negative semidefinite and the
    least-damped e1 grows beyond the rounding allowance 1e-12*max(1, ||M||_F).
    """
    amplitude = _amplitude(
        mat, np.array([math.sqrt(params.g1), math.sqrt(params.g2), 1.0]), channel)
    if not _passive(params) and e1.imag > 1e-12 * max(1.0, float(np.linalg.norm(mat))):
        raise GainMode(f"least-damped eigenvalue {complex(e1)!r} grows (Im E1 > 0)")

    def f(grid):
        x = np.atleast_1d(np.asarray(grid, dtype=float))
        vals = np.abs(amplitude(x)) ** 2 / math.pi
        return vals if np.ndim(grid) else float(vals[0])

    return f


@dataclass(frozen=True)
class SpectrumSeries:
    """Sampled spectrum: strictly increasing grid, finite nonnegative values."""

    grid: np.ndarray
    values: np.ndarray


@_numerical
def spectrum_series(params: DimensionlessParams, e_min: float, e_max: float,
                    n_points: int, channel: int = 1) -> SpectrumSeries:
    """Spectrum on a uniform grid with pole-aware local refinement.

    Around every eigenvalue whose real part falls in range and whose
    |Im| is below the base spacing, extra points are inserted: a fine
    core resolving the expected 1/e width with >= 32 samples plus a
    geometric bridge out to the base spacing.  The refinement floor is
    (e_max - e_min)/1e8, so no narrower feature is silently skipped.
    """
    if not e_min < e_max:
        raise ValidationError([f"need e_min < e_max, got {e_min!r} >= {e_max!r}"])
    if n_points < 2:
        raise ValidationError([f"need n_points >= 2, got {n_points!r}"])
    span = e_max - e_min
    base = np.linspace(e_min, e_max, int(n_points))
    spacing = span / (int(n_points) - 1)
    if np.any(np.diff(base) <= 0.0):
        raise ValidationError([f"grid [{e_min!r}, {e_max!r}] at {n_points!r} points: "
                               f"spacing {spacing!r} is below float resolution"])
    mat = build(params)
    eig = eigensystem(mat)
    f = _spectrum(params, mat, eig.eigenvalues[0], channel)
    extras = []
    for lam in eig.eigenvalues:
        re, im = float(lam.real), abs(float(lam.imag))
        if not (e_min < re < e_max) or im >= spacing:
            continue
        w = max(im, span / 1e8)
        half_width = 1.311 * w  # half of the Lorentzian 1/e full width
        core = re + np.linspace(-2.0, 2.0, 129) * half_width
        bridges = []
        step = 2.0 * half_width
        while step < 2.0 * spacing:
            step *= 2.0
            bridges.extend((re - step, re + step))
        extras.append(core)
        if bridges:
            extras.append(np.array(bridges))
    if extras:
        grid = np.concatenate([base] + extras)
        grid = grid[(grid >= e_min) & (grid <= e_max)]
        grid = np.unique(grid)
    else:
        grid = base
    values = f(grid)
    if not np.all(np.isfinite(values)):
        raise ConvergenceFailure("spectrum evaluation returned non-finite values")
    return SpectrumSeries(grid=grid, values=values)


@dataclass(frozen=True)
class PeakMetrics:
    """Peak location, height and 1/e crossings of a single resonance.

    ``baseline`` is the smooth non-resonant level subtracted before the
    1/e rule was applied (0.0 when the peak dominates and the raw
    spectrum was measured directly); ``height`` is always the feature
    height above that level.  ``refined`` is False only for poles too
    narrow to resolve numerically, whose width is reported as the
    analytic Lorentzian limit 2*sqrt(e-1)*|Im E1|.
    """

    e_peak: float
    height: float
    width_w: float
    left_cross: float
    right_cross: float
    refined: bool
    baseline: float = 0.0

    def __post_init__(self):
        if not (self.left_cross < self.e_peak < self.right_cross):
            raise ValueError(
                f"crossings must bracket the peak: {self.left_cross!r}, "
                f"{self.e_peak!r}, {self.right_cross!r}")


def _merge_plateaus(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima, treating equal runs as one point.

    A run of equal values counts when the point before it is lower and
    the point after it is lower; its middle index is reported.  Runs
    touching either end of the array never count.
    """
    # starts: first index of each run entered from below
    starts = np.flatnonzero(ys[1:] > ys[:-1]) + 1
    # last index of every run of equal values, the final index included
    run_ends = np.append(np.flatnonzero(ys[1:] != ys[:-1]), len(ys) - 1)
    ends = run_ends[np.searchsorted(run_ends, starts)]
    inner = ends < len(ys) - 1
    starts, ends = starts[inner], ends[inner]
    falls = ys[ends] > ys[ends + 1]
    return (starts[falls] + ends[falls]) // 2


#: abscissae of refine_peak's coarse scan
_N_COARSE = 801
#: levels of a search tree that refine_peak evaluates per call of f
_LOOKAHEAD = 5
#: sections a crossing bracket is cut into per call of f
_SECTIONS = 64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _values(f, x: np.ndarray) -> np.ndarray:
    """f on the abscissae x as floats of x's shape (a constant is broadcast)."""
    vals = np.asarray(f(x), dtype=float)
    return vals if vals.shape == x.shape else np.broadcast_to(vals, x.shape)


def _golden_tree(a, b, c, d, xtol: float, depth: int = _LOOKAHEAD) -> list:
    """Abscissae golden section may ask for in its next depth steps from
    bracket (a, b), both outcomes followed with the loop's own float
    operations: the new c of a step to (a, d), the new d of a step to
    (c, b), and the midpoint of a bracket at which the search stops."""
    if (b - a) <= xtol:
        return [0.5 * (a + b)]
    if not depth:
        return []
    new_c = d - _INVPHI * (d - a)
    new_d = c + _INVPHI * (b - c)
    return ([new_c, new_d] + _golden_tree(a, d, new_c, c, xtol, depth - 1)
            + _golden_tree(c, b, d, new_d, xtol, depth - 1))


def refine_peak(f: Callable[[np.ndarray | float], np.ndarray | float],
                window: tuple[float, float],
                seeds: Sequence[float] = ()) -> PeakMetrics:
    """Locate the dominant maximum of f in window and its 1/e crossings.

    The engine is physics-agnostic (used as-is for the synthetic
    Lorentzian calibration): coarse scan plus caller seeds, golden
    section to relative 1e-12 on the abscissa, then the two crossings at
    height/e to 1e-12*|window|, each bracketed by the scan and cut into
    _SECTIONS parts per round until it is within tolerance or stops
    shrinking.  A round is one call of f on the open brackets, whose kept
    sections are chosen in plain Python.  A line takes about 12 calls of f.

    f must map a numpy array of abscissae elementwise (a constant return
    value is broadcast).  A golden-section call evaluates the point a step
    needs together with those the next steps could need, whichever way
    they go: its result is that of a point-by-point search provided f
    gives a point the same value inside any array.  If such a call
    raises, the needed point is evaluated alone, as a float; a failure in
    a crossing round propagates, as all its points are part of the search.

    Near a bound state in the continuum the resonance decouples from
    the entrance channel, so its line can ride on a non-resonant floor
    that never drops to 1/e of the absolute maximum.  When the raw
    maximum is below e^2 times the local floor, a linear baseline
    through the outer twentieths of the window is subtracted and the
    1/e rule is applied to the feature above it; the subtracted level
    at the peak is reported in PeakMetrics.baseline.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"empty window ({lo!r}, {hi!r})")
    xs = np.linspace(lo, hi, _N_COARSE)
    inside = [s for s in np.asarray(seeds, dtype=float) if lo < s < hi]
    if inside:
        xs = np.unique(np.concatenate([xs, np.array(inside)]))
    ys = _values(f, xs)
    if not np.all(np.isfinite(ys)):
        raise ConvergenceFailure("spectrum evaluation returned non-finite values")
    if ys.max() <= 0.0:
        raise NoPeak("window contains no positive spectral weight")

    # linear floor through the outer 5% of the window on each side
    margin = 0.05 * (hi - lo)
    lmask = xs <= lo + margin
    rmask = xs >= hi - margin
    bx1, by1 = xs[lmask].mean(), ys[lmask].mean()
    bx2, by2 = xs[rmask].mean(), ys[rmask].mean()
    slope = (by2 - by1) / (bx2 - bx1)

    def floor(x):
        return by1 + slope * (x - bx1)

    im = int(np.argmax(ys))
    if ys[im] >= math.e ** 2 * floor(xs[im]):
        base, work_ys, feature = None, ys, f
    else:
        base, work_ys, feature = floor, ys - floor(xs), lambda x: f(x) - floor(x)
        im = int(np.argmax(work_ys))
    if im == 0 or im == len(xs) - 1:
        raise NoPeak(f"maximum sits on the window edge at {float(xs[im])!r}; no interior peak")
    top = work_ys[im]
    # a feature below the rounding noise of the subtraction is no feature
    if top <= 1e-12 * float(np.max(np.abs(ys))):
        raise NoPeak("window contains no feature above its local floor")
    locs = _merge_plateaus(xs, work_ys)
    tall = locs[work_ys[locs] >= top * _INV_E]
    for a in range(len(tall)):
        for b in range(a + 1, len(tall)):
            valley = work_ys[tall[a]:tall[b] + 1].min()
            if valley <= min(work_ys[tall[a]], work_ys[tall[b]]) * (1.0 - 1e-6):
                raise MultiPeak(
                    f"two separated maxima near {float(xs[tall[a]])!r} and {float(xs[tall[b]])!r} "
                    "are within 1/e of each other; narrow the window")

    # every golden-section step asks work for one point
    memo: dict[float, float] = {}

    def work(x, ahead: Callable[[], list]) -> float:
        """The feature at x; a miss evaluates x together with ahead()."""
        if x not in memo:
            pts = np.array([x] + ahead(), dtype=float)
            try:
                memo.update(zip(pts.tolist(), _values(feature, pts).tolist()))
            except Exception:
                # f may fail at a point the search never visits, and such a
                # point must not decide the outcome: evaluate x alone
                memo[x] = feature(x)
        return memo[x]

    # golden-section refinement on the three-point bracket
    a, b = float(xs[im - 1]), float(xs[im + 1])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    xtol = 1e-12 * max(1.0, abs(float(xs[im])))
    fc = work(c, lambda: [d] + _golden_tree(a, b, c, d, xtol))
    fd = work(d, lambda: _golden_tree(a, b, c, d, xtol))
    while (b - a) > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = work(c, lambda: _golden_tree(a, b, c, d, xtol))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = work(d, lambda: _golden_tree(a, b, c, d, xtol))
    e_peak = 0.5 * (a + b)
    height = work(e_peak, list)
    if height <= 0.0:
        raise NoPeak("refined peak has no positive height")
    target = height * _INV_E
    cross_tol = 1e-12 * (hi - lo)

    # [inner, outer] ends of the right and left crossing brackets, from the scan
    ends = []
    for side, step, edge in ((xs > e_peak, 1, hi), (xs < e_peak, -1, lo)):
        out = np.flatnonzero(side & (work_ys <= target))
        if not len(out):
            raise NoPeak(f"spectrum never falls to 1/e of the peak before the "
                         f"window edge at {edge!r}")
        j = out[0] if step > 0 else out[-1]
        ends.append([float(xs[j - step]) if side[j - step] else e_peak, float(xs[j])])
    fractions = np.arange(1, _SECTIONS) / _SECTIONS
    open_ = [end for end in ends if abs(end[1] - end[0]) > cross_tol]
    while open_:
        x_in, x_out = np.array(open_).T[:, :, None]
        nodes = x_in + (x_out - x_in) * fractions
        below = (_values(feature, nodes.ravel()) <= target).reshape(nodes.shape).tolist()
        still = []
        for end, inner, row in zip(open_, nodes.tolist(), below):
            # keep the section ending at the first node at or below target
            k = (row + [True]).index(True)
            kept = ([end[0]] + inner + [end[1]])[k:k + 2]
            if kept != end and abs(kept[1] - kept[0]) > cross_tol:
                still.append(end)
            end[:] = kept
        open_ = still
    right, left = (0.5 * (x0 + x1) for x0, x1 in ends)
    return PeakMetrics(e_peak=float(e_peak), height=float(height), width_w=right - left,
                       left_cross=left, right_cross=right, refined=True,
                       baseline=float(base(e_peak)) if base is not None else 0.0)


#: 1/e full width of a Lorentzian per unit half-width-at-half-maximum
LORENTZ_WIDTH_FACTOR = 2.0 * math.sqrt(math.e - 1.0)


@_numerical
def peak_metrics(params: DimensionlessParams, channel: int = 1) -> PeakMetrics:
    """Peak metrics of the resonance of the least-damped eigenvalue E1.

    The window is centered on E1 and kept clear of the other
    resonances.  A pole too narrow for float abscissae (|Im E1| below
    1e-10 of scale) is reported analytically from the Lorentzian limit
    with refined=False instead of chasing sub-ulp crossings.  A gain
    mode (B not negative semidefinite and Im E1 above 1e-12*max(1, ||M||_F))
    is no resonance and raises GainMode.
    """
    mat = build(params)
    return _peak_metrics(params, mat, eigensystem(mat).eigenvalues, channel, None)


def _peak_metrics(params: DimensionlessParams, mat: np.ndarray,
                  eigenvalues: np.ndarray, channel: int,
                  search_window: tuple[float, float] | None) -> PeakMetrics:
    """peak_metrics for a parameter set whose matrix is already solved,
    in search_window when one is given."""
    e1 = eigenvalues[0]
    f = _spectrum(params, mat, e1, channel)
    in_window = search_window is None or (search_window[0] < e1.real < search_window[1])
    if 0.0 < abs(e1.imag) < 1e-10 * max(1.0, abs(e1.real)) and in_window:
        c = float(e1.real)
        half = 0.5 * LORENTZ_WIDTH_FACTOR * abs(float(e1.imag))
        left = min(float(np.nextafter(c, -np.inf)), c - half)
        right = max(float(np.nextafter(c, np.inf)), c + half)
        return PeakMetrics(e_peak=c, height=f(c), width_w=float(right - left),
                           left_cross=left, right_cross=right, refined=False)
    if search_window is None:
        search_window = _auto_window(eigenvalues)
    return refine_peak(f, search_window, seeds=_pole_seeds(eigenvalues, search_window))


def _auto_window(eigenvalues: np.ndarray) -> tuple[float, float]:
    """Window around the least-damped mode.

    Three full 1/e widths on each side comfortably contains the
    crossings (~0.5 widths out for a Lorentzian, a few widths for a
    strongly asymmetric line).  Only resonances sharp enough to carve
    their own structure inside that span cap the window; a pole much
    broader than the window is a smooth floor, which the baseline
    handling in refine_peak absorbs.
    """
    e1 = eigenvalues[0]
    w_est = max(abs(e1.imag), 1e-10 * max(1.0, abs(e1.real)))
    half = 3.0 * LORENTZ_WIDTH_FACTOR * w_est
    for lam in eigenvalues[1:]:
        sep = abs(e1.real - lam.real)
        if sep > 1e-9 and abs(lam.imag) < half:
            half = min(half, 0.45 * sep)
    half = max(half, 2.0 * w_est)
    return (float(e1.real - half), float(e1.real + half))


def _pole_seeds(eigenvalues: np.ndarray, window: tuple[float, float]) -> list[float]:
    lo, hi = window
    seeds = []
    for lam in eigenvalues:
        re, im = float(lam.real), abs(float(lam.imag))
        if not lo < re < hi:
            continue
        w = max(im, 1e-13 * max(1.0, abs(re)))
        for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            seeds.append(re + k * w)
    return seeds


@dataclass(frozen=True)
class EtaPoint:
    """One record of an eta sweep; metrics is None when error is set."""

    eta: float
    metrics: PeakMetrics | None
    eigenvalues: np.ndarray
    re_e1: float
    im_e1: float
    error: str | None = None


@dataclass(frozen=True)
class EtaSweepResult:
    """Sweep records in input order."""

    points: list[EtaPoint]

    def widths(self) -> list[float | None]:
        return [p.metrics.width_w if p.metrics else None for p in self.points]


def _sweep_one(params: DimensionlessParams, eta: float, channel: int,
               window: tuple[float, float] | None) -> EtaPoint:
    p = params.replace(eta=float(eta))
    mat = build(p)
    eig = eigensystem(mat)
    e1 = eig.eigenvalues[0]
    try:
        metrics = _peak_metrics(p, mat, eig.eigenvalues, channel, window)
        err = None
    except (NoPeak, MultiPeak, PoleHit, GainMode) as exc:
        metrics, err = None, f"{type(exc).__name__}: {exc}"
    return EtaPoint(eta=float(eta), metrics=metrics,
                    eigenvalues=eig.eigenvalues.copy(),
                    re_e1=float(e1.real), im_e1=float(e1.imag), error=err)


@_numerical
def sweep_eta(params: DimensionlessParams, eta_list: Sequence[float],
              channel: int = 1,
              window: tuple[float, float] | None = None) -> EtaSweepResult:
    """Peak metrics and least-damped eigenvalue per eta, in input order.

    Per-eta spectral failures (NoPeak, MultiPeak, PoleHit, GainMode) are
    recorded on the point instead of aborting the sweep.
    """
    etas = [float(x) for x in eta_list]
    if not etas:
        raise ValueError("eta_list must be nonempty")
    return EtaSweepResult(points=[_sweep_one(params, eta, channel, window)
                                  for eta in etas])
