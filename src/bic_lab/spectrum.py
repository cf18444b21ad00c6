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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConvergenceFailure, GainMode, MultiPeak, NoPeak, PoleHit,
                     ValidationError)
from .hamiltonian import EffectivePair, build, eigensystem
from .params import DimensionlessParams

_INV_E = 1.0 / math.e
_EPS = float(np.finfo(float).eps)


def _coupling_vector(params: DimensionlessParams) -> np.ndarray:
    return np.array([math.sqrt(params.g1), math.sqrt(params.g2), 1.0])


def _det_floor(mat: np.ndarray, e_abs) -> np.ndarray | float:
    """Rounding level of the cubic determinant at abscissa magnitude e_abs.

    det is a degree-3 polynomial of the point and the matrix entries, so
    its float evaluation carries an absolute error of a few eps * s^3
    with s the dominant magnitude; 8x covers the operation count.
    """
    s = np.maximum(1.0, np.maximum(e_abs, float(np.max(np.abs(mat)))))
    return 8.0 * _EPS * s ** 3


def _num_floor(mat: np.ndarray, v: np.ndarray, e_abs) -> np.ndarray | float:
    s = np.maximum(1.0, np.maximum(e_abs, float(np.max(np.abs(mat)))))
    return 8.0 * _EPS * s ** 2 * float(np.max(np.abs(v)))


def _resolve_rounding_zero(mat: np.ndarray, v: np.ndarray, e: float,
                           channel: int, num: complex, floor_d: float,
                           floor_n: float) -> complex:
    """Amplitude at a point where det sits below its rounding floor.

    A numerator above its own rounding floor means the pole does not
    cancel: a true real pole.  Otherwise the point is removable (the
    bound state in the continuum shares the root) and the limit is read
    off at a one-sided offset, escalated until det clears its rounding
    floor by 1e5 so the ratio is dominated by the limit rather than by
    the residues (relative accuracy ~1e-5, better when the amplitude is
    locally flat).
    """
    if abs(num) >= floor_n:
        raise PoleHit(
            f"determinant vanishes at E_tilde={e!r} with nonzero numerator")
    h = 1e-9 * max(1.0, abs(e))
    for _ in range(6):
        det_off, num_off = _det_and_numerator(mat, v, complex(e + h), channel)
        if abs(complex(det_off)) >= 1e5 * floor_d:
            return complex(num_off) / complex(det_off)
        h *= 32.0
    raise PoleHit(f"determinant stays at rounding level near E_tilde={e!r}")


def _det_and_numerator(mat: np.ndarray, v: np.ndarray, e, channel: int):
    """det(eI - M) and [adj(eI - M) v]_channel, vectorized over e.

    Only the needed adjugate row is formed: adj[n, j] is the (j, n)
    cofactor of N = eI - M, so three cofactors suffice per channel.
    """
    e = np.asarray(e, dtype=complex)
    n00 = e - mat[0, 0]
    n11 = e - mat[1, 1]
    n22 = e - mat[2, 2]
    n01, n02, n12 = -mat[0, 1], -mat[0, 2], -mat[1, 2]
    n10, n20, n21 = -mat[1, 0], -mat[2, 0], -mat[2, 1]
    det = (n00 * (n11 * n22 - n12 * n21)
           - n01 * (n10 * n22 - n12 * n20)
           + n02 * (n10 * n21 - n11 * n20))
    if channel == 1:
        c0 = n11 * n22 - n12 * n21          # cof(0,0)
        c1 = -(n01 * n22 - n02 * n21)       # cof(1,0)
        c2 = n01 * n12 - n02 * n11          # cof(2,0)
    else:
        c0 = -(n10 * n22 - n12 * n20)       # cof(0,1)
        c1 = n00 * n22 - n02 * n20          # cof(1,1)
        c2 = -(n00 * n12 - n02 * n10)       # cof(2,1)
    num = c0 * v[0] + c1 * v[1] + c2 * v[2]
    return det, num


def _amplitudes(mat: np.ndarray, v: np.ndarray, grid: np.ndarray,
                channel: int) -> np.ndarray:
    """Complex photoassociation amplitude of channel 1 or 2 at every point
    of a 1-d grid, for every spectrum caller.

    The channel is checked here, so no caller computes a channel that
    does not exist.  At an exact bound state in the continuum the real
    eigenvalue is a removable singularity (numerator and determinant
    share the root); points where det sits at its float rounding level
    are evaluated at a one-sided offset instead of returning a ratio of
    rounding residues.  A rounding-level determinant with a surviving
    numerator is a true real pole and raises PoleHit.
    """
    if channel not in (1, 2):
        raise ValidationError([f"channel must be 1 or 2, got {channel!r}"])
    det, num = _det_and_numerator(mat, v, grid, channel)
    amps = np.empty(grid.shape, dtype=complex)
    floor_d = _det_floor(mat, np.abs(grid))
    tiny = np.abs(det) < floor_d
    ok = ~tiny
    amps[ok] = num[ok] / det[ok]
    if np.any(tiny):
        floor_n = _num_floor(mat, v, np.abs(grid))
        for i in np.flatnonzero(tiny):
            amps[i] = _resolve_rounding_zero(mat, v, float(grid[i]), channel,
                                             complex(num[i]), float(floor_d[i]),
                                             float(floor_n[i]))
    return amps


def _spectrum_values(mat: np.ndarray, v: np.ndarray, grid: np.ndarray | float,
                     channel: int) -> np.ndarray | float:
    """S_n at the points of grid: an array for an array, a float for a scalar.

    A scalar is evaluated as a one-point array, so it takes the same
    arithmetic as the same point inside a larger grid.
    """
    x = np.atleast_1d(np.asarray(grid, dtype=float))
    vals = np.abs(_amplitudes(mat, v, x, channel)) ** 2 / math.pi
    return vals if np.ndim(grid) else float(vals[0])


@dataclass(frozen=True)
class SpectrumSeries:
    """Sampled spectrum: strictly increasing grid, nonnegative values."""

    grid: np.ndarray
    values: np.ndarray
    channel: int

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != vals.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if not np.all(np.diff(g) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise ValueError("values must be finite and nonnegative")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", vals)


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
    pair = build(params)
    eig = eigensystem(pair)
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
    values = _spectrum_values(pair.matrix(), _coupling_vector(params), grid, channel)
    if not np.all(np.isfinite(values)):
        raise ConvergenceFailure("spectrum evaluation returned non-finite values")
    return SpectrumSeries(grid=grid, values=values, channel=channel)


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
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_tree(a, b, c, d, xtol: float) -> np.ndarray:
    """Abscissae golden section may ask for next from bracket (a, b).

    Both outcomes of each of the next _LOOKAHEAD steps are followed
    with the loop's own float operations: the new c of a step to (a, d),
    the new d of a step to (c, b), and the midpoint of every bracket at
    which the search stops.
    """
    a, b, c, d = (np.array([v], dtype=float) for v in (a, b, c, d))
    out = []
    for level in range(_LOOKAHEAD + 1):
        done = (b - a) <= xtol
        if done.any():
            out.append(0.5 * (a[done] + b[done]))
            a, b, c, d = a[~done], b[~done], c[~done], d[~done]
        if level == _LOOKAHEAD or not len(a):
            break
        new_c = d - _INVPHI * (d - a)
        new_d = c + _INVPHI * (b - c)
        out += [new_c, new_d]
        # the left children (a, d, new_c, c), then the right ones (c, b, d, new_d)
        a, b, c, d = np.concatenate((a, c, d, b, new_c, d, c, new_d)).reshape(4, -1)
    return np.concatenate(out)


def _bisection_tree(x_in, x_out, tol: float) -> np.ndarray:
    """Midpoints bisection of (x_in, x_out) may visit in _LOOKAHEAD steps.

    Both outcomes of each step are followed with the loop's own float
    operations.  The loop's stop tests are applied last: every bracket
    inside a stopped one fails them too, so this drops exactly the
    points below a stop.
    """
    x_in, x_out = np.array([x_in], dtype=float), np.array([x_out], dtype=float)
    ins, outs, mids = [], [], []
    for _ in range(_LOOKAHEAD):
        mid = 0.5 * (x_in + x_out)
        ins.append(x_in)
        outs.append(x_out)
        mids.append(mid)
        x_in, x_out = np.concatenate((mid, x_in)), np.concatenate((x_out, mid))
    x_in, x_out, mid = np.concatenate(ins), np.concatenate(outs), np.concatenate(mids)
    return mid[(np.abs(x_out - x_in) > tol) & (mid != x_in) & (mid != x_out)]


def _ladder(e_peak, step, edge: float, direction: int) -> list:
    """Abscissae of the expansion away from the peak, the window edge last."""
    points = []
    while True:
        x = e_peak + direction * step
        if (direction > 0 and x >= edge) or (direction < 0 and x <= edge):
            points.append(edge)
            return points
        points.append(x)
        step *= 1.7


def refine_peak(f: Callable[[np.ndarray | float], np.ndarray | float],
                window: tuple[float, float],
                seeds: Sequence[float] = ()) -> PeakMetrics:
    """Locate the dominant maximum of f in window and its 1/e crossings.

    The engine is physics-agnostic (used as-is for the synthetic
    Lorentzian calibration): coarse scan plus caller seeds, golden
    section to relative 1e-12 on the abscissa, then bisection for the
    two crossings at height/e to 1e-12*|window|.

    f must map a numpy array of abscissae elementwise (a constant return
    value is broadcast).  It is called once on the coarse abscissae and
    then on small arrays during the refinement: each call evaluates the
    point a search step needs together with the points the next steps
    of that search could need, whichever way they go, so a search takes
    a few calls instead of one per step.  The steps themselves, and so
    the result, are those of a point-by-point search, provided f gives
    a point the same value inside any array.  If such an array call
    raises, the needed point is evaluated alone, as a float.

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
    if len(seeds) > 0:
        inside = [s for s in np.asarray(seeds, dtype=float) if lo < s < hi]
        if inside:
            xs = np.unique(np.concatenate([xs, np.array(inside)]))
    ys = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
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
        base = None
        work_ys = ys
    else:
        base = floor
        work_ys = ys - floor(xs)
        im = int(np.argmax(work_ys))
    if im == 0 or im == len(xs) - 1:
        raise NoPeak(f"maximum sits on the window edge at {xs[im]!r}; no interior peak")
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
                    f"two separated maxima near {xs[tall[a]]!r} and {xs[tall[b]]!r} "
                    "are within 1/e of each other; narrow the window")

    # every refinement step asks work for one point; a miss evaluates the
    # points the next steps could ask for along with it
    memo: dict[float, float] = {}

    def work(x, ahead: Callable[[], np.ndarray]) -> float:
        """The feature at x; a miss evaluates x together with ahead()."""
        if x not in memo:
            pts = np.concatenate(([x], ahead()))
            try:
                vals = np.broadcast_to(np.asarray(f(pts), dtype=float), pts.shape)
            except Exception:
                # f may fail at a point the search never visits, and such a
                # point must not decide the outcome: evaluate x alone
                memo[x] = f(x) if base is None else f(x) - base(x)
            else:
                if base is not None:
                    vals = vals - base(pts)
                memo.update(zip(pts.tolist(), vals.tolist()))
        return memo[x]

    # golden-section refinement on the three-point bracket
    a, b = xs[im - 1], xs[im + 1]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    xtol = 1e-12 * max(1.0, abs(xs[im]))
    fc = work(c, lambda: np.append(d, _golden_tree(a, b, c, d, xtol)))
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
    # the expansions away from the peak on both sides
    step = max((b - a), 1e-15 * max(1.0, abs(e_peak)))
    ladders = {+1: _ladder(e_peak, step, hi, +1), -1: _ladder(e_peak, step, lo, -1)}
    both_ladders = np.array(ladders[+1] + ladders[-1])
    height = work(e_peak, lambda: both_ladders)
    if height <= 0.0:
        raise NoPeak("refined peak has no positive height")
    target = height * _INV_E
    cross_tol = 1e-12 * (hi - lo)

    def _crossing(direction: int) -> float:
        # expand away from the peak until the feature drops below target
        x_in = e_peak
        for x_out in ladders[direction]:
            if work(x_out, lambda: both_ladders) <= target:
                break
            x_in = x_out
        else:
            raise NoPeak(
                f"spectrum never falls to 1/e of the peak before the window "
                f"edge at {x_out!r}")
        for _ in range(200):
            mid = 0.5 * (x_in + x_out)
            if abs(x_out - x_in) <= cross_tol or mid == x_in or mid == x_out:
                break
            if work(mid, lambda: _bisection_tree(x_in, x_out, cross_tol)) > target:
                x_in = mid
            else:
                x_out = mid
        return 0.5 * (x_in + x_out)

    right = _crossing(+1)
    left = _crossing(-1)
    return PeakMetrics(e_peak=float(e_peak), height=float(height),
                       width_w=float(right - left), left_cross=float(left),
                       right_cross=float(right), refined=True,
                       baseline=float(base(e_peak)) if base is not None else 0.0)


#: 1/e full width of a Lorentzian per unit half-width-at-half-maximum
LORENTZ_WIDTH_FACTOR = 2.0 * math.sqrt(math.e - 1.0)


def peak_metrics(params: DimensionlessParams, channel: int = 1) -> PeakMetrics:
    """Peak metrics of the resonance of the least-damped eigenvalue E1.

    The window is centered on E1 and kept clear of the other
    resonances.  A pole too narrow for float abscissae (|Im E1| below
    1e-10 of scale) is reported analytically from the Lorentzian limit
    with refined=False instead of chasing sub-ulp crossings.  A gain
    mode (Im E1 above the rounding allowance 1e-12 * max(1, ||M||_F))
    is no resonance and raises GainMode.
    """
    pair = build(params)
    return _peak_metrics(params, pair, eigensystem(pair).eigenvalues, channel, None)


def _peak_metrics(params: DimensionlessParams, pair: EffectivePair,
                  eigenvalues: np.ndarray, channel: int,
                  search_window: tuple[float, float] | None) -> PeakMetrics:
    """peak_metrics for a parameter set whose matrix is already solved,
    in search_window when one is given."""
    e1 = eigenvalues[0]
    mat = pair.matrix()
    if e1.imag > 1e-12 * max(1.0, float(np.linalg.norm(mat))):
        raise GainMode(f"least-damped eigenvalue {complex(e1)!r} grows (Im E1 > 0)")
    f = functools.partial(_spectrum_values, mat, _coupling_vector(params),
                          channel=channel)
    scale = max(1.0, abs(e1.real))
    in_window = search_window is None or (search_window[0] < e1.real < search_window[1])
    if 0.0 < abs(e1.imag) < 1e-10 * scale and in_window:
        c = float(e1.real)
        half = 0.5 * LORENTZ_WIDTH_FACTOR * abs(float(e1.imag))
        left = min(float(np.nextafter(c, -np.inf)), c - half)
        right = max(float(np.nextafter(c, np.inf)), c + half)
        return PeakMetrics(e_peak=c, height=f(c), width_w=float(right - left),
                           left_cross=left, right_cross=right, refined=False)
    if search_window is None:
        search_window = _auto_window(eigenvalues)
    seeds = _pole_seeds(eigenvalues, search_window)
    return refine_peak(f, search_window, seeds=seeds)


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
    pair = build(p)
    eig = eigensystem(pair)
    e1 = eig.eigenvalues[0]
    try:
        metrics = _peak_metrics(p, pair, eig.eigenvalues, channel, window)
        err = None
    except (NoPeak, MultiPeak, PoleHit, GainMode) as exc:
        metrics, err = None, f"{type(exc).__name__}: {exc}"
    return EtaPoint(eta=float(eta), metrics=metrics,
                    eigenvalues=eig.eigenvalues.copy(),
                    re_e1=float(e1.real), im_e1=float(e1.imag), error=err)


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
