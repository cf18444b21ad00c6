"""Photoassociation spectra, peak metrics, and eta-deviation sweeps.

The dimensionless absorption spectrum of channel n is

    S_n(E_tilde) = (1/pi) * |[adj(E_tilde*I - (A+iB)) v]_n / det(E_tilde*I - (A+iB))|^2

with v = (sqrt(g1), sqrt(g2), 1), i.e. the cofactor combination
A_n1*sqrt(g1) + A_n2*sqrt(g2) + A_n3 over the determinant, where A is
the transpose of the cofactor matrix.  The dimensional prefactor
sqrt(2/(pi*hbar*Gamma_F)) of the raw amplitude is factored out; what is
reported is S_n(E)*E_F, the quantity the reference figures plot.  At an
exact bound state the numerator N and the determinant D share a real
root, where the amplitude is the limit N'/D' (_amplitude).

Width convention: W is the full width at 1/e of the peak height (not
FWHM).  For a Lorentzian of half-width-at-half-maximum h this gives
W = 2h*sqrt(e-1) ~ 2.622*h; Fano asymmetry makes the two crossings
unequal distances from the peak, so both are reported.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConvergenceFailure, GainMode, MultiPeak, NoPeak, PoleHit,
                     ValidationError, _numerical, _require_counts, _require_finite)
from .hamiltonian import ComplexEigenSet, _refuse_gain, build, eigensystem
from .params import DimensionlessParams

_INV_E = 1.0 / math.e
_EPS = float(np.finfo(float).eps)
#: spectrum_series' fine core around a pole, in units of its half width
_CORE_OFFSETS = np.linspace(-2.0, 2.0, 129)


def _amplitude(mat: np.ndarray, v: np.ndarray, channel: int):
    """The complex amplitude of channel 1 or 2 as a function of a 1-d
    float array of abscissae.

    Everything point-free is taken once per matrix; a call shifts the
    diagonal once, as a (3, N) array, and reuses a minor of det as a
    cofactor of the numerator.  Where det D sits below its rounding floor
    8 eps s^3, with s = max(s_mat, |x|), a point takes r = N'/D', the limit
    at a simple root D shares with the numerator N, if it is removable:
    |D'| >= 8 eps s^2 and |N - r D| < 8 eps s^2 (max|v| + |r| s).  Else it
    is a real pole and raises PoleHit.
    """
    if (isinstance(channel, bool) or not isinstance(channel, numbers.Integral)
            or channel not in (1, 2)):
        raise ValidationError(f"channel must be 1 or 2, got {channel!r}")
    diag = mat.diagonal()[:, None]
    n01, n02, n12 = -mat[0, 1], -mat[0, 2], -mat[1, 2]
    n10, n20, n21 = -mat[1, 0], -mat[2, 0], -mat[2, 1]
    # the products of two off-diagonal entries do not depend on the point
    p12_21, p12_20, p10_21 = n12 * n21, n12 * n20, n10 * n21
    pc1, pc2 = (n02 * n21, n01 * n12) if channel == 1 else (n02 * n20, n02 * n10)
    # -v1 takes channel 1's minus sign exactly, up to a zero's sign that |amp|^2 erases
    v0, v1, v2, minus_v1 = v[0], v[1], v[2], -v[1]
    # det and the numerator are cubic and quadratic in the point and the
    # entries: their float errors are a few eps * s^3 and eps * s^2 * max|v|
    # with s the dominant magnitude; 8x covers the operation count
    s_mat = max(1.0, float(np.max(np.abs(mat))))
    v_max = float(np.max(np.abs(v)))

    def amplitude(x: np.ndarray) -> np.ndarray:
        # adj[n, j] is the (j, n) cofactor of xI - M: channel n needs cof(0..2, n-1)
        n00, n11, n22 = x - diag
        minor0, minor1 = n11 * n22 - p12_21, n10 * n22 - p12_20
        det = n00 * minor0 - n01 * minor1 + n02 * (p10_21 - n11 * n20)
        if channel == 1:
            num = minor0 * v0 + (n01 * n22 - pc1) * minus_v1 + (pc2 - n02 * n11) * v2
        else:
            num = -minor1 * v0 + (n00 * n22 - pc1) * v1 + -(n00 * n12 - pc2) * v2
        abs_x, abs_det = np.abs(x), np.abs(det)
        # no point is tiny when the smallest |det| clears the largest floor, widened by 1e-9
        # past any rounding of a per-point s ** 3 (Python floats overflow to inf, not an error)
        s_top = max(s_mat, float(abs_x.max(initial=0.0)))
        if abs_det.min(initial=math.inf) >= 8.0 * (1.0 + 1e-9) * _EPS * s_top * s_top * s_top:
            return num / det
        s = np.maximum(s_mat, abs_x)
        # a NaN det is not tiny: its ratio is reported as non-finite, not as a pole
        tiny = abs_det < 8.0 * _EPS * s ** 3
        amps = num / np.where(tiny, 1.0, det)
        # the derivatives at the tiny points: each n_ii grows by 1 per unit x
        t00, t11, t22, s = n00[tiny], n11[tiny], n22[tiny], s[tiny]
        d_det = minor0[tiny] + t00 * (t11 + t22) - n01 * n10 - n02 * n20
        r = ((t11 + t22) * v0 - n01 * v1 - n02 * v2 if channel == 1
             else -n10 * v0 + (t00 + t22) * v1 - n12 * v2) / d_det
        floor_2 = 8.0 * _EPS * s ** 2
        removable = ((np.abs(d_det) >= floor_2)
                     & (np.abs(num[tiny] - r * det[tiny]) < floor_2 * (v_max + np.abs(r) * s)))
        if not removable.all():
            e = float(x[tiny][~removable][0])
            raise PoleHit(f"determinant vanishes at E_tilde={e!r} and the point is not removable")
        amps[tiny] = r
        return amps

    return amplitude


def _spectrum(params: DimensionlessParams, mat: np.ndarray, eig: ComplexEigenSet,
              channel: int) -> Callable[[np.ndarray], np.ndarray]:
    """S_n of params, given its matrix mat and mat's eigen set eig, from a
    1-d float64 array of abscissae to one value per abscissa; a point's
    value is the same in any array.

    A gain mode (hamiltonian._refuse_gain) raises GainMode.
    """
    amplitude = _amplitude(
        mat, np.array([math.sqrt(params.g1), math.sqrt(params.g2), 1.0]), channel)
    _refuse_gain(params, eig)
    return lambda x: np.abs(amplitude(x)) ** 2 / math.pi


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
    _require_finite(e_min=e_min, e_max=e_max)
    _require_counts(n_points=n_points)
    if not e_min < e_max:
        raise ValidationError(f"need e_min < e_max, got {e_min!r} >= {e_max!r}")
    if n_points < 2:
        raise ValidationError(f"need n_points >= 2, got {n_points!r}")
    span = e_max - e_min
    base = np.linspace(e_min, e_max, int(n_points))
    spacing = span / (int(n_points) - 1)
    if np.any(np.diff(base) <= 0.0):
        raise ValidationError(f"grid [{e_min!r}, {e_max!r}] at {n_points!r} points: "
                              f"spacing {spacing!r} is below float resolution")
    mat = build(params)
    eig = eigensystem(mat)
    f = _spectrum(params, mat, eig, channel)
    extras = []
    for lam in eig.eigenvalues.tolist():
        re, im = lam.real, abs(lam.imag)
        if not (e_min < re < e_max) or im >= spacing:
            continue
        w = max(im, span / 1e8)
        half_width = 1.311 * w  # half of the Lorentzian 1/e full width
        core = re + _CORE_OFFSETS * half_width
        bridges = []
        step = 2.0 * half_width
        while step < 2.0 * spacing:
            step *= 2.0
            bridges.extend((re - step, re + step))
        extras.append(core)
        if bridges:
            extras.append(np.array(bridges))
    grid = base
    if extras:
        grid = np.concatenate([base] + extras)
        grid = np.unique(grid[(grid >= e_min) & (grid <= e_max)])
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
    left_cross: float
    right_cross: float
    refined: bool
    baseline: float = 0.0

    def __post_init__(self):
        if not (self.left_cross < self.e_peak < self.right_cross):
            raise ValidationError(
                f"crossings must bracket the peak: {self.left_cross!r}, "
                f"{self.e_peak!r}, {self.right_cross!r}")

    @property
    def width_w(self) -> float:
        """The 1/e full width W, right_cross - left_cross."""
        return self.right_cross - self.left_cross


def _merge_plateaus(ys: np.ndarray) -> np.ndarray:
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
_RAMP = np.arange(float(_N_COARSE))  # what np.linspace scales by its step and shifts
#: levels of a search tree that refine_peak evaluates per call of f
_LOOKAHEAD = 5
#: sections a crossing bracket is cut into per call of f
_SECTIONS = 64
_FRACTIONS = np.arange(1, _SECTIONS) / _SECTIONS
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_PHI = (math.sqrt(5.0) + 1.0) / 2.0  # a golden-section step's shrink factor


def _golden_tree(a, b, c, d, xtol: float) -> list:
    """Abscissae golden section may ask for in its next _LOOKAHEAD steps from
    bracket (a, b), level by level, both outcomes followed with the loop's own
    float operations: the new c of a step to (a, d), the new d of a step to
    (c, b), and the midpoint of a bracket at which the search stops."""
    out, level = [], [(a, b, c, d)]
    for depth in range(_LOOKAHEAD, -1, -1):
        below = []
        for a, b, c, d in level:
            if (b - a) <= xtol:
                out.append(0.5 * (a + b))
            elif depth:
                new_c, new_d = d - _INVPHI * (d - a), c + _INVPHI * (b - c)
                out += (new_c, new_d)
                below += ((a, d, new_c, c), (c, b, d, new_d))
        level = below
    return out


def _bounded(ratio: float, shrink: float, search: str):
    """Yield before each step of a search loop that shrinks its bracket
    shrink-fold per step: once more than the steps a ratio-fold shrink takes
    plus 4 (once if ratio is not finite), then raise ConvergenceFailure."""
    n = math.ceil(math.log(max(ratio, 1.0), shrink)) + 5 if ratio < math.inf else 1
    yield from range(n)
    raise ConvergenceFailure(f"{search} did not converge in {n} steps")


def refine_peak(f: Callable[[np.ndarray], np.ndarray],
                window: tuple[float, float],
                seeds: Sequence[float] = ()) -> PeakMetrics:
    """Locate the dominant maximum of f in window and its 1/e crossings.

    The engine is physics-agnostic (used as-is for the synthetic
    Lorentzian calibration): coarse scan plus caller seeds, golden
    section to relative 1e-12 on the abscissa, then the two crossings at
    height/e to 1e-12*|window|, each bracketed by the scan and cut into
    _SECTIONS parts per round until it is within tolerance or stops
    shrinking; a round is one call of f on the open brackets, a line about 12
    calls.  A search open 4 steps past its bracket ratio's count raises
    ConvergenceFailure.  An empty window, or one whose width hi - lo
    overflows, is a ValidationError.

    f maps a 1-d float64 array of abscissae to one value per abscissa;
    refine_peak calls it no other way.  A golden-section call evaluates the
    point a step needs together with those the next steps could need,
    whichever way they go: its result is that of a point-by-point search
    provided f gives a point the same value inside any array.  If such a
    call raises, the needed point is evaluated alone (a one-point array),
    and no later call holds the failed call's other points unless a step
    needs one; a failure in a crossing round propagates, all its points
    being needed.

    Near a bound state in the continuum the resonance decouples from
    the entrance channel, so its line can ride on a non-resonant floor
    that never drops to 1/e of the absolute maximum.  When the raw
    maximum is below e^2 times the local floor, a linear baseline
    through the outer twentieths of the window is subtracted and the
    1/e rule is applied to the feature above it; the subtracted level
    at the peak is reported in PeakMetrics.baseline.
    """
    lo, hi = _require_finite(lo=window[0], hi=window[1])
    if not lo < hi:
        raise ValidationError(f"empty window ({lo!r}, {hi!r})")
    if hi - lo == math.inf:
        raise ValidationError(f"window ({lo!r}, {hi!r}) is wider than the float range")
    # np.linspace(lo, hi, _N_COARSE) bit for bit, less its Python overhead
    dx = (hi - lo) / (_N_COARSE - 1)
    xs = _RAMP * dx + lo if dx else np.linspace(lo, hi, _N_COARSE)
    xs[-1] = hi
    inside = [s for s in np.asarray(seeds, dtype=float) if lo < s < hi]
    if inside:
        xs = np.unique(np.concatenate([xs, np.array(inside)]))
    ys = np.asarray(f(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        raise ConvergenceFailure("spectrum evaluation returned non-finite values")
    if ys.max() <= 0.0:
        raise NoPeak("window contains no positive spectral weight")

    # linear floor through the outer 5% of the window on each side (xs is sorted)
    margin = 0.05 * (hi - lo)
    n_left, n_right = xs.searchsorted(lo + margin, "right"), xs.searchsorted(hi - margin)
    bx1, by1 = xs[:n_left].mean(), ys[:n_left].mean()
    bx2, by2 = xs[n_right:].mean(), ys[n_right:].mean()
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
    locs = _merge_plateaus(work_ys)
    tall = locs[work_ys[locs] >= top * _INV_E]
    for a in range(len(tall)):
        for b in range(a + 1, len(tall)):
            valley = work_ys[tall[a]:tall[b] + 1].min()
            if valley <= min(work_ys[tall[a]], work_ys[tall[b]]) * (1.0 - 1e-6):
                raise MultiPeak(
                    f"two separated maxima near {float(xs[tall[a]])!r} and {float(xs[tall[b]])!r} "
                    "are within 1/e of each other; narrow the window")

    # the feature at every point evaluated so far, where a step looks its point up
    memo: dict[float, float] = {}
    failed: set[float] = set()  # the points of batches that raised

    def fetch(x: float, ahead: list) -> float:
        """The feature at x, evaluated together with ahead less the points
        of failed batches."""
        if failed:
            ahead = [p for p in ahead if p not in failed]
        pts = [x] + ahead
        try:
            memo.update(zip(pts, np.asarray(feature(np.array(pts)), dtype=float).tolist()))
        except Exception:
            # f may fail at a point the search never visits, and such a
            # point must not decide the outcome: evaluate x alone
            failed.update(pts)
            memo[x] = float(feature(np.array([x]))[0])
        return memo[x]

    # golden-section refinement on the three-point bracket
    a, b = float(xs[im - 1]), float(xs[im + 1])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    xtol = 1e-12 * max(1.0, abs(float(xs[im])))
    fc = fetch(c, [d] + _golden_tree(a, b, c, d, xtol))
    fd = memo[d] if d in memo else fetch(d, _golden_tree(a, b, c, d, xtol))
    for _ in _bounded((b - a) / xtol, _PHI, "golden section"):
        if not (b - a) > xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = memo[c] if c in memo else fetch(c, _golden_tree(a, b, c, d, xtol))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = memo[d] if d in memo else fetch(d, _golden_tree(a, b, c, d, xtol))
    e_peak = 0.5 * (a + b)
    height = memo[e_peak] if e_peak in memo else fetch(e_peak, [])
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
    open_ = [end for end in ends if abs(end[1] - end[0]) > cross_tol]
    # a bracket stops shrinking at one ulp: an underflowed tolerance counts as the least
    widest = max((abs(x1 - x0) for x0, x1 in open_), default=0.0)
    for _ in _bounded(widest / max(cross_tol, 5e-324), _SECTIONS, "1/e crossing search"):
        if not open_:
            break
        x_in, x_out = np.array(open_).T[:, :, None]
        nodes = x_in + (x_out - x_in) * _FRACTIONS
        below = (np.asarray(feature(nodes.ravel()), dtype=float) <= target).reshape(nodes.shape)
        still = []
        for end, row, hits, k in zip(open_, nodes, below, below.argmax(axis=1).tolist()):
            # keep the section ending at the first node at or below target, else the last
            k = k if hits[k] else _SECTIONS - 1
            kept = [float(row[k - 1]) if k else end[0],
                    float(row[k]) if k < _SECTIONS - 1 else end[1]]
            if kept != end and abs(kept[1] - kept[0]) > cross_tol:
                still.append(end)
            end[:] = kept
        open_ = still
    right, left = (0.5 * (x0 + x1) for x0, x1 in ends)
    return PeakMetrics(e_peak=float(e_peak), height=float(height), left_cross=left,
                       right_cross=right, refined=True,
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
    return _peak_metrics(params, mat, eigensystem(mat), channel, None)


def _peak_metrics(params: DimensionlessParams, mat: np.ndarray, eig: ComplexEigenSet,
                  channel: int, search_window: tuple[float, float] | None) -> PeakMetrics:
    """peak_metrics for a parameter set whose matrix is already solved,
    in search_window when one is given."""
    e1 = eig.eigenvalues[0]
    f = _spectrum(params, mat, eig, channel)
    in_window = search_window is None or (search_window[0] < e1.real < search_window[1])
    if 0.0 < abs(e1.imag) < 1e-10 * max(1.0, abs(e1.real)) and in_window:
        c = float(e1.real)
        half = 0.5 * LORENTZ_WIDTH_FACTOR * abs(float(e1.imag))
        left = min(float(np.nextafter(c, -np.inf)), c - half)
        right = max(float(np.nextafter(c, np.inf)), c + half)
        return PeakMetrics(e_peak=c, height=float(f(np.array([c]))[0]), left_cross=left,
                           right_cross=right, refined=False)
    if search_window is None:
        search_window = _auto_window(eig.eigenvalues)
    return refine_peak(f, search_window, seeds=_pole_seeds(eig.eigenvalues, search_window))


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
    """re + k w, k in +-2, +-1, +-0.5, 0, around each eigenvalue in window."""
    lo, hi = window
    seeds = []
    for lam in eigenvalues:
        re = float(lam.real)
        if lo < re < hi:
            w = max(abs(float(lam.imag)), 1e-13 * max(1.0, abs(re)))
            seeds += (re + k * w for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0))
    return seeds


@dataclass(frozen=True)
class EtaPoint:
    """One record of an eta sweep; metrics is None when error is set."""

    eta: float
    metrics: PeakMetrics | None
    eigenvalues: np.ndarray  # of the swept set, least-damped E1 first
    error: str | None = None

    @property
    def im_e1(self) -> float:
        return float(self.eigenvalues[0].imag)


@dataclass(frozen=True)
class EtaSweepResult:
    """Sweep records in input order."""

    points: list[EtaPoint]

    def widths(self) -> list[float | None]:
        return [p.metrics.width_w if p.metrics else None for p in self.points]


def _sweep_one(params: DimensionlessParams, eta: float, channel: int,
               window: tuple[float, float] | None) -> EtaPoint:
    p = params.replace(eta=eta)
    mat = build(p)
    eig = eigensystem(mat)
    try:
        metrics = _peak_metrics(p, mat, eig, channel, window)
        err = None
    except (NoPeak, MultiPeak, PoleHit, GainMode) as exc:
        metrics, err = None, f"{type(exc).__name__}: {exc}"
    return EtaPoint(eta=eta, metrics=metrics, eigenvalues=eig.eigenvalues, error=err)


@_numerical
def sweep_eta(params: DimensionlessParams, eta_list: Sequence[float],
              channel: int = 1,
              window: tuple[float, float] | None = None) -> EtaSweepResult:
    """Peak metrics and least-damped eigenvalue per eta, in input order.

    Per-eta spectral failures (NoPeak, MultiPeak, PoleHit, GainMode) are
    recorded on the point instead of aborting the sweep.
    """
    etas = _require_finite(**{f"eta_list[{i}]": eta for i, eta in enumerate(eta_list)})
    if not etas:
        raise ValidationError("eta_list must be nonempty")
    if window is not None:
        window = tuple(_require_finite(**{"window[0]": window[0], "window[1]": window[1]}))
    return EtaSweepResult(points=[_sweep_one(params, eta, channel, window)
                                  for eta in etas])
