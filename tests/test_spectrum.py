from __future__ import annotations

import math
import re

import numpy as np
import pytest

import bic_lab.spectrum
from bic_lab.bic import solve_bic
from bic_lab.errors import (ConvergenceFailure, GainMode, MultiPeak, NoPeak, PoleHit,
                            ValidationError)
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.params import DimensionlessParams
from bic_lab.recipes import (FIG4_ETA_LIST, fig3_params, fig4_params, fig5_eta_grid,
                             fig5_params)
from bic_lab.spectrum import (
    LORENTZ_WIDTH_FACTOR,
    PeakMetrics,
    _LOOKAHEAD,
    _N_COARSE,
    _SECTIONS,
    _amplitude,
    _auto_window,
    _golden_tree,
    _merge_plateaus,
    _pole_seeds,
    _spectrum,
    peak_metrics,
    refine_peak,
    spectrum_series,
    sweep_eta,
)
from conftest import random_params


def coupling_vector(params):
    return np.array([math.sqrt(params.g1), math.sqrt(params.g2), 1.0])


def amplitude(params, e_tilde, channel=1):
    """The complex amplitude at one point, evaluated as a one-point grid."""
    amp = _amplitude(build(params), coupling_vector(params), channel)
    return complex(amp(np.array([float(e_tilde)]))[0])


def test_amplitude_channel_validation(fig4):
    with pytest.raises(ValueError, match="channel"):
        amplitude(fig4, 1.0, channel=3)


def test_amplitude_matches_direct_linear_solve(rng):
    # |amp|^2 = |[ (E I - M)^-1 v ]_n |^2 * |det/det| ... the adjugate
    # shortcut must agree with a plain solve away from poles
    for _ in range(20):
        p = random_params(rng)
        m = build(p)
        v = coupling_vector(p)
        e = rng.uniform(-3.0, 10.0)
        direct = np.linalg.solve(e * np.eye(3) - m, v)
        for ch in (1, 2):
            assert amplitude(p, e, channel=ch) == pytest.approx(direct[ch - 1], rel=1e-9)


def test_det_factorizes_over_eigenvalues(fig4):
    m = build(fig4)
    eig = eigensystem(m)
    for e in (0.0, 3.7, 6.76, 12.0):
        det = np.linalg.det(e * np.eye(3) - m)
        ref = np.prod([e - lam for lam in eig.eigenvalues])
        assert complex(det) == pytest.approx(ref, rel=1e-9)


def test_amplitude_removable_at_exact_bic(fig4_bic):
    # the numerator shares the real root of det: the point is removable
    # and must evaluate to the (finite) limit, not a ratio of rounding
    # residues
    sol = fig4_bic
    a0 = amplitude(sol.params, sol.lam)
    assert np.isfinite(a0.real) and np.isfinite(a0.imag)
    # the limit is approached smoothly: values at small one-sided
    # offsets extrapolate linearly back to a0 (the amplitude has a
    # nearby zero, so the local slope is steep; 1e-4 still separates
    # the limit cleanly from the pre-fix rounding noise of order 1)
    a1 = amplitude(sol.params, sol.lam + 1e-7)
    a2 = amplitude(sol.params, sol.lam + 2e-7)
    extrapolated = 2.0 * a1 - a2
    assert abs(a0 - extrapolated) < 1e-4 * abs(a0)


def test_true_real_pole_raises():
    # synthetic: diag matrix has a real spectrum but no amplitude zero
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    v = np.array([1.0, 1.0, 1.0])
    amp = _amplitude(m, v, 1)
    with pytest.raises(PoleHit):
        amp(np.array([1.0]))


def test_a_double_root_is_a_pole_not_a_removable_point():
    # det(eI - M) = (e - 0.5)^3 over a numerator (e - 0.5)^2: the amplitude
    # is 1/(e - 0.5), and D' vanishes with det, so e = 0.5 is a pole
    amp = _amplitude(0.5 * np.eye(3, dtype=complex), np.ones(3), 1)
    message = "^determinant vanishes at E_tilde=0.5 and the point is not removable$"
    with np.errstate(all="ignore"), pytest.raises(PoleHit, match=message):
        amp(np.array([0.5]))
    # an upper-triangular M keeps det = (e - 0.5)^3 with 1e6 entries above
    m = 0.5 * np.eye(3) + np.triu(np.full((3, 3), 1e6), 1)
    amp = _amplitude(m.astype(complex), np.array([1.0, 1.0, 0.0]), 1)
    with np.errstate(all="ignore"), pytest.raises(PoleHit, match=message):
        amp(np.array([0.5]))


def test_no_lasers_no_signal():
    p = DimensionlessParams(g1=0.0, g2=0.0, q1=0.0, q2=0.0,
                            delta1=1.0, delta2=2.0, delta=0.0,
                            gamma1=0.3, gamma2=0.2, eta=0.0, inv_kca=0.5)
    for e in (-1.0, 0.0, 0.7, 3.0):
        assert amplitude(p, e) == 0.0


def test_spectrum_series_validation():
    with pytest.raises(ValueError):
        spectrum_series(fig3_params(), 2.0, 1.0, 100)


@pytest.mark.parametrize("kwargs,message", [
    (dict(e_max=math.inf), "e_max=inf is not finite"),
    (dict(n_points=10.7), "n_points must be an integer, got 10.7"),
])
def test_spectrum_series_refuses_bad_bounds_and_counts(kwargs, message):
    args = dict(e_min=0.5, e_max=2.5, n_points=11) | kwargs
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        spectrum_series(fig3_params(), **args)


@pytest.mark.parametrize("g1", [2.004, 2.001, 2.0004])
def test_spectrum_around_a_far_out_bound_state_has_no_pole(g1):
    # lambda = 1341, 5361, 13401: a grid point a few 1e-12 from lambda is a
    # removable point, though its numerator N'(x - lambda) passes 8 eps s^2 max|v|
    sol = solve_bic(g1=g1, g2=2.0, q1=-0.8, q2=0.54, delta=0.1, gamma1=1.0, gamma2=1.0)
    series = spectrum_series(sol.params, sol.lam - 5.0, sol.lam + 5.0, 401)
    assert np.all(np.isfinite(series.values))


def test_spectrum_series_refines_narrow_line():
    p = fig5_params().replace(eta=0.9999)
    im1 = abs(eigensystem(build(p)).eigenvalues[0].imag)
    s = spectrum_series(p, 6.5, 7.0, 101)
    assert len(s.grid) > 101
    re1 = eigensystem(build(p)).eigenvalues[0].real
    near = np.abs(s.grid - re1) < 2.0 * im1
    assert near.sum() >= 32
    assert np.all(np.diff(s.grid) > 0)
    assert np.all(s.values >= 0.0)


def test_spectrum_series_plain_grid_when_no_narrow_modes(fig3):
    # the exact bound-state set of the fig3 geometry (g2 = 2)
    s = spectrum_series(fig3.replace(g2=2.0), -0.5, 0.5, 64, channel=2)
    # no eigenvalue with small |Im| in range: base grid returned as-is
    assert len(s.grid) == 64


def test_fig3_sharp_line_location():
    s = spectrum_series(fig3_params(), 0.5, 2.5, 2001)
    top = s.grid[int(np.argmax(s.values))]
    assert top == pytest.approx(1.2944198519681624, abs=2e-3)


def test_refine_peak_lorentzian_calibration():
    c, h, a = 0.3, 0.01, 1.0

    def f(x):
        return a / ((x - c) ** 2 + h ** 2)

    m = refine_peak(f, (0.2, 0.4))
    assert m.refined
    assert m.baseline == 0.0
    assert m.e_peak == pytest.approx(c, abs=1e-9)
    assert m.height == pytest.approx(a / h ** 2, rel=1e-9)
    assert m.width_w == pytest.approx(LORENTZ_WIDTH_FACTOR * h, rel=1e-6)
    assert m.left_cross == pytest.approx(c - h * math.sqrt(math.e - 1.0), rel=1e-6)


def test_refine_peak_subtracts_baseline():
    # a weak line on a strong flat background: the raw spectrum never
    # falls to 1/e of its maximum, the feature above the floor does
    c, h, offset = 0.3, 0.01, 100.0

    def f(x):
        return offset + 50.0 * h ** 2 / ((x - c) ** 2 + h ** 2)

    m = refine_peak(f, (0.2, 0.4))
    # the floor picks up the Lorentzian tail in the margins (~0.55 here)
    assert m.baseline == pytest.approx(offset, abs=1.0)
    assert m.height == pytest.approx(50.0, rel=2e-2)
    assert m.width_w == pytest.approx(LORENTZ_WIDTH_FACTOR * h, rel=2e-2)


def test_refine_peak_keeps_raw_path_when_dominant():
    # peak 200x the floor: measured on the raw curve, baseline 0
    c, h = 0.5, 0.005

    def f(x):
        return 1.0 + 200.0 * h ** 2 / ((x - c) ** 2 + h ** 2)

    m = refine_peak(f, (0.3, 0.7))
    assert m.baseline == 0.0
    assert m.height == pytest.approx(201.0, rel=1e-6)


def test_refine_peak_no_peak_errors():
    with pytest.raises(NoPeak):
        refine_peak(lambda x: 0.0, (0.0, 1.0))
    # a sloped featureless background is noise after floor subtraction,
    # not a peak
    with pytest.raises(NoPeak, match="floor"):
        refine_peak(lambda x: x, (0.0, 1.0))
    with pytest.raises(NoPeak, match="edge"):
        # resonance centered just outside the window: raw maximum on edge
        refine_peak(lambda x: 1.0 / ((x - 1.05) ** 2 + 1e-4), (0.0, 1.0))
    with pytest.raises(ValueError, match="window"):
        refine_peak(lambda x: 1.0, (1.0, 1.0))


def test_refine_peak_multipeak():
    def f(x):
        return (1.0 / ((x - 0.3) ** 2 + 1e-4)
                + 1.0 / ((x - 0.7) ** 2 + 1e-4))

    with pytest.raises(MultiPeak) as exc:
        refine_peak(f, (0.0, 1.0))
    assert "np." not in str(exc.value)  # the maxima print as plain floats


def test_refine_peak_narrow_line_found_off_grid():
    # a lone narrow line is reachable through its sampled tails even
    # when no coarse point lands within many widths of it
    c, h = 0.5002000123, 1e-7

    def f(x):
        return 1.0 / ((x - c) ** 2 + h ** 2)

    m = refine_peak(f, (0.0, 1.0))
    assert m.e_peak == pytest.approx(c, abs=1e-10)
    assert m.width_w == pytest.approx(LORENTZ_WIDTH_FACTOR * h, rel=1e-4)


def test_refine_peak_seeds_decide_between_features():
    # a faint ultra-narrow line loses the sampled argmax to a broad bump
    # unless a seed lands on it
    c, h = 0.7000000123, 1e-8

    def f(x):
        return (0.5 / ((x - 0.3) ** 2 + 0.05 ** 2)
                + 1e-8 / ((x - c) ** 2 + h ** 2))

    broad = refine_peak(f, (0.05, 0.95))
    assert broad.e_peak == pytest.approx(0.3, abs=1e-3)
    seeded = refine_peak(f, (0.05, 0.95), seeds=(c,))
    assert seeded.e_peak == pytest.approx(c, abs=1e-10)
    assert seeded.width_w == pytest.approx(LORENTZ_WIDTH_FACTOR * h, rel=1e-3)


def test_peak_metrics_deviated_fig4():
    m = peak_metrics(fig4_params())
    e1 = eigensystem(build(fig4_params())).eigenvalues[0]
    assert m.refined
    assert m.e_peak == pytest.approx(e1.real, abs=5e-7)
    assert m.width_w == pytest.approx(LORENTZ_WIDTH_FACTOR * abs(e1.imag), rel=5e-2)
    assert m.left_cross < m.e_peak < m.right_cross


def test_peak_metrics_analytic_branch_for_sub_resolution_pole(fig4_bic):
    base = fig4_bic.params
    p = base.replace(eta=1.0 - 1e-12)
    e1 = eigensystem(build(p)).eigenvalues[0]
    assert 0.0 < abs(e1.imag) < 1e-10
    m = peak_metrics(p)
    assert not m.refined
    assert m.e_peak == float(e1.real)
    assert m.width_w == pytest.approx(LORENTZ_WIDTH_FACTOR * abs(e1.imag), rel=1e-9)
    assert m.left_cross < m.e_peak < m.right_cross


def test_peak_metrics_crossings_bracket_invariant():
    with pytest.raises(ValidationError, match=r"^crossings must bracket the peak: 1\.2, 1\.0, 1\.3$"):
        PeakMetrics(e_peak=1.0, height=1.0, left_cross=1.2, right_cross=1.3,
                    refined=True)


def test_sweep_eta_order_and_error_capture():
    etas = [0.99, 1.0, 0.9]
    res = sweep_eta(fig4_params(), etas, window=(100.0, 101.0))
    assert [p.eta for p in res.points] == etas
    for pt in res.points:
        # the window excludes every resonance: recorded, not raised
        assert pt.metrics is None
        assert pt.error is not None and "NoPeak" in pt.error
        assert np.isfinite(pt.eigenvalues[0].real) and np.isfinite(pt.im_e1)
    assert res.widths() == [None, None, None]


def test_sweep_eta_empty_rejected(fig4):
    with pytest.raises(ValueError):
        sweep_eta(fig4, [])


def test_sweep_eta_rejects_unknown_channel(fig4):
    # channel 3 does not exist; it must not be computed as channel 2
    with pytest.raises(ValidationError, match="channel"):
        sweep_eta(fig4, [0.9], channel=3)
    with pytest.raises(ValidationError, match="channel"):
        peak_metrics(fig4, channel=3)


@pytest.mark.parametrize("channel", [True, 1.0])
def test_a_channel_that_is_a_bool_or_a_float_is_a_validation_error(fig4, channel):
    message = rf"^channel must be 1 or 2, got {re.escape(repr(channel))}$"
    with pytest.raises(ValidationError, match=message):
        spectrum_series(fig4, 5.0, 8.0, 11, channel=channel)
    with pytest.raises(ValidationError, match=message):
        peak_metrics(fig4, channel=channel)
    with pytest.raises(ValidationError, match=message):
        sweep_eta(fig4, [0.9], channel=channel)


def test_a_numpy_integer_channel_is_a_channel(fig4):
    assert peak_metrics(fig4, channel=np.int64(2)) == peak_metrics(fig4, channel=2)


def test_gain_mode_is_an_error_not_a_line():
    # eta above sqrt(gamma1*gamma2) = 1 makes E1 grow: no line to measure
    res = sweep_eta(fig4_params(), [3.0, 1.5, 0.9])
    for pt in res.points[:2]:
        assert pt.im_e1 > 0.0 and pt.metrics is None
        assert pt.error.startswith("GainMode: ")
    assert res.points[2].error is None and res.points[2].metrics is not None
    with pytest.raises(GainMode):
        peak_metrics(fig4_params().replace(eta=3.0))


def test_coherent_sets_never_read_as_gain_modes(rng, fig4_bic):
    # with g12 = sqrt(g1*g2) and |eta| <= sqrt(gamma1*gamma2), B is negative
    # semidefinite: Im E1 stays inside the rounding allowance, the exact
    # bound state of fig4 included
    sets = [fig4_bic.params]
    for k in range(100):
        p = random_params(rng, coherent=True)
        if k % 2:
            p = p.replace(eta=rng.uniform(-1.0, 1.0) * math.sqrt(p.gamma1 * p.gamma2))
        sets.append(p)
    for p in sets:
        try:
            peak_metrics(p)
        except (NoPeak, MultiPeak, PoleHit):
            pass


#: solve_bic designs whose exact bound state sits far out (|lambda| ~ 2e4), so
#: the rounding of Im E1 alone passes the 1e-12 * ||M||_F allowance
_FAR_OUT_BIC_DESIGNS = [
    dict(g1=3.8098570107774425, g2=1.3110049681910283, q1=-1.511295583285707,
         q2=0.9445739729640383, delta=0.43165684894646206, gamma1=0.640043266760635,
         gamma2=0.22028851176770584),
    dict(g1=1.2498426840684649, g2=1.4565890761395468, q1=0.035230650896993954,
         q2=1.70944523332482, delta=0.2635717738653557, gamma1=0.6871509990789362,
         gamma2=0.8009782679166884),
    dict(g1=0.5963554733759776, g2=0.5058913280223203, q1=-0.07638732610408461,
         q2=-1.758940016716152, delta=0.15327239488427669, gamma1=0.5941260835031067,
         gamma2=0.5041009305181097),
    dict(g1=0.41600754571319315, g2=0.5767637774849621, q1=1.2308742389356744,
         q2=-1.563776790258618, delta=-0.16056166293977847, gamma1=0.8755917481677924,
         gamma2=1.2141861761495358),
]


def test_far_out_exact_bics_never_read_as_gain_modes():
    # B is negative semidefinite, so no mode grows, whatever the rounding
    # of Im E1 says
    for design in _FAR_OUT_BIC_DESIGNS:
        p = solve_bic(**design).params
        assert eigensystem(build(p)).eigenvalues[0].imag > 0.0
        try:
            peak_metrics(p)
        except (NoPeak, MultiPeak, PoleHit):
            pass


def test_spectrum_series_rejects_gain_modes(fig4):
    with pytest.raises(GainMode):
        spectrum_series(fig4.replace(eta=3.0), 6.0, 7.5, 11)


def _evaluator(params, channel=1):
    m = build(params)
    return _spectrum(params, m, eigensystem(m), channel)


def test_nan_determinant_is_a_non_finite_value_not_a_pole(fig4):
    # near |E| = 1e308 the cofactor arithmetic overflows into a NaN det,
    # which must read as a numerical failure, not as a pole
    with np.errstate(all="ignore"):
        assert math.isnan(_evaluator(fig4)(np.array([1e308]))[0])
    # the public call silences numpy's overflow warnings itself: under the
    # suite's warnings-as-errors filter only the numerical failure comes out
    with pytest.raises(ConvergenceFailure, match="non-finite"):
        spectrum_series(fig4, 1e307, 1e308, 11)


def test_a_point_has_one_value_in_every_batch(fig4_bic):
    # refine_peak's lookahead relies on this: a point evaluated alone, in
    # the full grid or in a shuffled subset gets the same bits
    rng = np.random.default_rng(5)
    sol = fig4_bic
    cases = [(p, float(eigensystem(build(p)).eigenvalues[0].real), ())
             for p in (fig3_params(), fig4_params(), fig5_params())]
    # the exact bound state: E = lambda takes the rounding-zero path
    cases.append((sol.params, sol.lam, (sol.lam,)))
    for params, center, extra in cases:
        grid = np.unique(np.concatenate([np.linspace(center - 2.0, center + 2.0, 301),
                                         extra]))
        for channel in (1, 2):
            f = _evaluator(params, channel)
            full = f(grid)
            assert [f(np.array([x]))[0] for x in grid] == full.tolist()
            subset = rng.permutation(len(grid))[:97]
            assert f(grid[subset]).tolist() == full[subset].tolist()


def test_every_spectrum_call_passes_a_one_dim_float64_array(monkeypatch, fig4_bic):
    # the package has one calling convention for spectra: a 1-d float64
    # array of abscissae in, one value per abscissa out
    calls = []

    def recording(*args):
        f = _spectrum(*args)

        def recorded(x):
            calls.append(x)
            return f(x)
        return recorded

    def arguments():
        seen = {(type(x), np.ndim(x), str(getattr(x, "dtype", None))) for x in calls}
        calls.clear()
        return seen

    one_dim = {(np.ndarray, 1, "float64")}
    monkeypatch.setattr(bic_lab.spectrum, "_spectrum", recording)
    spectrum_series(fig4_params(), 5.0, 8.0, 201)
    assert arguments() == one_dim
    refined = peak_metrics(fig4_params())
    assert refined.refined and arguments() == one_dim
    assert not peak_metrics(fig4_bic.params.replace(eta=1.0 - 1e-12)).refined
    assert arguments() == one_dim
    widths = sweep_eta(fig4_params(), FIG4_ETA_LIST).widths()
    assert None not in widths and arguments() == one_dim

    # refine_peak's failed-batch path: the first lookahead batch raises
    f, window, seeds = _real_line(fig4_params())

    def failing(x):
        calls.append(x)
        if len(calls) == 2:
            raise PoleHit("the first lookahead batch fails")
        return f(x)

    assert refine_peak(failing, window, seeds) == refined
    assert calls[2].tolist() == calls[1][:1].tolist()
    assert arguments() == one_dim


# ---------------------------------------------------------------------------
# _amplitude takes the point-free products once per matrix and shifts the
# diagonal as one (3, N) array; every bit must stay that of the plain
# cofactor formula, kept here as the oracle, except at the removable points


def _oracle_amplitude(mat, v, channel, x):
    """The amplitude at the points x from the cofactor formula, every
    product taken per call; also the mask of rounding-zero points, which
    take N'/D' when removable."""
    m00, m11, m22 = mat[0, 0], mat[1, 1], mat[2, 2]
    n01, n02, n12 = -mat[0, 1], -mat[0, 2], -mat[1, 2]
    n10, n20, n21 = -mat[1, 0], -mat[2, 0], -mat[2, 1]
    eps = float(np.finfo(float).eps)
    s_mat = max(1.0, float(np.max(np.abs(mat))))
    v_max = float(np.max(np.abs(v)))

    e = np.asarray(x, dtype=complex)
    n00, n11, n22 = e - m00, e - m11, e - m22
    det = (n00 * (n11 * n22 - n12 * n21)
           - n01 * (n10 * n22 - n12 * n20)
           + n02 * (n10 * n21 - n11 * n20))
    if channel == 1:
        c0 = n11 * n22 - n12 * n21
        c1 = -(n01 * n22 - n02 * n21)
        c2 = n01 * n12 - n02 * n11
    else:
        c0 = -(n10 * n22 - n12 * n20)
        c1 = n00 * n22 - n02 * n20
        c2 = -(n00 * n12 - n02 * n10)
    num = c0 * v[0] + c1 * v[1] + c2 * v[2]
    floor_d = 8.0 * eps * np.maximum(s_mat, np.abs(x)) ** 3
    tiny = np.abs(det) < floor_d
    amps = num / np.where(tiny, 1.0, det)
    for i in np.flatnonzero(tiny):
        a, b, c = n00[i], n11[i], n22[i]
        # D' is the sum of the three principal 2x2 minors of xI - M
        d_det = (b * c - n12 * n21) + (a * c - n02 * n20) + (a * b - n01 * n10)
        # the derivatives of the numerator's three cofactors
        dc = (b + c, -n01, -n02) if channel == 1 else (-n10, a + c, -n12)
        r = (dc[0] * v[0] + dc[1] * v[1] + dc[2] * v[2]) / d_det
        s = max(s_mat, abs(float(x[i])))
        floor = 8.0 * eps * s * s
        if not (abs(d_det) >= floor and abs(num[i] - r * det[i]) < floor * (v_max + abs(r) * s)):
            raise PoleHit(f"determinant vanishes at E_tilde={float(x[i])!r} "
                          "and the point is not removable")
        amps[i] = r
    return amps, tiny


def test_amplitude_is_bit_equal_to_the_cofactor_oracle(rng, fig4_bic):
    cases = []
    for k in range(500):
        p = random_params(rng, coherent=bool(k % 2))
        eigenvalues = eigensystem(build(p)).eigenvalues
        x = np.concatenate([rng.uniform(-12.0, 12.0, 24), eigenvalues.real,
                            eigenvalues.real + rng.normal(0.0, 1e-3, 3)])
        cases.append((p, x))
    # exact bound states: E = lambda is a removable rounding-zero point
    bics = [fig4_bic] + [solve_bic(**d) for d in _FAR_OUT_BIC_DESIGNS]
    cases += [(sol.params, np.array([sol.lam - 0.5, sol.lam, sol.lam + 1e-12, sol.lam + 0.5]))
              for sol in bics]
    resolved = 0
    for p, x in cases:
        mat, v = build(p), coupling_vector(p)
        for channel in (1, 2):
            try:
                want, tiny = _oracle_amplitude(mat, v, channel, x)
            except PoleHit as exc:
                with pytest.raises(PoleHit, match=f"^{re.escape(str(exc))}$"):
                    _amplitude(mat, v, channel)(x)
                continue
            got = _amplitude(mat, v, channel)(x)
            assert got[~tiny].view(np.uint64).tolist() == want[~tiny].view(np.uint64).tolist()
            assert got[tiny] == pytest.approx(want[tiny], rel=1e-12)
            resolved += int(tiny.sum())
    assert resolved >= 2 * len(bics)


# ---------------------------------------------------------------------------
# refine_peak evaluates several search steps per call of f; its result must
# be that of the point-by-point search, kept here as the oracle


def _oracle_maxima(ys):
    """_merge_plateaus as a loop over the runs of equal values."""
    maxima = []
    i = 1
    n = len(ys)
    while i < n - 1:
        j = i
        while j < n - 1 and ys[j + 1] == ys[j]:
            j += 1
        if ys[i] > ys[i - 1] and (j < n - 1 and ys[j] > ys[j + 1]):
            maxima.append((i + j) // 2)
        i = j + 1
    return maxima


def _oracle_refine_peak(f, window, seeds=(), n_coarse=801):
    """refine_peak as a sequential search calling f on one point per step."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValidationError(f"empty window ({lo!r}, {hi!r})")
    xs = np.linspace(lo, hi, n_coarse)
    if len(seeds) > 0:
        inside = [s for s in np.asarray(seeds, dtype=float) if lo < s < hi]
        if inside:
            xs = np.unique(np.concatenate([xs, np.array(inside)]))
    ys = np.asarray(f(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        raise ConvergenceFailure("spectrum evaluation returned non-finite values")
    if ys.max() <= 0.0:
        raise NoPeak("window contains no positive spectral weight")
    margin = 0.05 * (hi - lo)
    lmask = xs <= lo + margin
    rmask = xs >= hi - margin
    bx1, by1 = xs[lmask].mean(), ys[lmask].mean()
    bx2, by2 = xs[rmask].mean(), ys[rmask].mean()
    slope = (by2 - by1) / (bx2 - bx1)

    def floor(x):
        return by1 + slope * (x - bx1)

    def at(x):
        # f at one step's point, evaluated as a one-point array
        return f(np.array([x]))[0]

    im = int(np.argmax(ys))
    if ys[im] >= math.e ** 2 * floor(xs[im]):
        work, base, work_ys = at, None, ys
    else:
        base = floor
        work_ys = ys - floor(xs)

        def work(x):
            return at(x) - base(x)

        im = int(np.argmax(work_ys))
    if im == 0 or im == len(xs) - 1:
        raise NoPeak(f"maximum sits on the window edge at {float(xs[im])!r}; no interior peak")
    top = work_ys[im]
    if top <= 1e-12 * float(np.max(np.abs(ys))):
        raise NoPeak("window contains no feature above its local floor")
    tall = [k for k in _oracle_maxima(work_ys) if work_ys[k] >= top / math.e]
    for a in range(len(tall)):
        for b in range(a + 1, len(tall)):
            valley = work_ys[tall[a]:tall[b] + 1].min()
            if valley <= min(work_ys[tall[a]], work_ys[tall[b]]) * (1.0 - 1e-6):
                raise MultiPeak(
                    f"two separated maxima near {float(xs[tall[a]])!r} and {float(xs[tall[b]])!r} "
                    "are within 1/e of each other; narrow the window")
    a, b = xs[im - 1], xs[im + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = work(c), work(d)
    xtol = 1e-12 * max(1.0, abs(xs[im]))
    while (b - a) > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = work(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = work(d)
    e_peak = 0.5 * (a + b)
    height = work(e_peak)
    if height <= 0.0:
        raise NoPeak("refined peak has no positive height")
    target = height / math.e
    cross_tol = 1e-12 * (hi - lo)

    def crossing(direction):
        # bracketed by the first scanned abscissa out from the peak at or
        # below target and the one before it, or the peak
        x_in, edge = e_peak, hi if direction > 0 else lo
        for i in (range(len(xs)) if direction > 0 else range(len(xs) - 1, -1, -1)):
            if direction * (xs[i] - e_peak) <= 0.0:
                continue
            if work_ys[i] <= target:
                x_out = xs[i]
                break
            x_in = xs[i]
        else:
            raise NoPeak(f"spectrum never falls to 1/e of the peak before the window "
                         f"edge at {edge!r}")
        # cut the bracket into _SECTIONS parts, evaluating every cut, and keep
        # the part where the values first drop to target
        while abs(x_out - x_in) > cross_tol:
            nodes = ([x_in] + [x_in + (x_out - x_in) * (k / _SECTIONS)
                               for k in range(1, _SECTIONS)] + [x_out])
            vals = [work(x) for x in nodes[1:-1]] + [target]  # x_out is at or below it
            k = next(k for k, v in enumerate(vals, start=1) if v <= target)
            if (nodes[k - 1], nodes[k]) == (x_in, x_out):
                break
            x_in, x_out = nodes[k - 1], nodes[k]
        return 0.5 * (x_in + x_out)

    right = crossing(+1)
    left = crossing(-1)
    return PeakMetrics(e_peak=float(e_peak), height=float(height),
                       left_cross=float(left), right_cross=float(right), refined=True,
                       baseline=float(base(e_peak)) if base is not None else 0.0)


def test_merge_plateaus_matches_loop():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        # few distinct levels, so runs of equal values are common
        ys = rng.integers(0, 4, int(rng.integers(1, 40))).astype(float)
        assert _merge_plateaus(ys).tolist() == _oracle_maxima(ys)


def _random_line(rng):
    """A Lorentzian or Fano line, maybe on a sloped floor, with its window.

    Only +, -, * and / act on x, so a point gets the same value alone
    and inside any array.
    """
    lo = rng.uniform(-5.0, 5.0)
    hi = lo + rng.uniform(0.05, 3.0)
    c = rng.uniform(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo))
    h = (hi - lo) * 10.0 ** rng.uniform(-7.0, -0.5)
    amp = 10.0 ** rng.uniform(-3.0, 3.0)
    q = rng.uniform(-4.0, 4.0) if rng.uniform() < 0.5 else None
    level = amp * 10.0 ** rng.uniform(-1.0, 2.0) if rng.uniform() < 0.4 else 0.0
    slope = level * rng.uniform(-0.3, 0.3) / (hi - lo)
    second = rng.uniform(lo, hi) if rng.uniform() < 0.1 else None

    def f(x):
        d = x - c
        line = amp * h * h / (d * d + h * h)
        if q is not None:
            line = line * (q + d / h) * (q + d / h) / (1.0 + q * q)
        if second is not None:
            e = x - second
            line = line + amp * h * h / (e * e + h * h)
        return line + (level + slope * (x - lo))

    seeds = (c,) if rng.uniform() < 0.3 else ()
    return f, (lo, hi), seeds


def _outcome(search, f, window, seeds):
    try:
        return search(f, window, seeds=seeds)
    except (NoPeak, MultiPeak, ConvergenceFailure, ValueError) as exc:
        return type(exc), str(exc)


def _real_line(params):
    """A parameter set's spectrum with the window and seeds of peak_metrics."""
    eigenvalues = eigensystem(build(params)).eigenvalues
    window = _auto_window(eigenvalues)
    return _evaluator(params), window, _pole_seeds(eigenvalues, window)


def test_refine_peak_matches_point_by_point_search():
    rng = np.random.default_rng(7)
    kinds = {"raw": 0, "baseline": 0, "error": 0}
    lines = [_random_line(rng) for _ in range(200)]
    lines += [_real_line(fig4_params().replace(eta=eta)) for eta in FIG4_ETA_LIST]
    lines += [_real_line(random_params(rng, coherent=True)) for _ in range(20)]
    for f, window, seeds in lines:
        want = _outcome(_oracle_refine_peak, f, window, seeds)
        got = _outcome(refine_peak, f, window, seeds)
        assert got == want
        if isinstance(want, PeakMetrics):
            kinds["baseline" if want.baseline != 0.0 else "raw"] += 1
        else:
            assert "np." not in got[1], got  # messages print plain floats
            kinds["error"] += 1
    # every branch of the search is exercised
    assert min(kinds.values()) >= 10, kinds


def test_refine_peak_ignores_failures_at_points_it_never_visits():
    c, h = 0.3, 0.01

    def line(x):
        return 1.0 / ((x - c) * (x - c) + h * h)

    def recorder(calls):
        def recording(x):
            calls.append(np.array(x, dtype=float, ndmin=1))
            return line(x)
        return recording

    oracle_calls, calls = [], []
    want = _oracle_refine_peak(recorder(oracle_calls), (0.2, 0.4))
    assert refine_peak(recorder(calls), (0.2, 0.4)) == want
    # a few calls do the work of the point-by-point steps
    assert len(calls) < len(oracle_calls) / 5
    visited = set(np.concatenate(oracle_calls).tolist())
    never = sorted(set(np.concatenate(calls).tolist()) - visited)
    poisoned = never[len(never) // 2]
    failing_calls = []

    def failing(x):
        failing_calls.append(x.copy())
        if np.any(x == poisoned):
            raise PoleHit(f"determinant vanishes at E_tilde={poisoned!r}")
        return line(x)

    assert refine_peak(failing, (0.2, 0.4)) == want
    # each failed batch was replaced by the point the step needed, its
    # first, evaluated alone in the next call
    failed = [k for k, x in enumerate(failing_calls) if poisoned in x]
    # and no later batch holds a point of the failed one
    assert len(failed) == 1
    for k in failed:
        assert len(failing_calls[k]) > 1
        assert failing_calls[k + 1].tolist() == failing_calls[k][:1].tolist()


def test_crossing_search_stops_on_a_sub_ulp_bracket():
    # the tolerance 1e-12*|window| = 2e-18 is far below one ulp of 1e4
    # (1.8e-12): the search ends when a round no longer shrinks the bracket
    c, h = 1e4 + 0.123, 2e-7
    calls = []

    def line(x):
        calls.append(x)
        d = x - c
        return h * h / (d * d + h * h)

    m = refine_peak(line, (c - 1e-6, c + 1e-6))
    assert len(calls) <= 10
    want = c + h * math.sqrt(math.e - 1.0)
    assert abs(m.right_cross - want) <= np.spacing(want)


def test_refine_peak_takes_at_most_16_calls_per_line():
    params = [fig4_params().replace(eta=eta) for eta in FIG4_ETA_LIST]
    params += [fig5_params().replace(eta=float(eta)) for eta in fig5_eta_grid()]
    for p in params:
        f, window, seeds = _real_line(p)
        calls = []

        def counting(x):
            calls.append(x)
            return f(x)

        _outcome(refine_peak, counting, window, seeds)
        assert len(calls) <= 16, (p.eta, len(calls))


def test_lookahead_trees_hold_exactly_the_next_steps_of_every_path():
    # follow the golden-section loop of refine_peak along every sequence of outcomes
    rng = np.random.default_rng(3)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(40):
        a = np.float64(rng.uniform(-5.0, 5.0))
        xtol = 1e-12 * max(1.0, abs(a))
        b = a + xtol * 10.0 ** rng.uniform(-0.5, 3.0)
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        steps = set()
        for path in range(2 ** _LOOKAHEAD):
            aa, bb, cc, dd = a, b, c, d
            for k in range(_LOOKAHEAD + 1):
                if not (bb - aa) > xtol:
                    steps.add(float(0.5 * (aa + bb)))
                    break
                if k == _LOOKAHEAD:
                    break
                if path >> k & 1:
                    bb, dd = dd, cc
                    cc = bb - invphi * (bb - aa)
                    steps.add(float(cc))
                else:
                    aa, cc = cc, dd
                    dd = aa + invphi * (bb - aa)
                    steps.add(float(dd))
        assert set(_golden_tree(a, b, c, d, xtol)) == steps


def test_pole_seeds_are_seven_offsets_of_each_eigenvalue_in_the_window():
    offsets = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    # w = |Im lam| for a resolved pole; an eigenvalue outside the window adds no seed
    eigenvalues = np.array([complex(2.5, -0.03), complex(7.0, -1e-3), complex(-1.0, -1e-3)])
    assert _pole_seeds(eigenvalues, (2.0, 3.0)) == [2.5 + k * 0.03 for k in offsets]
    # w = 1e-13 max(1, |re|) for a pole narrower than that
    for re_, w in ((1e4 + 0.25, 1e-13 * (1e4 + 0.25)), (0.5, 1e-13)):
        seeds = _pole_seeds(np.array([complex(re_, -1e-20)]), (re_ - 1.0, re_ + 1.0))
        assert seeds == [re_ + k * w for k in offsets]
    assert _pole_seeds(np.array([complex(3.0, -0.1)]), (2.0, 3.0)) == []


def test_the_scan_is_linspace_bit_for_bit():
    rng = np.random.default_rng(13)
    windows = [(lo, lo + w) for lo, w in zip(rng.uniform(-1e4, 1e4, 300),
                                             10.0 ** rng.uniform(-10.0, 4.0, 300))]
    # a step that underflows, a window a few ulps wide, and one near the float range
    windows += [(0.0, 5e-324), (0.0, 1e-310), (1.0, 1.0 + 4 * np.spacing(1.0)),
                (-1e300, 1e300)]
    for lo, hi in windows:
        scans = []

        def flat(x):
            scans.append(x.copy())
            return np.ones_like(x)

        with pytest.raises(NoPeak):
            refine_peak(flat, (lo, hi))
        want = np.linspace(lo, hi, _N_COARSE)
        assert scans[0].view(np.uint64).tolist() == want.view(np.uint64).tolist(), (lo, hi)


def test_a_stalled_search_is_a_convergence_failure_not_a_hang(monkeypatch):
    # with 1/phi = 1 a golden step to (c, b) keeps the whole bracket: the line
    # peaks right of its highest scan point, so the search takes that step forever
    monkeypatch.setattr(bic_lab.spectrum, "_INVPHI", 1.0)
    c, h = 0.3 + 1e-4, 0.01
    with pytest.raises(ConvergenceFailure,
                       match=r"^golden section did not converge in \d+ steps$"):
        refine_peak(lambda x: 1.0 / ((x - c) * (x - c) + h * h), (0.2, 0.4))


def test_non_finite_spectrum_is_a_convergence_failure(fig4):
    # an overflowing spectrum is a numerical failure, not a malformed series
    with pytest.raises(ConvergenceFailure, match="non-finite"):
        spectrum_series(fig4, 6.0, 1e300, 11)
    with pytest.raises(ConvergenceFailure, match="non-finite"):
        refine_peak(lambda x: np.where(x > 0.5, np.inf, 1.0), (0.0, 1.0))
