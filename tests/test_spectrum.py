from __future__ import annotations

import math

import numpy as np
import pytest

from bic_lab.errors import MultiPeak, NoPeak, PoleHit, ValidationError
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.params import DimensionlessParams
from bic_lab.recipes import fig3_params, fig4_exact_bic_solution, fig4_params, fig5_params
from bic_lab.spectrum import (
    LORENTZ_WIDTH_FACTOR,
    PeakMetrics,
    SpectrumSeries,
    _coupling_vector,
    _det_and_numerator,
    _spectrum_values,
    amplitude,
    peak_metrics,
    refine_peak,
    spectrum_series,
    sweep_eta,
)
from conftest import random_params


def test_amplitude_channel_validation(fig4):
    with pytest.raises(ValueError, match="channel"):
        amplitude(fig4, 1.0, channel=3)


def test_amplitude_matches_direct_linear_solve(rng):
    # |amp|^2 = |[ (E I - M)^-1 v ]_n |^2 * |det/det| ... the adjugate
    # shortcut must agree with a plain solve away from poles
    for _ in range(20):
        p = random_params(rng)
        m = build(p).matrix()
        v = _coupling_vector(p)
        e = rng.uniform(-3.0, 10.0)
        direct = np.linalg.solve(e * np.eye(3) - m, v)
        for ch in (1, 2):
            assert amplitude(p, e, channel=ch) == pytest.approx(direct[ch - 1], rel=1e-9)


def test_det_factorizes_over_eigenvalues(fig4):
    m = build(fig4).matrix()
    v = _coupling_vector(fig4)
    eig = eigensystem(build(fig4))
    for e in (0.0, 3.7, 6.76, 12.0):
        det, _ = _det_and_numerator(m, v, complex(e), 1)
        ref = np.prod([e - lam for lam in eig.eigenvalues])
        assert complex(det) == pytest.approx(ref, rel=1e-9)


def test_amplitude_removable_at_exact_bic():
    # the numerator shares the real root of det: the point is removable
    # and must evaluate to the (finite) limit, not a ratio of rounding
    # residues
    sol = fig4_exact_bic_solution()
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
    with pytest.raises(PoleHit):
        _spectrum_values(m, v, np.array([1.0]), 1)


def test_no_lasers_no_signal():
    p = DimensionlessParams(g1=0.0, g2=0.0, q1=0.0, q2=0.0,
                            delta1=1.0, delta2=2.0, delta=0.0,
                            gamma1=0.3, gamma2=0.2, eta=0.0, inv_kca=0.5)
    for e in (-1.0, 0.0, 0.7, 3.0):
        assert amplitude(p, e) == 0.0


def test_spectrum_series_validation():
    with pytest.raises(ValueError):
        SpectrumSeries(grid=np.array([0.0, 0.0, 1.0]),
                       values=np.zeros(3), channel=1)
    with pytest.raises(ValueError):
        SpectrumSeries(grid=np.array([0.0, 1.0]),
                       values=np.array([1.0, -1.0]), channel=1)
    with pytest.raises(ValueError):
        spectrum_series(fig3_params(), 2.0, 1.0, 100)


def test_spectrum_series_refines_narrow_line():
    p = fig5_params(eta=0.9999)
    im1 = abs(eigensystem(build(p)).eigenvalues[0].imag)
    s = spectrum_series(p, 6.5, 7.0, 101)
    assert len(s.grid) > 101
    re1 = eigensystem(build(p)).eigenvalues[0].real
    near = np.abs(s.grid - re1) < 2.0 * im1
    assert near.sum() >= 32
    assert np.all(np.diff(s.grid) > 0)
    assert np.all(s.values >= 0.0)


def test_spectrum_series_plain_grid_when_no_narrow_modes(fig3):
    s = spectrum_series(fig3_params(deviate="none"), -0.5, 0.5, 64, channel=2)
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

    with pytest.raises(MultiPeak):
        refine_peak(f, (0.0, 1.0))


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
    m = peak_metrics(fig4_params(eta=1.0))
    e1 = eigensystem(build(fig4_params(eta=1.0))).eigenvalues[0]
    assert m.refined
    assert m.e_peak == pytest.approx(e1.real, abs=5e-7)
    assert m.width_w == pytest.approx(LORENTZ_WIDTH_FACTOR * abs(e1.imag), rel=5e-2)
    assert m.left_cross < m.e_peak < m.right_cross


def test_peak_metrics_analytic_branch_for_sub_resolution_pole():
    base = fig4_exact_bic_solution().params
    p = base.replace(eta=1.0 - 1e-12)
    e1 = eigensystem(build(p)).eigenvalues[0]
    assert 0.0 < abs(e1.imag) < 1e-10
    m = peak_metrics(p)
    assert not m.refined
    assert m.e_peak == float(e1.real)
    assert m.width_w == pytest.approx(LORENTZ_WIDTH_FACTOR * abs(e1.imag), rel=1e-9)
    assert m.left_cross < m.e_peak < m.right_cross


def test_peak_metrics_crossings_bracket_invariant():
    with pytest.raises(ValueError, match="bracket"):
        PeakMetrics(e_peak=1.0, height=1.0, width_w=0.1,
                    left_cross=1.2, right_cross=1.3, refined=True)


def test_sweep_eta_order_and_error_capture():
    etas = [0.99, 1.0, 0.9]
    res = sweep_eta(fig4_params(), etas, window=(100.0, 101.0))
    assert [p.eta for p in res.points] == etas
    for pt in res.points:
        # the window excludes every resonance: recorded, not raised
        assert pt.metrics is None
        assert pt.error is not None and "NoPeak" in pt.error
        assert np.isfinite(pt.re_e1) and np.isfinite(pt.im_e1)
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
