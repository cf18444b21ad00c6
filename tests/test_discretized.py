from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from bic_lab import discretized
from bic_lab.discretized import (
    DiscretizedModel,
    GridSpec,
    compare_pole_approximation,
    discretize,
    resolvent_check,
    smoothed_kernel_sum,
)
from bic_lab.errors import (ConvergenceFailure, DivergentTail, FixedPointDivergence,
                            GridCoverage, ProbeOnSpectrum, ValidationError, ZeroWidth)
from bic_lab.microscopic import (
    CouplingModel,
    FlatCoupling,
    GaussianCoupling,
    WignerCoupling,
    derive_couplings,
    pv_integral,
    reference_gaussian_model,
    to_dimensionless,
)


def flat_model(c=0.01):
    """Wide-band limit: constant couplings on a finite window around e3."""
    return CouplingModel(
        lambda1=FlatCoupling(0.5 * c), lambda2=FlatCoupling(0.8 * c),
        v3=FlatCoupling(c), v1f=0.0, v2f=0.0,
        omega13=0.002, omega23=-0.001, e3=5.0, dipole_overlap=0.0,
        e_max=10.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(e_min=-1.0, e_max=1.0, n_e=10)
    with pytest.raises(ValueError):
        GridSpec(e_min=0.0, e_max=0.0, n_e=10)
    with pytest.raises(ValueError):
        GridSpec(e_min=0.0, e_max=1.0, n_e=0)
    with pytest.raises(ValueError):
        GridSpec(e_min=0.0, e_max=1.0, n_e=10, n_k=5, k_min=0.0, k_max=0.0)
    with pytest.raises(ValueError, match="n_k must be >= 0"):
        GridSpec(e_min=0.0, e_max=1.0, n_e=10, n_k=-1)


def test_discretize_shapes_and_hermiticity():
    model = reference_gaussian_model()
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=50, k_min=0.0, k_max=3.0, n_k=20)
    dm = discretize(model, grid)
    assert dm.n_q == 50 + 2 * 20
    assert dm.size == 3 + 90
    h = dm.matrix().toarray()
    assert np.array_equal(h, h.T)
    # no continuum-continuum coupling
    q_block = h[3:, 3:]
    assert np.array_equal(q_block, np.diag(np.diag(q_block)))


def test_discretize_bin_normalization():
    model = flat_model()
    dm = discretize(model, GridSpec(e_min=0.0, e_max=10.0, n_e=40))
    # coupling row carries Lambda(E_j) * sqrt(dE): squared row sum equals
    # int Lambda^2 dE for a flat coupling
    row = dm.coupling[2, :]
    assert np.sum(row ** 2) == pytest.approx(0.01 ** 2 * 10.0, rel=1e-12)


def test_photon_bins_carry_doubled_weight():
    model = CouplingModel(
        lambda1=FlatCoupling(0.0), lambda2=FlatCoupling(0.0),
        v3=FlatCoupling(0.01), v1f=0.03, v2f=0.02,
        omega13=0.0, omega23=0.0, e3=1.0, dipole_overlap=0.0, e_max=2.0)
    grid = GridSpec(e_min=0.0, e_max=2.0, n_e=8, k_min=0.0, k_max=2.0, n_k=4)
    dm = discretize(model, grid)
    # vacuum row sums: sum v^2 * 2 dk = 2 v^2 (k_max - k_min)
    v1_row = dm.coupling[0, 8:]
    assert np.sum(v1_row ** 2) == pytest.approx(2.0 * 0.03 ** 2 * 2.0, rel=1e-12)
    v2_row = dm.coupling[1, 8:]
    assert np.sum(v2_row ** 2) == pytest.approx(2.0 * 0.02 ** 2 * 2.0, rel=1e-12)


def test_dipole_overlap_splits_photon_channels():
    model = CouplingModel(
        lambda1=FlatCoupling(0.0), lambda2=FlatCoupling(0.0),
        v3=FlatCoupling(0.01), v1f=0.03, v2f=0.02,
        omega13=0.0, omega23=0.0, e3=1.0, dipole_overlap=0.6, e_max=2.0)
    grid = GridSpec(e_min=0.0, e_max=2.0, n_e=4, k_min=0.0, k_max=2.0, n_k=3)
    dm = discretize(model, grid)
    shared = dm.coupling[:, 4:7]
    ortho = dm.coupling[:, 7:10]
    # |e1> sees only the shared continuum; the orthogonal one is |e2>-only
    assert np.all(ortho[0, :] == 0.0)
    assert np.all(shared[2, :] == 0.0) and np.all(ortho[2, :] == 0.0)
    # weights p and sqrt(1-p^2) preserve the total |e2> decay...
    total_e2 = np.sum(shared[1, :] ** 2) + np.sum(ortho[1, :] ** 2)
    assert total_e2 == pytest.approx(2.0 * 0.02 ** 2 * 2.0, rel=1e-12)
    # ...while the cross damping picks up exactly the overlap factor
    cross = np.sum(shared[0, :] * shared[1, :])
    assert cross == pytest.approx(0.6 * 2.0 * 0.03 * 0.02 * 2.0, rel=1e-12)


def _oracle_bins(model, grid):
    """coupling, diag_q and the per-bin smoothing as discretize and
    compare_pole_approximation assembled them from two vstacked photon
    blocks of ones and zeros and three width fields."""
    e_width = (grid.e_max - grid.e_min) / grid.n_e
    e_centers = grid.e_min + (np.arange(grid.n_e) + 0.5) * e_width
    blocks = [np.vstack([f(e_centers) * math.sqrt(e_width)
                         for f in (model.lambda1, model.lambda2, model.v3)])]
    diag = [e_centers]
    k_width = 0.0
    if grid.n_k > 0:
        k_width = (grid.k_max - grid.k_min) / grid.n_k
        k_centers = grid.k_min + (np.arange(grid.n_k) + 0.5) * k_width
        root2_dk = math.sqrt(2.0 * k_width)
        p = model.dipole_overlap
        ortho = math.sqrt(max(0.0, 1.0 - p * p))
        ones, zeros = np.ones_like(k_centers), np.zeros_like(k_centers)
        blocks.append(np.vstack([model.v1f * root2_dk * ones,
                                 model.v2f * p * root2_dk * ones, zeros]))
        blocks.append(np.vstack([zeros, model.v2f * ortho * root2_dk * ones, zeros]))
        diag += [k_centers, k_centers]
    eps_bins = np.full(grid.n_e + 2 * grid.n_k, 10.0 * e_width)
    eps_bins[grid.n_e:] = 10.0 * k_width
    return np.hstack(blocks), np.concatenate(diag), eps_bins


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n_k", [0, 1, 30])
@pytest.mark.parametrize("overlap", [-1.0, -0.3, 0.0, 0.6, 1.0])
def test_bins_keep_the_bits_of_the_block_assembly(overlap, n_k):
    base = replace(reference_gaussian_model(), dipole_overlap=overlap)
    g = GaussianCoupling(amplitude=0.1, center=2.5, width=0.3)
    for model, e_min in ((base, 0.0), (replace(base, lambda1=g, lambda2=g, v3=g), 0.5)):
        grid = GridSpec(e_min=e_min, e_max=4.5, n_e=60, k_min=0.2, k_max=3.0, n_k=n_k)
        dm = discretize(model, grid, e1_rot=0.9, e2_rot=1.1)
        coupling, diag_q, eps_bins = _oracle_bins(model, grid)
        assert _same_bits(dm.coupling, coupling)
        assert _same_bits(dm.diag_q, diag_q)
        assert _same_bits(10.0 * dm.bin_width, eps_bins)


def test_grid_coverage_guard():
    model = reference_gaussian_model()
    with pytest.raises(GridCoverage):
        discretize(model, GridSpec(e_min=0.0, e_max=2.0, n_e=50))
    # a wide enough window passes
    discretize(model, GridSpec(e_min=0.0, e_max=4.5, n_e=50))


def test_coverage_integrates_only_outside_the_grid(monkeypatch):
    import scipy.integrate

    ranges = []
    quad = scipy.integrate.quad

    def counting_quad(f, a, b, **kwargs):
        ranges.append((a, b))
        return quad(f, a, b, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    model = reference_gaussian_model()
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60, k_min=0.0, k_max=3.0, n_k=30)
    first = discretize(model, grid)
    # the tail above the window for each of the three couplings (lo = 0)
    assert ranges == [(4.5, math.inf)] * 3
    # a second call integrates afresh: no state outlives a call
    again = discretize(model, grid)
    assert len(ranges) == 6
    assert np.array_equal(again.coupling, first.coupling)
    # lo > 0: the tails below and above the window for each coupling
    g = GaussianCoupling(amplitude=0.1, center=2.5, width=0.3)
    discretize(replace(model, lambda1=g, lambda2=g, v3=g),
               GridSpec(e_min=0.5, e_max=4.5, n_e=60))
    assert ranges[6:] == [(0.0, 0.5), (4.5, math.inf)] * 3
    # a short window fails on both calls, after lambda1's one tail
    short = GridSpec(e_min=0.0, e_max=2.0, n_e=50)
    for _ in range(2):
        with pytest.raises(GridCoverage, match="^collision grid misses .* of [|]lambda1[|]"):
            discretize(model, short)
    assert len(ranges) == 14


@dataclass(eq=False)
class MutableGaussian:
    """A Gaussian coupling that compares by identity: hashable, yet mutable."""

    amplitude: float
    center: float
    width: float

    def __call__(self, e):
        return GaussianCoupling(self.amplitude, self.center, self.width)(e)


@dataclass
class PlainGaussian(MutableGaussian):
    """The same coupling as a plain dataclass; eq=True sets __hash__ = None."""


def test_unhashable_coupling_discretizes():
    model = reference_gaussian_model()
    plain = PlainGaussian(0.16, 1.25, 0.45)
    with pytest.raises(TypeError, match="unhashable"):
        hash(plain)
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60, k_min=0.0, k_max=3.0, n_k=30)
    dm = discretize(replace(model, lambda1=plain), grid)
    assert np.array_equal(dm.coupling, discretize(model, grid).coupling)


def test_widened_coupling_fails_coverage_on_the_next_call():
    coupling = MutableGaussian(0.16, 1.25, 0.45)
    model = replace(reference_gaussian_model(), lambda1=coupling)
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60)
    discretize(model, grid)
    coupling.width = 3.0
    wide = r"^collision grid misses 8\.689e-02 of [|]lambda1[|]\^2"
    with pytest.raises(GridCoverage, match=wide):
        discretize(model, grid)


def test_coverage_fraction_vs_erfc(rng):
    # Gaussian couplings have a closed-form weight outside [lo, hi]:
    # int exp(-(E-c)^2/w^2) over [x, inf) is (w sqrt(pi)/2) erfc((x-c)/w).
    # lo is either 0 or at least one width above it, so the erfc
    # difference of the lower tail does not cancel.  The fraction is that
    # weight over itself plus the weight held on n_e midpoint bins; its
    # verdict agrees with the fraction of the exact total on [0, inf).
    checked = 0
    for _ in range(300):
        c, w, amp = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.8), rng.uniform(0.05, 0.3)
        hi = c + w * rng.uniform(1.0, 6.5)
        lo = c - w * rng.uniform(1.0, 6.0)
        if lo < w:
            lo = 0.0
        f = GaussianCoupling(amp, c, w)
        below = math.erfc((c - lo) / w) - math.erfc(c / w) if lo > 0.0 else 0.0
        outside = amp ** 2 * w * math.sqrt(math.pi) / 2.0 * (math.erfc((hi - c) / w) + below)
        exact = (math.erfc((hi - c) / w) + below) / math.erfc(-c / w)
        for n_e in (8, 50, 400):
            centers = lo + (np.arange(n_e) + 0.5) * (hi - lo) / n_e
            held = float(np.sum(f(centers) ** 2)) * (hi - lo) / n_e
            got = discretized._coverage_fraction("lambda1", f, lo, hi, held)
            want = outside / (outside + held)
            if want > 1e-12:
                checked += 1
                assert got == pytest.approx(want, rel=1e-6)
            assert (got > discretized._TAIL_FRACTION) == (exact > discretized._TAIL_FRACTION)
    assert checked > 600


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("name", ["lambda1", "lambda2", "v3"])
def test_coupling_not_finite_past_the_grid_is_a_validation_error(name, warn):
    # finite on the grid, NaN above E = 5: the NaN coverage fraction passed
    # the guard (NaN > 1e-8 is false), or under -W error quad's bare
    # IntegrationWarning escaped
    base = reference_gaussian_model()
    shape = getattr(base, name)

    def broken(e):
        return np.where(np.asarray(e) > 5.0, np.nan, shape(e))

    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        with pytest.raises(ValidationError, match=rf"^{name} is not finite at E="):
            discretize(replace(base, **{name: broken}), GridSpec(e_min=0.0, e_max=4.5, n_e=60))


def test_coverage_tail_failures_name_their_coupling():
    # a Wigner tail of scale 1e300 has no finite weight past the grid
    model = replace(reference_gaussian_model(), lambda1=WignerCoupling(amplitude=0.1, scale=1e300))
    with pytest.raises(DivergentTail, match=r"^[|]lambda1[|]\^2 past E=4\.500e\+00 did not "
                                            "converge: The integral is probably divergent"):
        discretize(model, GridSpec(e_min=0.0, e_max=4.5, n_e=60))
    # a fast oscillation below the grid exhausts the 200 subdivisions there
    g = GaussianCoupling(amplitude=0.1, center=2.5, width=0.3)

    def oscillating(e):
        e = np.asarray(e, dtype=float)
        out = g(e) + np.where(e < 0.5, 0.1 * np.sin(1e4 * e), 0.0)
        return out if out.ndim else float(out)

    model = replace(model, lambda1=g, lambda2=g, v3=oscillating)
    with pytest.raises(ConvergenceFailure, match=r"^[|]v3[|]\^2 below E=5\.000e-01 did not "
                                                 r"converge: The maximum number of subdivisions"):
        discretize(model, GridSpec(e_min=0.5, e_max=4.5, n_e=60))


def test_sigma_single_bin_closed_form():
    model = flat_model()
    dm = discretize(model, GridSpec(e_min=0.0, e_max=10.0, n_e=1))
    z = 2.0 + 0.5j
    c = dm.coupling[:, 0]
    expected = np.outer(c, c) / (z - dm.diag_q[0])
    np.testing.assert_allclose(dm.sigma(z), expected, rtol=1e-14)


def test_resolvent_identity_grid_sizes():
    model = reference_gaussian_model()
    for n_e in (1, 10, 400):
        dm = discretize(model, GridSpec(e_min=0.0, e_max=4.5, n_e=n_e,
                                        k_min=0.0, k_max=3.0, n_k=max(1, n_e // 2)))
        rep = resolvent_check(dm)
        assert len(rep.probes) == 8
        assert rep.max_deviation < 1e-10


def test_resolvent_identity_zero_coupling():
    model = CouplingModel(
        lambda1=FlatCoupling(0.0), lambda2=FlatCoupling(0.0),
        v3=FlatCoupling(0.0), v1f=0.0, v2f=0.0,
        omega13=0.0, omega23=0.0, e3=1.0, dipole_overlap=0.0, e_max=2.0)
    dm = discretize(model, GridSpec(e_min=0.0, e_max=2.0, n_e=16))
    assert np.all(dm.sigma(1.0 + 1.0j) == 0.0)
    assert resolvent_check(dm).max_deviation < 1e-12


def test_resolvent_probe_on_axis_rejected():
    dm = discretize(flat_model(), GridSpec(e_min=0.0, e_max=10.0, n_e=8))
    with pytest.raises(ProbeOnSpectrum):
        resolvent_check(dm, probes=[5.0 + 0.0j])


def test_default_probes_off_axis():
    dm = discretize(flat_model(), GridSpec(e_min=0.0, e_max=10.0, n_e=8))
    probes = resolvent_check(dm).probes
    assert len(probes) == 8
    assert all(abs(z.imag) >= 1.0 for z in probes)


def test_smoothed_kernel_sum_matches_pv():
    lam = WignerCoupling(amplitude=0.3, scale=1.0)

    def f(e):
        return lam(e) ** 2

    e3, lo, hi = 0.25, 0.0, 5.0
    ref = pv_integral(f, e3, hi)
    got = smoothed_kernel_sum(f, e3, lo, hi, 4000)
    diff = abs(got.real - ref)
    assert diff < 1e-4
    # smoothing error is O(eps^2) with eps = 10 dE: halving the bin width
    # must shrink the deviation by about 4x
    diff_fine = abs(smoothed_kernel_sum(f, e3, lo, hi, 8000).real - ref)
    assert diff_fine < 0.4 * diff


def test_flat_limit_pole_agreement():
    # constant couplings on a wide window: the freeze-at-E3 approximation
    # is exact up to finite-window edge effects
    model = flat_model()
    res = derive_couplings(model)
    params = to_dimensionless(res, model, e1=4.99, e2=5.01)
    dm = discretize(model, GridSpec(e_min=0.0, e_max=10.0, n_e=8000),
                    e1_rot=4.99, e2_rot=5.01)
    cmp = compare_pole_approximation(dm, model, params)
    assert cmp.max_deviation < 1e-6


def test_zero_laser_spontaneous_rates():
    # lasers off: the dressed states decay only into the photon continua,
    # so the discretized poles must sit at Im z = -gamma_sp/2; this pins
    # the sqrt(2 dk) photon-bin normalization
    model = CouplingModel(
        lambda1=FlatCoupling(0.0), lambda2=FlatCoupling(0.0),
        v3=FlatCoupling(0.01), v1f=0.03, v2f=0.02,
        omega13=0.0, omega23=0.0, e3=1.0, dipole_overlap=0.0, e_max=2.0)
    res = derive_couplings(model)
    params = to_dimensionless(res, model, e1=0.8, e2=1.2)
    grid = GridSpec(e_min=0.0, e_max=2.0, n_e=4000, k_min=0.0, k_max=2.0, n_k=4000)
    dm = discretize(model, grid, e1_rot=0.8, e2_rot=1.2)
    cmp = compare_pole_approximation(dm, model, params)
    by_re = {round(z.real, 1): z for z in cmp.poles}
    gamma1_sp, gamma2_sp = res.gamma1_sp, res.gamma2_sp
    assert by_re[0.8].imag == pytest.approx(-gamma1_sp / 2.0, rel=1e-2)
    assert by_re[1.2].imag == pytest.approx(-gamma2_sp / 2.0, rel=1e-2)


def test_fixed_point_divergence_guard(monkeypatch):
    monkeypatch.setattr(discretized, "_MAX_ITER", 1)
    model = flat_model()
    res = derive_couplings(model)
    params = to_dimensionless(res, model, e1=4.99, e2=5.01)
    dm = discretize(model, GridSpec(e_min=0.0, e_max=10.0, n_e=200),
                    e1_rot=4.99, e2_rot=5.01)
    with pytest.raises(FixedPointDivergence) as exc:
        compare_pole_approximation(dm, model, params)
    assert "np." not in str(exc.value)  # the start z0 prints as a plain complex


def _reference_collision_model():
    """The reference Gaussian model on the 403-state collision grid."""
    model = reference_gaussian_model()
    params = to_dimensionless(derive_couplings(model), model, e1=0.9, e2=1.1)
    dm = discretize(model, GridSpec(e_min=0.0, e_max=4.5, n_e=400), e1_rot=0.9, e2_rot=1.1)
    return dm, model, params


def test_poles_reproduce_themselves():
    # a pole z is an eigenvalue of H_PP + Sigma sampled at Re z + i*eps
    dm, model, params = _reference_collision_model()
    cmp = compare_pole_approximation(dm, model, params)
    for z in cmp.poles:
        lams = np.linalg.eigvals(dm.h_pp + dm.sigma(z.real + 1j * cmp.smoothing))
        assert np.min(np.abs(lams - z)) <= 1e-12 * max(1.0, abs(z))


def test_pole_search_takes_few_eigen_steps(monkeypatch):
    # the secant on Re z needs four or five 3x3 eigenproblems per pole
    calls = []
    nearest = discretized._eig3_nearest

    def counted(mat, z0):
        calls.append(z0)
        return nearest(mat, z0)

    monkeypatch.setattr(discretized, "_eig3_nearest", counted)
    compare_pole_approximation(*_reference_collision_model())
    assert 3 <= len(calls) <= 20


def test_non_finite_sigma_is_a_divergence_not_a_nan_pole(monkeypatch):
    dm, model, params = _reference_collision_model()
    monkeypatch.setattr(DiscretizedModel, "sigma", lambda self, z: np.full((3, 3), np.nan))
    with pytest.raises(FixedPointDivergence, match="non-finite step"):
        compare_pole_approximation(dm, model, params)


def test_narrow_gaussian_pole_accuracy_is_finite():
    # structured couplings: the pole approximation is only approximate;
    # the deviation must be small but is not expected to vanish
    model = reference_gaussian_model()
    res = derive_couplings(model)
    params = to_dimensionless(res, model, e1=0.9, e2=1.1)
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=2000, k_min=0.0, k_max=3.0, n_k=1000)
    dm = discretize(model, grid, e1_rot=0.9, e2_rot=1.1)
    cmp = compare_pole_approximation(dm, model, params)
    assert cmp.max_deviation < 0.2 * res.gamma_f


def test_vacuum_cross_decay_converges_to_the_discretized_poles():
    # flat couplings make the pole approximation exact: with the 4 pi cross
    # term the two least-damped poles converge as the bins refine (4x per
    # 4x bins), where a 2 pi term would plateau at 0.23 sqrt(gamma1*gamma2)
    model = CouplingModel(
        lambda1=FlatCoupling(0.0), lambda2=FlatCoupling(0.0), v3=FlatCoupling(0.1),
        v1f=0.006, v2f=0.005, omega13=0.0, omega23=0.0, e3=1.0,
        dipole_overlap=0.9, e_max=2.0)
    e1, e2 = 1.0 - 5e-5, 1.0 + 5e-5
    res = derive_couplings(model)
    params = to_dimensionless(res, model, e1=e1, e2=e2)
    scale = math.sqrt(res.gamma1_sp * res.gamma2_sp)
    devs = []
    for n in (2000, 8000):
        grid = GridSpec(e_min=0.0, e_max=2.0, n_e=n, k_min=0.0, k_max=2.0, n_k=n)
        cmp = compare_pole_approximation(discretize(model, grid, e1_rot=e1, e2_rot=e2),
                                         model, params)
        slow = np.argsort(np.abs(cmp.reference.imag))[:2]
        devs.append(cmp.deviations[slow] / scale)
    coarse, fine = devs
    assert np.all(coarse < 0.01) and np.all(fine < 0.01)
    assert np.all(coarse >= 3.0 * fine)


def test_overflowing_couplings_are_convergence_failures():
    # the held weight of a 1e300 coupling is summed to inf without a
    # warning, then float ** 2 raises OverflowError in its tail quadrature
    # (a 1e155 one, with finite tails, fails on the inf held weight); a
    # 1e160 vacuum coupling overflows the coupling scale of the default
    # probes, before anything is factored
    base = reference_gaussian_model()
    huge = replace(base, lambda1=GaussianCoupling(amplitude=1e300, center=1.25, width=0.45))
    with pytest.raises(ConvergenceFailure, match="discretize overflowed"):
        discretize(huge, GridSpec(e_min=0.0, e_max=4.5, n_e=60))
    big = replace(base, lambda1=GaussianCoupling(amplitude=1e155, center=1.25, width=0.45))
    with pytest.raises(ConvergenceFailure, match="discretize overflowed: held weight"):
        discretize(big, GridSpec(e_min=0.0, e_max=4.5, n_e=60))
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60, k_min=0.0, k_max=3.0, n_k=10)
    dm = discretize(replace(base, v2f=1e160), grid)
    overflow = (r"^coupling scale 2 pi max_n sum_q C_nq\^2 overflowed \(inf\): "
                "no finite default probes$")
    with pytest.raises(ConvergenceFailure, match=overflow):
        resolvent_check(dm)


@pytest.mark.parametrize("name", ["lambda1", "lambda2", "v3"])
def test_non_finite_coupling_is_a_validation_error(name):
    # a coupling that is NaN on part of the collision grid gives a NaN
    # coverage fraction, which no tolerance comparison rejects: it must
    # fail by name before any quadrature sees it
    base = reference_gaussian_model()
    shape = getattr(base, name)

    def broken(e):
        return np.where(np.asarray(e) > 2.0, np.nan, shape(e))

    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60)
    with pytest.raises(ValidationError,
                       match=rf"^{name} is not finite on the collision grid$"):
        discretize(replace(base, **{name: broken}), grid)


def _dense_solve_deviations(dm, probes):
    """The elimination check by one dense complex solve per probe: an
    independent oracle for the sparse LU route."""
    h = dm.matrix().toarray()
    eye_p = np.zeros((dm.size, 3))
    eye_p[:3, :3] = np.eye(3)
    deviations = []
    for z in probes:
        full = np.linalg.solve(z * np.eye(dm.size) - h, eye_p)[:3, :]
        reduced = np.linalg.inv(z * np.eye(3) - dm.h_pp - dm.sigma(z))
        deviations.append(float(np.max(np.abs(full - reduced)) / np.max(np.abs(full))))
    return deviations


@pytest.mark.parametrize("n_e", [1, 10, 60, 200])
@pytest.mark.parametrize("photons", [False, True], ids=["collision", "photon_bins"])
def test_resolvent_check_matches_dense_solves(n_e, photons):
    # both routes compare against the same reduced side, where the dense
    # solves deviate by ~1e-15; deviations that agree to 1e-12 therefore
    # bound the gap between the two full sides by ~1e-12 relative
    grid = (GridSpec(e_min=0.0, e_max=4.5, n_e=n_e, k_min=0.0, k_max=3.0,
                     n_k=max(1, n_e // 2)) if photons
            else GridSpec(e_min=0.0, e_max=4.5, n_e=n_e))
    dm = discretize(reference_gaussian_model(), grid)
    probes = resolvent_check(dm).probes
    probes += [complex(z.real, math.copysign(im, z.imag))
               for z in probes for im in (1e-6, 1e-3)]
    rep = resolvent_check(dm, probes)
    assert rep.probes == probes
    oracle = _dense_solve_deviations(dm, probes)
    np.testing.assert_allclose(rep.deviations, oracle, rtol=0.0, atol=1e-12)


def test_resolvent_factorization_failure_is_convergence_failure(monkeypatch):
    from scipy.sparse import linalg

    def singular(a, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    dm = discretize(flat_model(), GridSpec(e_min=0.0, e_max=10.0, n_e=8))
    monkeypatch.setattr(linalg, "splu", singular)
    with pytest.raises(ConvergenceFailure,
                       match="^resolvent solve failed: splu: Factor is exactly singular$"):
        resolvent_check(dm)


def test_resolvent_reduced_side_failure_is_convergence_failure(monkeypatch):
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    dm = discretize(flat_model(), GridSpec(e_min=0.0, e_max=10.0, n_e=8))
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(ConvergenceFailure, match="^resolvent solve failed: Singular matrix$"):
        resolvent_check(dm)


@pytest.mark.parametrize("probes", [[], [complex("nan+1j")], [1.0 + 1.0j, math.inf]],
                         ids=["empty", "nan", "inf"])
def test_resolvent_check_rejects_bad_probes(probes):
    dm = discretize(flat_model(), GridSpec(e_min=0.0, e_max=10.0, n_e=8))
    with pytest.raises(ValidationError, match="^probes: must be nonempty and finite"):
        resolvent_check(dm, probes)


def test_matrix_is_sparse_block_layout():
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60, k_min=0.0, k_max=3.0, n_k=30)
    dm = discretize(reference_gaussian_model(), grid)
    h = dm.matrix()
    assert h.format == "csc"
    assert h.nnz <= 9 + 7 * dm.n_q
    expected = np.block([[dm.h_pp, dm.coupling],
                         [dm.coupling.T, np.diag(dm.diag_q)]])
    assert np.array_equal(h.toarray(), expected)


def test_resolvent_check_does_not_reuse_sigma(monkeypatch):
    # the full side is built from H alone: a Sigma that leaves out the
    # bin coupled most strongly to |c> breaks the identity, and the check
    # must see it
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60, k_min=0.0, k_max=3.0, n_k=30)
    dm = discretize(reference_gaussian_model(), grid)
    assert resolvent_check(dm).max_deviation < 1e-12
    j = int(np.argmax(np.abs(dm.coupling[2])))
    sigma = DiscretizedModel.sigma

    def sigma_without_bin_j(self, z):
        return sigma(replace(self, coupling=np.delete(self.coupling, j, axis=1),
                             diag_q=np.delete(self.diag_q, j)), z)

    monkeypatch.setattr(DiscretizedModel, "sigma", sigma_without_bin_j)
    assert resolvent_check(dm).max_deviation > 1e-6


def test_resolvent_check_matches_a_fresh_shifted_matrix_per_probe():
    # e1_rot = e2_rot = 0 stores explicit zeros in h_pp (and the photon
    # blocks store zero couplings); the one pattern written per probe must
    # give the deviations of a fresh sparse z - H, bit for bit
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60, k_min=0.0, k_max=3.0, n_k=30)
    dm = discretize(reference_gaussian_model(), grid, e1_rot=0.0, e2_rot=0.0)
    h = dm.matrix()
    assert np.count_nonzero(h.data == 0.0) > 0
    assert np.all(np.diag(dm.h_pp)[:2] == 0.0)
    eye = csc_array(np.eye(dm.size))
    probes = resolvent_check(dm).probes
    probes += [complex(z.real, math.copysign(1e-6, z.imag)) for z in probes]
    want = []
    for z in probes:
        full = splu(z * eye - h, panel_size=1).solve(np.eye(dm.size, 3))[:3]
        reduced = np.linalg.inv(z * np.eye(3) - dm.h_pp - dm.sigma(z))
        want.append(float(np.max(np.abs(full - reduced)) / np.max(np.abs(full))))
    assert resolvent_check(dm, probes).deviations == want


def test_pole_comparison_reads_the_feshbach_width_through_the_contract():
    # v3 is NaN at E3 alone, which no bin centre and no tail node reaches:
    # Gamma_F was NaN, which the positivity check let through
    model = reference_gaussian_model()
    params = to_dimensionless(derive_couplings(model), model, e1=0.9, e2=1.1)

    def nan_at_e3(e):
        return np.where(np.asarray(e) == model.e3, np.nan, model.v3(e))

    broken = replace(model, v3=nan_at_e3)
    dm = discretize(broken, GridSpec(e_min=0.0, e_max=4.5, n_e=60), e1_rot=0.9, e2_rot=1.1)
    with pytest.raises(ValidationError, match=r"^v3 is not finite at E=1\.0$"):
        compare_pole_approximation(dm, broken, params)


def test_pole_comparison_needs_a_feshbach_width():
    # the same condition to_dimensionless reports as ZeroWidth
    model = flat_model()
    params = to_dimensionless(derive_couplings(model), model)
    dead = replace(model, v3=FlatCoupling(0.0))
    dm = discretize(dead, GridSpec(e_min=0.0, e_max=10.0, n_e=8))
    with pytest.raises(ZeroWidth, match="Gamma_F"):
        compare_pole_approximation(dm, dead, params)
