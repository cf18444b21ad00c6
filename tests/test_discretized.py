from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from bic_lab import discretized
from bic_lab.discretized import (
    DiscretizedModel,
    GridSpec,
    compare_pole_approximation,
    default_probes,
    discretize,
    resolvent_check,
    smoothed_kernel_sum,
)
from bic_lab.errors import (ConvergenceFailure, FixedPointDivergence, GridCoverage,
                            ProbeOnSpectrum, ValidationError, ZeroWidth)
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


def test_grid_coverage_guard():
    model = reference_gaussian_model()
    with pytest.raises(GridCoverage):
        discretize(model, GridSpec(e_min=0.0, e_max=2.0, n_e=50))
    # a wide enough window passes
    discretize(model, GridSpec(e_min=0.0, e_max=4.5, n_e=50))


def test_coverage_fraction_vs_erfc(rng):
    # Gaussian couplings have a closed-form weight outside [lo, hi]:
    # int exp(-(E-c)^2/w^2) over [x, inf) is (w sqrt(pi)/2) erfc((x-c)/w).
    # lo is either 0 or at least one width above it, so the erfc
    # difference of the lower tail does not cancel.
    checked = 0
    for _ in range(300):
        c, w, amp = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.8), rng.uniform(0.05, 0.3)
        hi = c + w * rng.uniform(1.0, 6.5)
        lo = c - w * rng.uniform(1.0, 6.0)
        if lo < w:
            lo = 0.0
        got = discretized._coverage_fraction(GaussianCoupling(amp, c, w), lo, hi)
        below = math.erfc((c - lo) / w) - math.erfc(c / w) if lo > 0.0 else 0.0
        want = (math.erfc((hi - c) / w) + below) / math.erfc(-c / w)
        if want > 1e-12:
            checked += 1
            assert got == pytest.approx(want, rel=1e-6)
        assert (got > discretized._TAIL_FRACTION) == (want > discretized._TAIL_FRACTION)
    assert checked > 200


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
    probes = default_probes(dm)
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
    with pytest.raises(FixedPointDivergence):
        compare_pole_approximation(dm, model, params)


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
    # float ** 2 on a 1e300 coupling raises OverflowError inside the
    # coverage quadrature; a 1e160 vacuum coupling overflows the coupling
    # scale of the default probes, before anything is factored
    base = reference_gaussian_model()
    huge = replace(base, lambda1=GaussianCoupling(amplitude=1e300, center=1.25, width=0.45))
    with pytest.raises(ConvergenceFailure, match="discretize overflowed"):
        discretize(huge, GridSpec(e_min=0.0, e_max=4.5, n_e=60))
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60, k_min=0.0, k_max=3.0, n_k=10)
    dm = discretize(replace(base, v2f=1e160), grid)
    overflow = (r"^coupling scale 2 pi max_n sum_q C_nq\^2 overflowed \(inf\): "
                "no finite default probes$")
    with np.errstate(all="ignore"), pytest.raises(ConvergenceFailure, match=overflow):
        resolvent_check(dm)


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
    probes = default_probes(dm)
    probes += [complex(z.real, math.copysign(im, z.imag))
               for z in probes for im in (1e-6, 1e-3)]
    rep = resolvent_check(dm, probes)
    assert rep.probes == probes
    oracle = _dense_solve_deviations(dm, probes)
    np.testing.assert_allclose(rep.deviations, oracle, rtol=0.0, atol=1e-12)


def test_resolvent_factorization_failure_is_convergence_failure(monkeypatch):
    from scipy.sparse import linalg

    def singular(a):
        raise RuntimeError("Factor is exactly singular")

    dm = discretize(flat_model(), GridSpec(e_min=0.0, e_max=10.0, n_e=8))
    monkeypatch.setattr(linalg, "splu", singular)
    with pytest.raises(ConvergenceFailure,
                       match="^resolvent solve failed: splu: Factor is exactly singular$"):
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
    probes = default_probes(dm)
    probes += [complex(z.real, math.copysign(1e-6, z.imag)) for z in probes]
    want = []
    for z in probes:
        full = splu(z * eye - h).solve(np.eye(dm.size, 3))[:3]
        reduced = np.linalg.inv(z * np.eye(3) - dm.h_pp - dm.sigma(z))
        want.append(float(np.max(np.abs(full - reduced)) / np.max(np.abs(full))))
    assert resolvent_check(dm, probes).deviations == want


def test_pole_comparison_needs_a_feshbach_width():
    # the same condition to_dimensionless reports as ZeroWidth
    model = flat_model()
    params = to_dimensionless(derive_couplings(model), model)
    dead = replace(model, v3=FlatCoupling(0.0))
    dm = discretize(dead, GridSpec(e_min=0.0, e_max=10.0, n_e=8))
    with pytest.raises(ZeroWidth, match="Gamma_F"):
        compare_pole_approximation(dm, dead, params)
