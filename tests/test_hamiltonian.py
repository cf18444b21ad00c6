from __future__ import annotations

import math

import numpy as np
import pytest

from bic_lab.errors import ConvergenceFailure
from bic_lab.hamiltonian import (
    RESIDUAL_RTOL,
    build,
    char_coeffs,
    cubic_roots,
    eigensystem,
)
from conftest import random_params


def test_build_matches_hand_assembly(generic_params):
    p = generic_params
    m = build(p)
    s1, s2 = math.sqrt(p.g1), math.sqrt(p.g2)
    a_ref = np.array([
        [p.delta1, p.delta, p.q1 * s1],
        [p.delta, p.delta2, p.q2 * s2],
        [p.q1 * s1, p.q2 * s2, -p.inv_kca],
    ])
    off = p.g12 + p.eta
    b_ref = -np.array([
        [p.g1 + p.gamma1, off, s1],
        [off, p.g2 + p.gamma2, s2],
        [s1, s2, 1.0],
    ])
    assert m.shape == (3, 3) and m.dtype == complex
    np.testing.assert_array_equal(m.real, a_ref)
    np.testing.assert_array_equal(m.imag, b_ref)
    np.testing.assert_array_equal(m, a_ref + 1j * b_ref)


def test_build_is_exactly_symmetric(rng):
    for _ in range(20):
        m = build(random_params(rng))
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("n", [2, 4])
def test_eigensystem_rejects_a_matrix_that_is_not_3x3(n):
    with pytest.raises(ValueError, match=rf"^the matrix must be 3x3, got shape \({n}, {n}\)$"):
        eigensystem(np.eye(n, dtype=complex))


def test_vic_kills_constant_term():
    # at eta = sqrt(gamma1*gamma2) and coherent lasers, det B = 0
    p_vic = random_params(np.random.default_rng(7), coherent=True)
    assert np.linalg.det(build(p_vic).imag) == pytest.approx(0.0, abs=1e-12)


def test_char_coeffs_convention(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c2, c1, c0 = char_coeffs(m)
    for x in (0.3 - 0.7j, -1.2 + 0.4j):
        direct = np.linalg.det(x * np.eye(3) - m)
        poly = x ** 3 - c2 * x ** 2 + c1 * x - c0
        assert poly == pytest.approx(direct, rel=1e-12)


def test_cubic_roots_against_numpy(rng):
    for _ in range(200):
        c2, c1, c0 = (complex(*rng.normal(size=2)) for _ in range(3))
        ours = sorted(cubic_roots(c2, c1, c0), key=lambda z: (z.real, z.imag))
        ref = sorted(np.roots([1.0, -c2, c1, -c0]), key=lambda z: (z.real, z.imag))
        for a, b in zip(ours, ref):
            assert a == pytest.approx(b, rel=1e-7, abs=1e-9)


def test_cubic_roots_triple_root():
    # (x - 2)^3: c2 = 6, c1 = 12, c0 = 8
    roots = cubic_roots(6.0 + 0j, 12.0 + 0j, 8.0 + 0j)
    for r in roots:
        assert r == pytest.approx(2.0, abs=1e-5)


def test_cubic_roots_wide_scale_split():
    # roots spanning 12 decades: raw Cardano alone loses the small root
    # to the depressed-cubic shift, the Newton polish recovers it
    from bic_lab.hamiltonian import _polish_root

    r_true = [1e6, 1.0, 1e-6]
    c2 = sum(r_true)
    c1 = r_true[0] * r_true[1] + r_true[0] * r_true[2] + r_true[1] * r_true[2]
    c0 = r_true[0] * r_true[1] * r_true[2]
    raw = cubic_roots(complex(c2), complex(c1), complex(c0))
    got = sorted(_polish_root(r, complex(c2), complex(c1), complex(c0)).real
                 for r in raw)
    for g, t in zip(got, sorted(r_true)):
        assert g == pytest.approx(t, rel=1e-9)


def test_eigensystem_matches_numpy(rng):
    for _ in range(100):
        p = random_params(rng)
        m = build(p)
        eig = eigensystem(m)
        ref = np.sort_complex(np.linalg.eigvals(m))
        got = np.sort_complex(eig.eigenvalues)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-11)


def test_eigensystem_residuals_and_vectors(fig4, fig5, generic_params, fig4_bic):
    rng = np.random.default_rng(5)
    cases = [fig4, fig5, fig4_bic.params, generic_params]
    cases += [random_params(rng, coherent=bool(i % 2)) for i in range(100)]
    compared = 0
    for p in cases:
        m = build(p)
        eig = eigensystem(m)
        scale = max(1.0, float(np.linalg.norm(m)))
        ref_vals, ref_vecs = np.linalg.eig(m)
        gaps = [abs(eig.eigenvalues[i] - eig.eigenvalues[j])
                for i, j in ((0, 1), (0, 2), (1, 2))]
        separated = min(gaps) > 1e-3 * scale
        for k in range(3):
            v = eig.eigenvectors[:, k]
            lam = eig.eigenvalues[k]
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
            assert np.linalg.norm(m @ v - lam * v) <= RESIDUAL_RTOL * scale
            assert eig.residuals[k] <= RESIDUAL_RTOL * scale
            if separated:
                u = ref_vecs[:, np.argmin(np.abs(ref_vals - lam))]
                assert abs(np.vdot(v, u)) == pytest.approx(1.0, abs=1e-9)
                compared += 1
    assert compared >= 3 * 90


def test_eigensystem_ordering(rng):
    for _ in range(30):
        eig = eigensystem(build(random_params(rng)))
        ims = eig.eigenvalues.imag
        assert ims[0] >= ims[1] >= ims[2]


def test_eigenvector_phase_convention(fig4):
    eig = eigensystem(build(fig4))
    for k in range(3):
        v = eig.eigenvectors[:, k]
        lead = next(c for c in v if abs(c) > 1e-12)
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0.0


def test_eigensystem_scalar_matrix_triple_root():
    eig = eigensystem(2.0 * np.eye(3, dtype=complex))
    np.testing.assert_allclose(eig.eigenvalues, 2.0, atol=1e-12)
    assert np.all(eig.residuals == 0.0)


def test_eigensystem_defective_pair_double_root():
    # [[1, i], [i, -1]] is nilpotent: eigenvalue 0 twice, one eigenvector
    a = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 5.0]])
    b = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    eig = eigensystem(a + 1j * b)
    lams = sorted(eig.eigenvalues, key=lambda z: abs(z))
    assert lams[0] == pytest.approx(0.0, abs=1e-8)
    assert lams[1] == pytest.approx(0.0, abs=1e-8)
    assert lams[2] == pytest.approx(5.0, rel=1e-12)


def test_vieta_guard_catches_collapsed_roots(monkeypatch, fig4):
    import bic_lab.hamiltonian as ham

    def collapsed(c2, c1, c0):
        r = c2 / 3.0 + 1.0
        return [r, r, r]

    monkeypatch.setattr(ham, "cubic_roots", collapsed)
    with pytest.raises(ConvergenceFailure, match="trace"):
        ham.eigensystem(build(fig4))


def test_residual_guard_catches_roots_off_the_spectrum(monkeypatch, fig4):
    import bic_lab.hamiltonian as ham

    true_roots = ham.cubic_roots
    shift = 1e-3

    def perturbed(c2, c1, c0):
        # opposite shifts keep the root sum, so the trace check still passes
        r = true_roots(c2, c1, c0)
        return [r[0] + shift, r[1] - shift, r[2]]

    monkeypatch.setattr(ham, "cubic_roots", perturbed)
    monkeypatch.setattr(ham, "_polish_root", lambda x, c2, c1, c0: x)
    threshold = RESIDUAL_RTOL * max(float(np.linalg.norm(build(fig4))), 1.0)
    with pytest.raises(ConvergenceFailure) as exc:
        ham.eigensystem(build(fig4))
    message = str(exc.value)
    assert message.startswith("eigen residual ")
    assert message.endswith(f" exceeds 1.0e-10 * ||M|| = {threshold:.3e}")
    # a root shifted by d off a simple eigenvalue leaves a residual of order d
    assert float(message.split()[2]) == pytest.approx(shift, rel=0.5)
    assert threshold < 1e-3 * shift


@pytest.mark.parametrize("key,value", [("g1", 1e200), ("q2", 1e160)])
def test_eigensystem_overflow_is_a_convergence_failure(key, value, fig4_bic):
    # the characteristic coefficients overflow to inf and the roots to NaN;
    # the trace check must reject them before any LAPACK call
    params = fig4_bic.params.replace(**{key: value})
    with pytest.raises(ConvergenceFailure, match="root sum"):
        eigensystem(build(params))
