from __future__ import annotations

import math

import numpy as np
import pytest

from bic_lab.bic import (
    BicSolution,
    bic_vector,
    certify,
    solve_bic,
    vic_residual,
)
from bic_lab.errors import DegenerateVector, SingularSolve
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.recipes import fig3_params, fig4_exact_bic_solution, fig5_params


def test_vic_residual_zero_at_coherence():
    p = fig5_params()
    assert vic_residual(p) == 0.0
    assert vic_residual(p.replace(eta=0.9)) == pytest.approx(-0.19)


def test_bic_vector_direction():
    x, c = bic_vector(g1=3.0, g2=2.0, gamma1=1.0, gamma2=1.0)
    d = math.sqrt(2.0) - math.sqrt(3.0)
    assert x[0] == pytest.approx(1.0 / d, rel=1e-15)
    assert x[1] == pytest.approx(-1.0 / d, rel=1e-15)
    assert x[2] == 1.0
    assert c == pytest.approx(np.linalg.norm(x), rel=1e-15)


def test_bic_vector_kills_b():
    g1, g2, gamma1, gamma2 = 1.7, 0.6, 0.21, 0.08
    x, _ = bic_vector(g1, g2, gamma1, gamma2)
    # B X = 0 requires both rank-1 damping pieces to annihilate X
    u = np.array([math.sqrt(g1), math.sqrt(g2), 1.0])
    w = np.array([math.sqrt(gamma1), math.sqrt(gamma2), 0.0])
    assert u @ x == pytest.approx(0.0, abs=1e-14)
    assert w @ x == pytest.approx(0.0, abs=1e-14)


def test_bic_vector_guards():
    with pytest.raises(ValueError):
        bic_vector(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(DegenerateVector):
        # g1/g2 = gamma1/gamma2 makes the direction undefined
        bic_vector(2.0, 1.0, 0.5, 0.25)


def test_solve_bic_frozen_example():
    sol = fig4_exact_bic_solution()
    assert isinstance(sol, BicSolution)
    assert sol.lam == pytest.approx(6.762316255329463, rel=1e-14)
    assert sol.delta1 == pytest.approx(6.421908049556006, rel=1e-14)
    assert sol.delta2 == pytest.approx(6.6195917942265465, rel=1e-14)
    assert sol.x[0] == pytest.approx(-3.1462643699419743, rel=1e-14)
    assert sol.x[1] == pytest.approx(3.1462643699419743, rel=1e-14)
    assert sol.c == pytest.approx(4.56047793231507, rel=1e-13)
    assert sol.residual_a < 1e-14
    assert sol.residual_b < 1e-14


def test_solve_bic_result_is_exact_eigenpair():
    sol = solve_bic(g1=0.9, g2=2.3, q1=0.3, q2=-1.1, delta=0.2,
                    gamma1=0.4, gamma2=0.7, inv_kca=1.5)
    pair = build(sol.params)
    unit = sol.x / sol.c
    assert np.linalg.norm(pair.a @ unit - sol.lam * unit) < 1e-13
    assert np.linalg.norm(pair.b @ unit) < 1e-13
    # the full complex matrix then has the exactly real eigenvalue
    eig = eigensystem(pair)
    k = int(np.argmin(np.abs(eig.eigenvalues - sol.lam)))
    assert eig.eigenvalues[k].imag == pytest.approx(0.0, abs=1e-12)
    assert eig.eigenvalues[k].real == pytest.approx(sol.lam, rel=1e-12)


def test_solve_bic_singular_geometry():
    # g1 = g12*sqrt(gamma1/gamma2) leaves lambda unconstrained
    with pytest.raises(SingularSolve):
        solve_bic(g1=2.0, g2=2.0, q1=0.1, q2=0.2, delta=0.0,
                  gamma1=4.0, gamma2=1.0, g12=1.0)


def test_solve_bic_rejects_zero_gamma2():
    with pytest.raises(ValueError):
        solve_bic(g1=1.0, g2=2.0, q1=0.0, q2=0.0, delta=0.0,
                  gamma1=1.0, gamma2=0.0)


def test_certify_confirms_constructed_bic():
    sol = fig4_exact_bic_solution()
    rep = certify(sol.params)
    assert rep.is_bic
    assert rep.min_abs_im < 1e-12
    assert rep.lambda_est == pytest.approx(sol.lam, rel=1e-12)
    assert rep.residual_b < 1e-10
    assert rep.vic_residual == 0.0


def test_certify_frozen_deviated_fig3():
    rep = certify(fig3_params())
    assert not rep.is_bic
    assert rep.min_abs_im == pytest.approx(1.1427791e-4, rel=1e-6)
    assert rep.lambda_est == pytest.approx(1.2944198519681624, rel=1e-12)


def test_certify_tolerance_knob():
    rep_loose = certify(fig3_params(), tol_im=1e-3)
    assert rep_loose.is_bic


def test_imaginary_part_perturbation_slope():
    # first order in (1 - eta) at the exact bound state:
    # |Im E1| = 2*|x1*x2|/C^2 * (1 - eta) for gamma1 = gamma2 = 1
    sol = fig4_exact_bic_solution()
    x1, x2 = sol.x[0], sol.x[1]
    slope = 2.0 * abs(x1 * x2) / sol.c ** 2
    eps = 1e-6
    eig = eigensystem(build(sol.params.replace(eta=1.0 - eps)))
    assert abs(eig.eigenvalues[0].imag) / eps == pytest.approx(slope, rel=1e-3)
