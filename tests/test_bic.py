from __future__ import annotations

import math

import numpy as np
import pytest

from bic_lab.bic import (
    BicSolution,
    certify,
    solve_bic,
)
from bic_lab.errors import DegenerateVector, GainMode, ValidationError
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.params import DimensionlessParams, _passive
from bic_lab.recipes import FIG4_SHARED, fig3_params, fig4_params, fig5_params


def test_vic_residual_zero_at_coherence():
    p = fig5_params()
    assert certify(p).vic_residual == 0.0
    assert certify(p.replace(eta=0.9)).vic_residual == pytest.approx(-0.19)


def _closed_form_x(g1, g2, gamma1, gamma2):
    """X = (x1, x2, 1) and C = sqrt(x1^2 + x2^2 + 1) from the bic docstring."""
    d = math.sqrt(g2 * gamma1) - math.sqrt(g1 * gamma2)
    x1, x2 = math.sqrt(gamma2) / d, -math.sqrt(gamma1) / d
    return [x1, x2, 1.0], math.sqrt(x1 ** 2 + x2 ** 2 + 1.0)


def test_bic_vector_direction():
    sol = solve_bic(g1=3.0, g2=2.0, q1=-0.8, q2=0.54, delta=0.1, gamma1=1.0, gamma2=1.0)
    x, c = _closed_form_x(3.0, 2.0, 1.0, 1.0)
    d = math.sqrt(2.0) - math.sqrt(3.0)
    assert x[:2] == [1.0 / d, -1.0 / d]
    assert sol.x.tolist() == x
    assert sol.c == c


def test_bic_vector_kills_b():
    g1, g2, gamma1, gamma2 = 1.7, 0.6, 0.21, 0.08
    sol = solve_bic(g1, g2, q1=-0.8, q2=0.54, delta=0.1, gamma1=gamma1, gamma2=gamma2)
    x, c = _closed_form_x(g1, g2, gamma1, gamma2)
    assert sol.x.tolist() == x
    assert sol.c == c
    # B X = 0 requires both rank-1 damping pieces to annihilate X
    u = np.array([math.sqrt(g1), math.sqrt(g2), 1.0])
    w = np.array([math.sqrt(gamma1), math.sqrt(gamma2), 0.0])
    assert u @ sol.x == pytest.approx(0.0, abs=1e-14)
    assert w @ sol.x == pytest.approx(0.0, abs=1e-14)


def test_bic_vector_guards():
    with pytest.raises(ValidationError):
        solve_bic(1.0, 1.0, 0.1, 0.2, 0.3, gamma1=0.0, gamma2=1.0)
    with pytest.raises(ValidationError, match="g1, g2 >= 0"):
        solve_bic(-1.0, 1.0, 0.1, 0.2, 0.3, gamma1=1.0, gamma2=1.0)
    # g1/g2 = gamma1/gamma2 makes the direction undefined
    with pytest.raises(DegenerateVector):
        solve_bic(2.0, 1.0, 0.1, 0.2, 0.3, gamma1=0.5, gamma2=0.25)


def test_solve_bic_frozen_example(fig4_bic):
    sol = fig4_bic
    assert isinstance(sol, BicSolution)
    assert sol.lam == pytest.approx(6.762316255329463, rel=1e-14)
    assert sol.params.delta1 == pytest.approx(6.421908049556006, rel=1e-14)
    assert sol.params.delta2 == pytest.approx(6.6195917942265465, rel=1e-14)
    assert sol.x[0] == pytest.approx(-3.1462643699419743, rel=1e-14)
    assert sol.x[1] == pytest.approx(3.1462643699419743, rel=1e-14)
    assert sol.c == pytest.approx(4.56047793231507, rel=1e-13)
    assert sol.residual_a < 1e-14
    assert sol.residual_b < 1e-14


def test_solve_bic_result_is_exact_eigenpair():
    sol = solve_bic(g1=0.9, g2=2.3, q1=0.3, q2=-1.1, delta=0.2,
                    gamma1=0.4, gamma2=0.7, inv_kca=1.5)
    m = build(sol.params)
    unit = sol.x / sol.c
    assert np.linalg.norm(m.real @ unit - sol.lam * unit) < 1e-13
    assert np.linalg.norm(m.imag @ unit) < 1e-13
    # the full complex matrix then has the exactly real eigenvalue
    eig = eigensystem(m)
    k = int(np.argmin(np.abs(eig.eigenvalues - sol.lam)))
    assert eig.eigenvalues[k].imag == pytest.approx(0.0, abs=1e-12)
    assert eig.eigenvalues[k].real == pytest.approx(sol.lam, rel=1e-12)


@pytest.mark.parametrize("g1,g2,lam", [(0.0, 2.0, -0.54), (2.0, 0.0, 0.8)])
def test_solve_bic_with_one_laser_off_is_a_certified_bound_state(g1, g2, lam):
    # lambda comes from the Feshbach row with no division, so g1 = 0 or
    # g2 = 0 is no singular geometry: lambda = -q2 or -q1
    sol = solve_bic(g1=g1, g2=g2, q1=-0.8, q2=0.54, delta=0.1, gamma1=1.0, gamma2=1.0)
    assert sol.lam == pytest.approx(lam, abs=1e-15)
    assert sol.residual_a < 1e-15 and sol.residual_b < 1e-15
    assert sol.params.g12 == 0.0 and sol.params.eta == 1.0
    rep = certify(sol.params)
    assert rep.is_bic
    assert rep.eigenvalue.real == pytest.approx(sol.lam, rel=1e-12)


def test_solve_bic_derives_g12_and_takes_no_knob_for_it():
    # B has its zero mode only at the coherent g12 = sqrt(g1*g2)
    design = dict(g1=3.0, g2=2.0, q1=-0.8, q2=0.54, delta=0.1, gamma1=1.0, gamma2=1.0)
    assert solve_bic(**design).params.g12 == math.sqrt(6.0)
    with pytest.raises(TypeError):
        solve_bic(**design, g12=2.4)


@pytest.mark.parametrize("key,value,message", [
    # an input error, not the overflow of solve_bic's arithmetic (exit 3)
    ("g1", 10 ** 400, f"g1={10 ** 400!r} is not finite"),
    # not a TypeError from the width check
    ("gamma1", "1", "gamma1='1' is not a real number"),
], ids=["huge-int", "string"])
def test_solve_bic_refuses_a_bare_number_it_cannot_use(key, value, message):
    design = dict(g1=3.0, g2=2.0, q1=-0.8, q2=0.54, delta=0.1, gamma1=1.0, gamma2=1.0)
    with pytest.raises(ValidationError) as exc:
        solve_bic(**dict(design, **{key: value}))
    assert exc.value.violations == [message]


def test_solve_bic_rejects_zero_gamma2():
    with pytest.raises(ValueError):
        solve_bic(g1=1.0, g2=2.0, q1=0.0, q2=0.0, delta=0.0,
                  gamma1=1.0, gamma2=0.0)


def test_certify_confirms_constructed_bic(fig4_bic):
    sol = fig4_bic
    rep = certify(sol.params)
    assert rep.is_bic
    assert abs(rep.eigenvalue.imag) < 1e-12
    assert rep.eigenvalue.real == pytest.approx(sol.lam, rel=1e-12)
    assert rep.residual_b < 1e-10
    assert rep.vic_residual == 0.0


def test_certify_frozen_deviated_fig3():
    rep = certify(fig3_params())
    assert not rep.is_bic
    assert abs(rep.eigenvalue.imag) == pytest.approx(1.1427791e-4, rel=1e-6)
    assert rep.eigenvalue.real == pytest.approx(1.2944198519681624, rel=1e-12)


def test_fig_params_take_eta_by_replace():
    # the one way to deviate a caption set's eta gives the set built with it
    for g1, recipe in ((3.01, fig4_params), (3.0, fig5_params)):
        assert recipe().replace(eta=0.9) == DimensionlessParams(
            g1=g1, g2=2.0, gamma1=1.0, gamma2=1.0, eta=0.9, **FIG4_SHARED)


def test_fig3_params_rejects_unknown_deviate():
    with pytest.raises(ValueError, match="^deviate must be 'g1' or 'g2', got 'none'$"):
        fig3_params(deviate="none")


def test_certify_refuses_a_gain_mode():
    # eta = 3 > sqrt(gamma1*gamma2) = 1: the eigenvalue nearest the real axis
    # is damped, but the least-damped E1 grows, so no eigenvalue is certified
    params = fig4_params().replace(eta=3.0)
    assert eigensystem(build(params)).eigenvalues[0].imag > 0.0
    with pytest.raises(GainMode, match=r"^least-damped eigenvalue .* grows \(Im E1 > 0\)$"):
        certify(params)
    # a passive set with a finite decay is reported, not refused
    assert not certify(fig4_params().replace(eta=0.9)).is_bic


def test_certify_takes_the_matrix_norm_once(monkeypatch):
    # eigensystem's scale serves the trace, residual, gain and BIC
    # tolerances alike; eta = -1.01 makes a set that can grow but does not
    norm, shapes = np.linalg.norm, []

    def counting(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    for eta, passive in ((1.0, True), (-1.01, False)):
        params = fig4_params().replace(eta=eta)
        assert _passive(params) is passive
        shapes.clear()
        certify(params)
        assert shapes.count((3, 3)) == 1, (eta, shapes)


def test_another_verdict_reads_the_reported_eigenvalue():
    # certify has no tolerance knob: the deviated fig3 set is no bound
    # state, and a caller with a looser rule judges its reported eigenvalue
    with pytest.raises(TypeError):
        certify(fig3_params(), tol_im=1e-3)
    rep = certify(fig3_params())
    assert not rep.is_bic
    assert rep.eigenvalue.imag == pytest.approx(-1.1427791e-4, rel=1e-6)


def test_far_out_bound_states_certify_and_their_incoherent_twins_do_not(rng):
    # g1/g2 a factor (1 + 10^-k)^2 from gamma1/gamma2, k = 1..4, as in the
    # design_scan probes: X grows, |lambda| reaches 3.6e4, and Im E rounds
    # to 1e-9 and beyond, which is no decay on the matrix's scale.  First
    # the bound states at lambda = 1341, 5361, 13401 and 53601
    designs = [dict(g1=g1, g2=2.0, q1=-0.8, q2=0.54, delta=0.1, gamma1=1.0, gamma2=1.0)
               for g1 in (2.004, 2.001, 2.0004, 2.0001)]
    for i in range(200):
        g2, q1, q2, delta, gamma1, gamma2 = (
            float(x) for x in (rng.uniform(0.5, 5.0), *rng.uniform(-2.0, 2.0, 2),
                               rng.uniform(-0.5, 0.5), *rng.uniform(0.2, 2.0, 2)))
        g1 = g2 * gamma1 / gamma2 * (1.0 + 10.0 ** -(1 + i % 4)) ** 2
        designs.append(dict(g1=g1, g2=g2, q1=q1, q2=q2, delta=delta,
                            gamma1=gamma1, gamma2=gamma2))
    lams, ims = [], []
    for design in designs:
        sol = solve_bic(**design)
        rep = certify(sol.params)
        assert rep.is_bic, (design, rep)
        assert rep.eigenvalue.real == pytest.approx(sol.lam, rel=1e-12)
        assert not certify(sol.params.replace(eta=0.0)).is_bic, design
        lams.append(abs(sol.lam))
        ims.append(abs(rep.eigenvalue.imag))
    # an absolute 1e-9 would refuse a good share of them
    assert max(lams) > 3e4 and sum(im > 1e-9 for im in ims) >= 10


def test_imaginary_part_perturbation_slope(fig4_bic):
    # first order in (1 - eta) at the exact bound state:
    # |Im E1| = 2*|x1*x2|/C^2 * (1 - eta) for gamma1 = gamma2 = 1
    sol = fig4_bic
    x1, x2 = sol.x[0], sol.x[1]
    slope = 2.0 * abs(x1 * x2) / sol.c ** 2
    eps = 1e-6
    eig = eigensystem(build(sol.params.replace(eta=1.0 - eps)))
    assert abs(eig.eigenvalues[0].imag) / eps == pytest.approx(slope, rel=1e-3)


def _hand_a_and_b(p):
    """A and B assembled entry by entry from the formulas of the
    hamiltonian module docstring, as C-contiguous float arrays."""
    s1, s2 = math.sqrt(p.g1), math.sqrt(p.g2)
    off = p.g12 + p.eta
    a = np.array([[p.delta1, p.delta, p.q1 * s1],
                  [p.delta, p.delta2, p.q2 * s2],
                  [p.q1 * s1, p.q2 * s2, -p.inv_kca]])
    b = -np.array([[p.g1 + p.gamma1, off, s1],
                   [off, p.g2 + p.gamma2, s2],
                   [s1, s2, 1.0]])
    return a, b


def test_residuals_take_the_bits_of_contiguous_a_and_b():
    # a product with the strided views m.real, m.imag rounds differently
    # from one with contiguous A, B: the reported residuals must be the
    # latter's, bit for bit
    rng = np.random.default_rng(2021)
    for _ in range(500):
        sol = solve_bic(g1=rng.uniform(0.1, 5.0), g2=rng.uniform(0.1, 5.0),
                        q1=rng.uniform(-2.0, 2.0), q2=rng.uniform(-2.0, 2.0),
                        delta=rng.uniform(-1.0, 1.0), gamma1=rng.uniform(0.1, 3.0),
                        gamma2=rng.uniform(0.1, 3.0), inv_kca=rng.uniform(-3.0, 3.0))
        a, b = _hand_a_and_b(sol.params)
        unit = sol.x / sol.c
        assert sol.residual_a == float(np.linalg.norm(a @ unit - sol.lam * unit))
        assert sol.residual_b == float(np.linalg.norm(b @ unit))
        eig = eigensystem(build(sol.params))
        v = eig.eigenvectors[:, int(np.argmin(np.abs(eig.eigenvalues.imag)))]
        assert certify(sol.params).residual_b == float(np.linalg.norm(b @ v))
