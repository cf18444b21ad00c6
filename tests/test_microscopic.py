from __future__ import annotations

import math
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import quad

import bic_lab
from bic_lab.discretized import GridSpec, discretize
from bic_lab.errors import ConvergenceFailure, Degenerate, ValidationError
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
from bic_lab.params import validate


def pv_fold_oracle(f, e3, rtol=1e-11):
    """Independent PV evaluation: fold the integrand about the pole.

    PV int_0^inf f(E)/(e3-E) dE
        = -int_0^e3 [f(e3+u) - f(e3-u)]/u du - int_e3^inf f(e3+u)/u du
    """
    def folded(u):
        return (f(e3 + u) - f(e3 - u)) / u

    inner, _ = quad(folded, 0.0, e3, epsabs=1e-14, epsrel=rtol, limit=400,
                    points=[0.0])
    tail, _ = quad(lambda u: f(e3 + u) / u, e3, np.inf,
                   epsabs=1e-14, epsrel=rtol, limit=400)
    return -inner - tail


# ---------------------------------------------------------------------------
# coupling shapes


def test_gaussian_coupling_shape():
    g = GaussianCoupling(amplitude=2.0, center=1.0, width=0.5)
    assert g(1.0) == pytest.approx(2.0)
    assert g(1.5) == pytest.approx(2.0 * math.exp(-0.5))
    arr = g(np.array([1.0, 1.5]))
    assert arr.shape == (2,)
    with pytest.raises(ValueError):
        GaussianCoupling(amplitude=1.0, center=0.0, width=0.0)


def test_gaussian_width_whose_square_overflows_is_a_validation_error():
    # width ** 2 would raise OverflowError on every call of the shape
    GaussianCoupling(amplitude=1.0, center=0.0, width=1.3e154)
    for width in (1.4e154, 1e300, 10 ** 200):
        with pytest.raises(ValidationError, match="width must have a finite square") as exc:
            GaussianCoupling(amplitude=1.0, center=0.0, width=width)
        assert exc.value.exit_code == 2


def test_wigner_coupling_threshold_law():
    w = WignerCoupling(amplitude=0.3, scale=1.0)
    assert w(0.0) == 0.0
    assert w(-1.0) == 0.0
    assert w(1.0) == pytest.approx(0.3 * math.exp(-1.0))
    # maximum of E^(1/4) e^(-E/s) sits at E = s/4
    es = np.linspace(0.01, 2.0, 2000)
    assert es[np.argmax(w(es))] == pytest.approx(0.25, abs=2e-3)


def test_flat_coupling():
    f = FlatCoupling(0.7)
    assert f(123.0) == 0.7
    assert np.all(f(np.zeros(4)) == 0.7)


@pytest.mark.parametrize("shape", [
    GaussianCoupling(amplitude=0.16, center=1.25, width=0.45),
    GaussianCoupling(amplitude=0.16, center=1.25, width=1e-300),
    GaussianCoupling(amplitude=0.16, center=1e300, width=0.45),
    GaussianCoupling(amplitude=0.16, center=-1e300, width=0.45),
    WignerCoupling(amplitude=0.3, scale=0.7),
    WignerCoupling(amplitude=1e300, scale=1e-300),
], ids=["gaussian", "gaussian_width_1e-300", "gaussian_center_1e300",
        "gaussian_center_-1e300", "wigner", "wigner_extreme"])
def test_coupling_float_route_is_bit_equal_to_the_array_route(rng, shape):
    # quad passes Python floats, which take a numpy scalar in place of a
    # 0-d array: the value must keep every bit and come back a Python float
    xs = [float(x) for x in rng.normal(1.0, 2.0, 2000)]
    xs += [math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e300, 0.0, -0.0]
    with np.errstate(all="ignore"):
        for x in xs:
            got, want = shape(x), shape(np.asarray(x))
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", want), x


def test_coupling_model_validation():
    g = GaussianCoupling(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="dipole_overlap"):
        CouplingModel(lambda1=g, lambda2=g, v3=g, v1f=0.0, v2f=0.0,
                      omega13=0.0, omega23=0.0, e3=1.0, dipole_overlap=1.5)
    with pytest.raises(ValueError, match="e3"):
        CouplingModel(lambda1=g, lambda2=g, v3=g, v1f=0.0, v2f=0.0,
                      omega13=0.0, omega23=0.0, e3=-1.0, dipole_overlap=0.0)
    # the boundary itself: a pole at the threshold E = 0 has no PV integral
    with pytest.raises(ValidationError) as exc:
        CouplingModel(lambda1=g, lambda2=g, v3=g, v1f=0.0, v2f=0.0,
                      omega13=0.0, omega23=0.0, e3=0.0, dipole_overlap=0.0)
    assert str(exc.value) == "e3 must be positive, got 0.0"
    with pytest.raises(ValueError, match="e_max"):
        CouplingModel(lambda1=g, lambda2=g, v3=g, v1f=0.0, v2f=0.0,
                      omega13=0.0, omega23=0.0, e3=2.0, dipole_overlap=0.0,
                      e_max=1.0)


@pytest.mark.parametrize("name", ["v1f", "v2f", "omega13", "omega23", "e3", "e_max"])
def test_non_finite_model_scalar_is_a_validation_error_naming_it(name):
    # e_max = inf integrates to infinity, as None does: only NaN is refused
    for value in [math.nan] + ([] if name == "e_max" else [math.inf, -math.inf]):
        with pytest.raises(ValidationError, match=rf"^{name}=(nan|-?inf) "):
            replace(reference_gaussian_model(), **{name: value})


def test_e_max_inf_integrates_to_infinity_as_none_does():
    model = reference_gaussian_model()
    assert model.e_max is None
    assert derive_couplings(replace(model, e_max=math.inf)) == derive_couplings(model)


# ---------------------------------------------------------------------------
# principal-value quadrature


def test_pv_constant_log():
    # PV int_0^3 dE/(1-E) = ln(1/2)
    assert pv_integral(lambda e: 1.0, 1.0, 3.0) == pytest.approx(-math.log(2.0), rel=1e-12)


def test_pv_symmetric_zero():
    assert pv_integral(lambda e: 1.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert pv_integral(lambda e: (e - 1.0) ** 2, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_pv_linear_integrand():
    # PV int_0^3 E/(1-E) dE = -3 - ln 2
    got = pv_integral(lambda e: e, 1.0, 3.0)
    assert got == pytest.approx(-3.0 - math.log(2.0), rel=1e-11)


def test_pv_infinite_upper_vs_fold_oracle():
    f = GaussianCoupling(amplitude=0.3, center=1.2, width=0.5)
    got = pv_integral(lambda e: f(e) ** 2, 1.0, None)
    ref = pv_fold_oracle(lambda e: f(e) ** 2, 1.0)
    assert got == pytest.approx(ref, rel=1e-8)


def test_pv_random_gaussian_products_vs_fold_oracle(rng):
    # the semi-infinite tail is one QUADPACK QAGI call; these draws read
    # <= 5e-14 relative
    for _ in range(100):
        a = GaussianCoupling(rng.uniform(0.05, 0.3), rng.uniform(0.6, 1.6),
                             rng.uniform(0.3, 0.8))
        b = GaussianCoupling(rng.uniform(0.05, 0.3), rng.uniform(0.6, 1.6),
                             rng.uniform(0.3, 0.8))
        e3 = rng.uniform(0.5, 1.5)
        got = pv_integral(lambda e: a(e) * b(e), e3, None)
        ref = pv_fold_oracle(lambda e: a(e) * b(e), e3)
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-15)
    # threshold-law shapes: a kink at E = 0 and an exponential tail
    for _ in range(40):
        w = WignerCoupling(rng.uniform(0.05, 0.5), rng.uniform(0.3, 3.0))
        e3 = rng.uniform(0.25, 2.0)
        got = pv_integral(lambda e: w(e) ** 2, e3, None)
        ref = pv_fold_oracle(lambda e: w(e) ** 2, e3)
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-15)


def test_pv_upper_inf_is_upper_none():
    f = GaussianCoupling(amplitude=0.3, center=1.2, width=0.5)
    assert pv_integral(lambda e: f(e) ** 2, 1.0, math.inf) == pv_integral(
        lambda e: f(e) ** 2, 1.0, None)


def test_pv_singular_endpoint():
    with pytest.raises(Degenerate):
        pv_integral(lambda e: 1.0, 2.0, 1.0)
    with pytest.raises(Degenerate):
        pv_integral(lambda e: 1.0, -0.5, None)
    # E3/(upper - E3) = 5e-324/4 rounds to 0, and ln(0) has no value
    with pytest.raises(Degenerate, match="does not underflow"):
        pv_integral(lambda e: 1.0, 5e-324, 4.0)
    with pytest.raises(Degenerate):
        derive_couplings(replace(reference_gaussian_model(), e3=5e-324, e_max=4.0))
    # a subnormal ratio still has its log
    assert pv_integral(lambda e: 1.0, 1e-310, 4.0) == math.log(1e-310 / (4.0 - 1e-310))


def test_pv_divergent_tail():
    with pytest.raises(ConvergenceFailure, match=r"^tail of the PV integral past E=2\.000e\+00 did "
                                                 r"not converge: The maximum number of "
                                                 r"subdivisions \(200\) has been achieved\.$"):
        pv_integral(lambda e: 1.0, 1.0, None)


# ---------------------------------------------------------------------------
# derived couplings: frozen reference fixture


FROZEN_RESULT = {
    "e_sh_1": -0.041218628419724,
    "e_sh_2": 0.013071663987548,
    "e_sh_f": -0.012013675921737,
    "alpha": -0.010349358090912,
    "beta1": -0.035316933171890,
    "beta2": 0.008176382569629,
    "gamma_1": 0.118134929623550,
    "gamma_2": 0.083992298297228,
    "gamma_f": 0.249588129202350,
    "gamma_lic": 0.099611366059618,
    "gamma_1f": 0.171712189661052,
    "gamma_2f": 0.144787708730440,
    "gamma1_sp": 0.031415926535898,
    "gamma2_sp": 0.020106192982975,
    "gamma_vic": 0.020106192982974,
}

FROZEN_DIMENSIONLESS = {
    "g1": 0.473319504421516,
    "g2": 0.336523610179922,
    "g12": 0.399102979688827,
    "q1": 0.171019504871417,
    "q2": -0.301456768972029,
    "delta1": -0.330293179819512,
    "delta2": 0.104745878975278,
    "delta": -0.082931492967933,
    "gamma1": 0.125871076626517,
    "gamma2": 0.080557489040971,
    "eta": 0.080557489040970,
    "inv_kca": -7.916933607665830,
}


def test_derive_couplings_frozen_reference():
    res = derive_couplings(reference_gaussian_model())
    for key, want in FROZEN_RESULT.items():
        assert getattr(res, key) == pytest.approx(want, rel=1e-9), key


def test_widths_are_on_shell_golden_rule():
    model = reference_gaussian_model()
    res = derive_couplings(model)
    assert res.gamma_1 == 2.0 * math.pi * float(model.lambda1(model.e3)) ** 2
    assert res.gamma_f == 2.0 * math.pi * float(model.v3(model.e3)) ** 2
    assert res.gamma1_sp == 4.0 * math.pi * model.v1f ** 2
    # laser coherence is automatically maximal: gamma_lic^2 = gamma_1*gamma_2
    assert res.gamma_lic ** 2 == pytest.approx(res.gamma_1 * res.gamma_2, rel=1e-12)


def test_parallel_dipoles_derive_a_coherent_set():
    # the cross term carries the diagonal rates' 4 pi, so parallel dipoles
    # saturate Cauchy-Schwarz: eta = sqrt(gamma1*gamma2), as strict demands
    model = replace(reference_gaussian_model(), dipole_overlap=1.0)
    validate(to_dimensionless(derive_couplings(model), model), mode="strict")


def test_to_dimensionless_frozen_reference():
    model = reference_gaussian_model()
    p = to_dimensionless(derive_couplings(model), model)
    for key, want in FROZEN_DIMENSIONLESS.items():
        assert getattr(p, key) == pytest.approx(want, rel=1e-9), key


def test_to_dimensionless_identities():
    model = reference_gaussian_model()
    res = derive_couplings(model)
    p = to_dimensionless(res, model)
    # laser sector inherits full coherence from the shared continuum
    assert p.g12 ** 2 == pytest.approx(p.g1 * p.g2, rel=1e-12)
    # vacuum sector: eta = overlap * sqrt(gamma1*gamma2)
    assert p.eta == pytest.approx(
        model.dipole_overlap * math.sqrt(p.gamma1 * p.gamma2), rel=1e-12)
    assert p.inv_kca == pytest.approx(
        -2.0 * (model.e3 + res.e_sh_f) / res.gamma_f, rel=1e-14)
    # detunings shift with the rotating-frame energy E_n - omega_n
    p2 = to_dimensionless(res, model, e1=0.2)
    ef = res.gamma_f / 2.0
    assert p2.delta1 - p.delta1 == pytest.approx(0.2 / ef, rel=1e-10)


def test_q_zero_over_zero_and_zero_cross():
    dead = CouplingModel(
        lambda1=FlatCoupling(0.0), lambda2=FlatCoupling(0.05),
        v3=FlatCoupling(0.1), v1f=0.0, v2f=0.0,
        omega13=0.0, omega23=-0.02, e3=1.0, dipole_overlap=0.0, e_max=2.0)
    res = derive_couplings(dead)
    p = to_dimensionless(res, dead)
    assert p.q1 == 0.0
    assert p.q2 == pytest.approx(-0.02 / (res.gamma_2f / 2.0), rel=1e-12)

    live_omega = CouplingModel(
        lambda1=FlatCoupling(0.0), lambda2=FlatCoupling(0.05),
        v3=FlatCoupling(0.1), v1f=0.0, v2f=0.0,
        omega13=0.04, omega23=0.0, e3=1.0, dipole_overlap=0.0, e_max=2.0)
    with pytest.raises(Degenerate):
        to_dimensionless(derive_couplings(live_omega), live_omega)


def test_to_dimensionless_requires_feshbach_width():
    dead = CouplingModel(
        lambda1=FlatCoupling(0.1), lambda2=FlatCoupling(0.1),
        v3=FlatCoupling(0.0), v1f=0.0, v2f=0.0,
        omega13=0.0, omega23=0.0, e3=1.0, dipole_overlap=0.0, e_max=2.0)
    with pytest.raises(Degenerate):
        to_dimensionless(derive_couplings(dead), dead)


class _Counting:
    """A coupling that records every abscissa it is called with."""

    def __init__(self, f):
        self.f, self.args = f, []

    def __call__(self, e):
        self.args.append(e)
        return self.f(e)


def _derive_on_bare_couplings(model):
    """derive_couplings spelled out: six pv_integral calls and the on-shell
    widths, each coupling called afresh at every node."""
    l1, l2, v3 = model.lambda1, model.lambda2, model.v3
    e3, upper = model.e3, model.e_max
    l1f, l2f, v3f = float(l1(e3)), float(l2(e3)), float(v3(e3))
    two_pi = 2.0 * math.pi
    return dict(
        e_sh_1=pv_integral(lambda e: l1(e) ** 2, e3, upper),
        e_sh_2=pv_integral(lambda e: l2(e) ** 2, e3, upper),
        e_sh_f=pv_integral(lambda e: v3(e) ** 2, e3, upper),
        alpha=pv_integral(lambda e: l1(e) * l2(e), e3, upper),
        beta1=pv_integral(lambda e: l1(e) * v3(e), e3, upper),
        beta2=pv_integral(lambda e: l2(e) * v3(e), e3, upper),
        gamma_1=two_pi * l1f ** 2, gamma_2=two_pi * l2f ** 2, gamma_f=two_pi * v3f ** 2,
        gamma_lic=two_pi * l1f * l2f, gamma_1f=two_pi * l1f * v3f,
        gamma_2f=two_pi * l2f * v3f,
        gamma1_sp=2.0 * two_pi * model.v1f ** 2, gamma2_sp=2.0 * two_pi * model.v2f ** 2,
        gamma_vic=2.0 * two_pi * model.v1f * model.v2f * model.dipole_overlap)


def test_derive_couplings_calls_each_coupling_once_per_node(rng):
    ref = reference_gaussian_model()

    def jitter(c):
        return GaussianCoupling(amplitude=c.amplitude * rng.uniform(0.9, 1.1),
                                center=c.center + rng.uniform(-0.05, 0.05),
                                width=c.width * rng.uniform(0.9, 1.1))

    models = [replace(ref, lambda1=jitter(ref.lambda1), lambda2=jitter(ref.lambda2),
                      v3=jitter(ref.v3), e_max=e_max)
              for e_max in (None, None, None, 4.0, 6.0)]
    models.append(replace(ref, lambda1=WignerCoupling(0.15, 1.2),
                          lambda2=WignerCoupling(0.1, 0.9), v3=WignerCoupling(0.2, 1.0)))
    for model in models:
        counted = [_Counting(f) for f in (model.lambda1, model.lambda2, model.v3)]
        res = derive_couplings(replace(model, lambda1=counted[0], lambda2=counted[1],
                                       v3=counted[2]))
        for c in counted:
            assert c.args and len(c.args) == len(set(c.args))
        # the bare route calls each coupling again for every integral it enters
        bare = [_Counting(f) for f in (model.lambda1, model.lambda2, model.v3)]
        want = _derive_on_bare_couplings(replace(model, lambda1=bare[0], lambda2=bare[1],
                                                 v3=bare[2]))
        assert all(len(b.args) > len(set(b.args)) for b in bare)
        assert [set(c.args) for c in counted] == [set(b.args) for b in bare]
        got = {f.name: getattr(res, f.name).hex() for f in fields(res)}
        assert got == {key: value.hex() for key, value in want.items()}


def test_import_does_not_load_scipy():
    # the quadratures and the resolvent check import scipy on first use,
    # so the package and its CLI start without paying for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(bic_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, bic_lab, bic_lab.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_derive_overflow_is_a_convergence_failure():
    # l1(e) ** 2 on Python floats raises OverflowError where numpy gives inf
    model = replace(reference_gaussian_model(),
                    lambda1=GaussianCoupling(amplitude=1e160, center=1.25, width=0.45))
    with pytest.raises(ConvergenceFailure, match="derive_couplings overflowed"):
        derive_couplings(model)


def _nan_inside(shape):
    """shape with NaN on (0.5, 0.8), inside the integration range."""
    def broken(e):
        return math.nan if 0.5 < e < 0.8 else shape(e)
    return broken


def _inf_at_e3(shape):
    """shape with inf at E3 = 1 alone, where the widths and the log term read it."""
    def broken(e):
        return math.inf if e == 1.0 else shape(e)
    return broken


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("broken", [_nan_inside, _inf_at_e3])
@pytest.mark.parametrize("name", ["lambda1", "lambda2", "v3"])
def test_non_finite_coupling_in_derive_is_a_validation_error(name, broken, warn):
    # NaN used to come back as NaN fields (or, under -W error, as quad's
    # bare IntegrationWarning), which to_dimensionless blamed on q1, delta1
    base = reference_gaussian_model()
    model = replace(base, **{name: broken(getattr(base, name))})
    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        with pytest.raises(ValidationError, match=rf"^{name} is not finite at E="):
            derive_couplings(model)


def test_non_finite_derived_field_names_its_coupling():
    # every value of lambda1 is finite, but its square overflows the shift
    # integral and 2 pi lambda1(E3)^2 the width
    model = replace(reference_gaussian_model(),
                    lambda1=GaussianCoupling(amplitude=1e154, center=1.25, width=0.45))
    with pytest.raises(ValidationError) as info:
        derive_couplings(model)
    assert str(info.value) == "; ".join(["lambda1 is not finite in e_sh_1",
                                         "lambda1 is not finite in gamma_1"])


def test_non_finite_vacuum_field_names_its_vacuum_couplings():
    # v1f and v2f are finite, but 4 pi v1f^2, 4 pi v2f^2 and the cross
    # term 4 pi v1f v2f p pass the float range
    model = replace(reference_gaussian_model(), v1f=1e154, v2f=1e154)
    with pytest.raises(ValidationError) as info:
        derive_couplings(model)
    assert str(info.value) == "; ".join(["v1f is not finite in gamma1_sp",
                                         "v2f is not finite in gamma2_sp",
                                         "v1f is not finite in gamma_vic",
                                         "v2f is not finite in gamma_vic"])


def _complex_valued(shape):
    return lambda e: shape(e) * (1.0 + 0.5j)


def _scalar_only(shape):
    """shape through math.exp: it takes the floats quad passes, not an array."""
    def scalar(e):
        return shape.amplitude * math.exp(-((e - shape.center) ** 2) / (2.0 * shape.width ** 2))
    return scalar


def _wrong_shape(shape):
    return lambda e: np.stack([shape(e), shape(e)])


def _raising_at_nodes(shape):
    """shape on arrays, a RuntimeError at the floats quad passes."""
    def raising(e):
        if np.ndim(e) == 0:
            raise RuntimeError("no scalar evaluation")
        return shape(e)
    return raising


@pytest.mark.parametrize("breach,at_node,on_grid", [
    (_complex_valued, "is not real at E=", r"is not real on the collision grid \(complex128"),
    (_scalar_only, None, "is not elementwise on the collision grid: "),
    (_wrong_shape, "is not elementwise at E=", "is not elementwise on the collision grid "
                                               r"\(values of shape \(2, 60\)\)$"),
    # discretize meets it in a tail's quad: the RuntimeError escaped both bare
    (_raising_at_nodes, r"raised at E=[0-9.e+-]+: RuntimeError: no scalar evaluation$",
     r"raised at E=[0-9.e+-]+: RuntimeError: no scalar evaluation$"),
], ids=["complex", "scalar_only", "wrong_shape", "raising"])
@pytest.mark.parametrize("name", ["lambda1", "lambda2", "v3"])
def test_coupling_contract_breach_is_a_validation_error(name, breach, at_node, on_grid):
    # these ended in a bare TypeError or ComplexWarning from derive_couplings,
    # and in a bare TypeError, ComplexWarning or ValueError from discretize;
    # a coupling that raises anything else ended in that exception
    base = reference_gaussian_model()
    model = replace(base, **{name: breach(getattr(base, name))})
    if at_node is None:
        # the quadrature nodes are floats, on which a scalar-only coupling is fine
        assert all(math.isfinite(v) for v in vars(derive_couplings(model)).values())
    else:
        with pytest.raises(ValidationError, match=rf"^{name} {at_node}"):
            derive_couplings(model)
    with pytest.raises(ValidationError, match=rf"^{name} {on_grid}"):
        discretize(model, GridSpec(e_min=0.0, e_max=4.5, n_e=60))


def test_pv_integrand_beyond_the_float_sums_is_nan():
    # |integrand| x |range| above 2^1020 leaves QUADPACK's sums no headroom
    # (near 1e308 they have crashed the interpreter): a linear f has the
    # difference quotient -slope, here on the range [0, 2]
    assert pv_integral(lambda e: 2.0 ** 1018 * e, 1.0, 2.0) == pytest.approx(-(2.0 ** 1019))
    assert math.isnan(pv_integral(lambda e: 2.0 ** 1020 * e, 1.0, 2.0))


def test_pv_subtracted_piece_that_fails_is_a_convergence_failure():
    # QUADPACK's message comes back through full_output, not as a warning
    with pytest.raises(ConvergenceFailure,
                       match=r"^PV integral over \[0\.000e\+00, 1\.000e\+00\] did not "
                             r"converge: The maximum number of subdivisions \(400\)"):
        pv_integral(lambda e: math.sin(1e4 * e), 1.0, 3.0)
