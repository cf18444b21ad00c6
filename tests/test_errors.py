"""The floating-point boundary of the public numerical entry points.

Every entry point decorated with errors._numerical gets an input that
overflows.  Under the suite's warnings-as-errors it must end in a
BicLabError: no numpy warning and no bare OverflowError.  An input the
library refuses on purpose is a ValidationError, a BicLabError too.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bic_lab.bic import certify, solve_bic
from bic_lab.discretized import (GridSpec, compare_pole_approximation, discretize,
                                 resolvent_check, smoothed_kernel_sum)
from bic_lab.dressing import dress
from bic_lab.errors import BicLabError, ValidationError, _require_finite
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.microscopic import (GaussianCoupling, derive_couplings, pv_integral,
                                 reference_gaussian_model, to_dimensionless)
from bic_lab.recipes import FIG4_SHARED, fig3_params, fig4_params
from bic_lab.spectrum import peak_metrics, refine_peak, spectrum_series, sweep_eta

#: the fig4 set with g1 = 1e300: its characteristic coefficients overflow
HUGE_G1 = fig4_params().replace(g1=1e300)
GRID = GridSpec(e_min=0.0, e_max=4.5, n_e=60)


def _huge_v3():
    """The reference model with a v3 whose square at E3 passes the float range."""
    return replace(reference_gaussian_model(), v3=GaussianCoupling(1e160, 1.05, 0.6))


def _mixed_pole_comparison():
    # the grid and parameters of the reference model, the v3 of another
    model = reference_gaussian_model()
    params = to_dimensionless(derive_couplings(model), model, e1=0.9, e2=1.1)
    dm = discretize(model, GRID, e1_rot=0.9, e2_rot=1.1)
    return compare_pole_approximation(dm, _huge_v3(), params)


def _loud_vacuum_check():
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=60, k_min=0.0, k_max=3.0, n_k=10)
    return resolvent_check(discretize(replace(reference_gaussian_model(), v2f=1e160), grid))


OVERFLOWS = {
    "eigensystem": lambda: eigensystem(build(HUGE_G1)),
    "solve_bic": lambda: solve_bic(g1=1e300, g2=2.0, q1=FIG4_SHARED["q1"],
                                   q2=FIG4_SHARED["q2"], delta=FIG4_SHARED["delta"],
                                   gamma1=1.0, gamma2=1.0),
    "certify": lambda: certify(HUGE_G1),
    "spectrum_series": lambda: spectrum_series(fig4_params(), 6.0, 1e300, 11),
    "peak_metrics": lambda: peak_metrics(HUGE_G1),
    "sweep_eta": lambda: sweep_eta(HUGE_G1, [1.0]),
    "derive_couplings": lambda: derive_couplings(_huge_v3()),
    "discretize": lambda: discretize(_huge_v3(), GRID),
    "resolvent_check": _loud_vacuum_check,
    "compare_pole_approximation": _mixed_pole_comparison,
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_overflow_ends_in_a_library_error(name):
    before = np.geterr()
    with pytest.raises(BicLabError) as exc:
        OVERFLOWS[name]()
    assert "np." not in str(exc.value)
    # the boundary quiets numpy inside the call only
    assert np.geterr() == before


# ---------------------------------------------------------------------------
# an input refused on purpose is a ValidationError, with the message of the
# bare ValueError it replaced

REFUSALS = {
    "sweep_eta": (lambda: sweep_eta(fig4_params(), []), r"^eta_list must be nonempty$"),
    "refine_peak": (lambda: refine_peak(lambda x: x, (1.0, 1.0)),
                    r"^empty window \(1\.0, 1\.0\)$"),
    "eigensystem": (lambda: eigensystem(np.eye(2)),
                    r"^the matrix must be 3x3, got shape \(2, 2\)$"),
    "fig3_params": (lambda: fig3_params(deviate="g3"),
                    r"^deviate must be 'g1' or 'g2', got 'g3'$"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_input_is_a_validation_error(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValidationError, match=message) as exc:
        call()
    assert exc.value.exit_code == 2


# ---------------------------------------------------------------------------
# one rule for a bare number: a bool, a non-real or a value past the float
# range is a ValidationError naming it, never a bare OverflowError or TypeError

HUGE = 10 ** 400

BARE_NUMBERS = {
    "GridSpec huge int": (lambda: GridSpec(e_min=0.0, e_max=HUGE, n_e=3),
                          f"e_max={HUGE!r} is not finite"),
    "GridSpec string": (lambda: GridSpec(e_min="a", e_max=1.0, n_e=3),
                        "e_min='a' is not a real number"),
    "GridSpec bool": (lambda: GridSpec(e_min=True, e_max=1.0, n_e=3),
                      "e_min=True is not a real number"),
    "dress string": (lambda: dress("x", 1.0), "omega_m='x' is not a real number"),
    "dress huge int": (lambda: dress(HUGE, 1.0), f"omega_m={HUGE!r} is not finite"),
    "spectrum_series huge int": (lambda: spectrum_series(fig4_params(), 6.0, HUGE, 11),
                                 f"e_max={HUGE!r} is not finite"),
    "sweep_eta string": (lambda: sweep_eta(fig4_params(), ["x"]),
                         "eta_list[0]='x' is not a real number"),
    # a JSON true is not eta = 1.0
    "sweep_eta bool": (lambda: sweep_eta(fig4_params(), [0.9, True]),
                       "eta_list[1]=True is not a real number"),
    # sweep_eta's window, before it meets an eigenvalue
    "sweep_eta window string": (lambda: sweep_eta(fig4_params(), [0.9], window=("x", 10)),
                                "window[0]='x' is not a real number"),
    "sweep_eta window huge int": (lambda: sweep_eta(fig4_params(), [0.9], window=(0, HUGE)),
                                  f"window[1]={HUGE!r} is not finite"),
    "pv_integral e3 string": (lambda: pv_integral(lambda e: 1.0, "x"),
                              "e3='x' is not a real number"),
    "pv_integral e3 huge int": (lambda: pv_integral(lambda e: 1.0, HUGE, 3.0),
                                f"e3={HUGE!r} is not finite"),
    "pv_integral e3 bool": (lambda: pv_integral(lambda e: 1.0, True),
                            "e3=True is not a real number"),
    "pv_integral e3 inf": (lambda: pv_integral(lambda e: 1.0, math.inf),
                           "e3=inf is not finite"),
    # only None and +inf mean "to infinity"
    "pv_integral upper -inf": (lambda: pv_integral(lambda e: 1.0, 1.0, -math.inf),
                               "upper=-inf is not finite"),
    "smoothed_kernel_sum e3 string": (lambda: smoothed_kernel_sum(lambda e: e, "x", 0.0, 1.0, 4),
                                      "e3='x' is not a real number"),
    "refine_peak huge int": (lambda: refine_peak(lambda x: x, (0, HUGE)),
                             f"hi={HUGE!r} is not finite"),
    "smoothed_kernel_sum huge int": (lambda: smoothed_kernel_sum(lambda e: e, 0.25, 0.0,
                                                                 HUGE, 4),
                                     f"hi={HUGE!r} is not finite"),
    "CouplingModel huge int": (lambda: replace(reference_gaussian_model(), e3=HUGE),
                               f"e3={HUGE!r} is not finite"),
    "CouplingModel None": (lambda: replace(reference_gaussian_model(), v1f=None),
                           "v1f=None is not a real number"),
}


@pytest.mark.parametrize("name", sorted(BARE_NUMBERS))
def test_bad_bare_number_is_a_validation_error_naming_it(name):
    call, message = BARE_NUMBERS[name]
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.violations == [message]


def test_number_rule_returns_python_floats_in_order():
    got = _require_finite(a=np.float32(0.5), b=3, c=Fraction(1, 4), d=np.int64(-2), e=1.5)
    assert got == [0.5, 3.0, 0.25, -2.0, 1.5]
    assert all(type(x) is float for x in got)
    with pytest.raises(ValidationError) as exc:
        _require_finite(a=False, b=np.float64("inf"), c=1j, d=Fraction(HUGE))
    assert exc.value.violations == [
        "a=False is not a real number", "b=inf is not finite", "c=1j is not a real number",
        f"d={Fraction(HUGE)!r} is not finite"]
