"""The floating-point boundary of the public numerical entry points.

Every entry point decorated with errors._numerical gets an input that
overflows.  Under the suite's warnings-as-errors it must end in a
BicLabError: no numpy warning and no bare OverflowError.  An input the
library refuses on purpose is a ValidationError, a BicLabError too.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from types import ModuleType

import numpy as np
import pytest

import bic_lab
from bic_lab.bic import certify, solve_bic
from bic_lab.discretized import (GridSpec, compare_pole_approximation, discretize,
                                 resolvent_check, smoothed_kernel_sum)
from bic_lab.dressing import dress
from bic_lab.errors import BicLabError, ValidationError, _require_counts, _require_finite
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.microscopic import (FlatCoupling, GaussianCoupling, WignerCoupling,
                                 derive_couplings, pv_integral, reference_gaussian_model,
                                 to_dimensionless)
from bic_lab.params import PARAM_KEYS, validate
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
    # refused up front: at eta = 3 a gain mode would end the line before any window is read
    "sweep_eta empty window": (lambda: sweep_eta(fig4_params(), [3.0], window=(7.0, 6.0)),
                               r"^empty window \(7\.0, 6\.0\)$"),
    "refine_peak": (lambda: refine_peak(lambda x: x, (1.0, 1.0)),
                    r"^empty window \(1\.0, 1\.0\)$"),
    # refused before f meets the NaN and inf abscissae of an overflowing scan
    "refine_peak overflowing window": (lambda: refine_peak(lambda x: x, (-1e308, 1e308)),
                                       r"^window \(-1e\+308, 1e\+308\) is wider than the "
                                       r"float range$"),
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
    # a probe is a finite number, complex or real, held to the rule part by part
    "resolvent_check probe string": (lambda: _probed("x"), "probes[1]='x' is not a real number"),
    "resolvent_check probe None": (lambda: _probed(None), "probes[1]=None is not a real number"),
    "resolvent_check probe bool": (lambda: _probed(True), "probes[1]=True is not a real number"),
    "resolvent_check probe huge int": (lambda: _probed(HUGE), f"probes[1]={HUGE!r} is not finite"),
    "resolvent_check probe nan part": (lambda: _probed(complex(1.0, math.nan)),
                                       "probes[1].imag=nan is not finite"),
    # the scalars of the coupling shapes
    "GaussianCoupling string": (lambda: GaussianCoupling("x", 1.0, 0.5),
                                "amplitude='x' is not a real number"),
    "GaussianCoupling bool": (lambda: GaussianCoupling(True, 1.0, 0.5),
                              "amplitude=True is not a real number"),
    "GaussianCoupling None": (lambda: GaussianCoupling(0.1, None, 0.5),
                              "center=None is not a real number"),
    "GaussianCoupling nan": (lambda: GaussianCoupling(0.1, 1.0, math.nan),
                             "width=nan is not finite"),
    "WignerCoupling inf": (lambda: WignerCoupling(0.1, math.inf), "scale=inf is not finite"),
    "WignerCoupling string": (lambda: WignerCoupling("x", 1.0),
                              "amplitude='x' is not a real number"),
    "FlatCoupling None": (lambda: FlatCoupling(None), "amplitude=None is not a real number"),
    "FlatCoupling bool": (lambda: FlatCoupling(True), "amplitude=True is not a real number"),
    "FlatCoupling nan": (lambda: FlatCoupling(math.nan), "amplitude=nan is not finite"),
    "FlatCoupling huge int": (lambda: FlatCoupling(HUGE), f"amplitude={HUGE!r} is not finite"),
}


def _probed(z):
    """resolvent_check of the reference model at a valid probe and z."""
    return resolvent_check(discretize(reference_gaussian_model(), GRID), [1.0 + 1.0j, z])


@pytest.mark.parametrize("name", sorted(BARE_NUMBERS))
def test_bad_bare_number_is_a_validation_error_naming_it(name):
    call, message = BARE_NUMBERS[name]
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_number_rule_returns_python_floats_in_order():
    got = _require_finite(a=np.float32(0.5), b=3, c=Fraction(1, 4), d=np.int64(-2), e=1.5)
    assert got == [0.5, 3.0, 0.25, -2.0, 1.5]
    assert all(type(x) is float for x in got)
    with pytest.raises(ValidationError) as exc:
        _require_finite(a=False, b=np.float64("inf"), c=1j, d=Fraction(HUGE))
    assert str(exc.value) == "; ".join([
        "a=False is not a real number", "b=inf is not finite", "c=1j is not a real number",
        f"d={Fraction(HUGE)!r} is not finite"])


def test_count_rule_refuses_a_count_past_numpys_index_range():
    _require_counts(a=sys.maxsize, b=np.int64(3), c=-HUGE)  # a negative count is each caller's
    with pytest.raises(ValidationError) as exc:
        _require_counts(a=sys.maxsize + 1, b=1.0)
    assert str(exc.value) == (f"a must be at most {sys.maxsize}, got {sys.maxsize + 1}; "
                              "b must be an integer, got 1.0")


# ---------------------------------------------------------------------------
# the number rule over the whole public API. Every callable in bic_lab.__all__
# that takes a number gets each bad value below in each numeric argument (an
# element of a sequence argument), the other arguments valid. Each case ends in
# a ValidationError, or in one of the documented acceptances.

BAD_NUMBERS = {"10**400": HUGE, "str": "x", "True": True, "None": None,
               "nan": math.nan, "inf": math.inf}


def _replacing(obj, *names):
    """One entry per field: a copy of the dataclass obj with that field set to the value."""
    return {name: lambda v, name=name: replace(obj, **{name: v}) for name in names}


def _keywords(fn, **base):
    """One entry per keyword of base: fn(**base) with that keyword set to the value."""
    return {name: lambda v, name=name: fn(**dict(base, **{name: v})) for name in base}


@cache
def _derivation():
    model = reference_gaussian_model()
    return derive_couplings(model), model


@cache
def _discretized():
    return discretize(reference_gaussian_model(), GRID)


def _line(x):
    """A Lorentzian line at 0.5, for the engines that take a function."""
    return 1.0 / (1.0 + 100.0 * (np.asarray(x) - 0.5) ** 2)


NUMBER_ARGUMENTS = {
    "CouplingModel": _replacing(reference_gaussian_model(), "v1f", "v2f", "omega13",
                                "omega23", "e3", "dipole_overlap", "e_max"),
    "DimensionlessParams": _replacing(fig4_params(), *PARAM_KEYS),
    "FlatCoupling": _replacing(FlatCoupling(0.1), "amplitude"),
    "GaussianCoupling": _replacing(GaussianCoupling(0.16, 1.25, 0.45),
                                   "amplitude", "center", "width"),
    "WignerCoupling": _replacing(WignerCoupling(0.1, 1.0), "amplitude", "scale"),
    "GridSpec": _replacing(GridSpec(0.0, 4.5, 60, 0.0, 3.0, 10),
                           "e_min", "e_max", "n_e", "k_min", "k_max", "n_k"),
    "discretize": _keywords(partial(discretize, reference_gaussian_model(), GRID),
                            e1_rot=0.0, e2_rot=0.0),
    "dress": _keywords(dress, omega_m=50.0, delta_m=10.0, gamma1_bare=6.0, gamma2_bare=4.0),
    "eigensystem": {"m": eigensystem},
    "peak_metrics": {"channel": lambda v: peak_metrics(fig4_params(), v)},
    "pv_integral": _keywords(partial(pv_integral, lambda e: math.exp(-e)), e3=1.0, upper=3.0),
    "refine_peak": {"window[0]": lambda v: refine_peak(_line, (v, 1.0)),
                    "window[1]": lambda v: refine_peak(_line, (0.0, v)),
                    "seeds[0]": lambda v: refine_peak(_line, (0.0, 1.0), [v])},
    "resolvent_check": {"probes[0]": lambda v: resolvent_check(_discretized(), [v])},
    "smoothed_kernel_sum": _keywords(partial(smoothed_kernel_sum, _line),
                                     e3=1.0, lo=0.0, hi=2.0, n_bins=4),
    "solve_bic": _keywords(solve_bic, g1=3.0, g2=2.0, q1=-0.8, q2=0.54, delta=0.1,
                           gamma1=1.0, gamma2=1.0, inv_kca=0.0),
    "spectrum_series": _keywords(partial(spectrum_series, fig4_params()),
                                 e_min=6.0, e_max=7.5, n_points=11, channel=1),
    "sweep_eta": {"eta_list[0]": lambda v: sweep_eta(fig4_params(), [v]),
                  "window[0]": lambda v: sweep_eta(fig4_params(), [0.9], window=(v, 7.5)),
                  "window[1]": lambda v: sweep_eta(fig4_params(), [0.9], window=(6.0, v)),
                  "channel": lambda v: sweep_eta(fig4_params(), [0.9], channel=v)},
    "to_dimensionless": _keywords(lambda **rot: to_dimensionless(*_derivation(), **rot),
                                  e1=0.0, e2=0.0),
    "validate": {"mode": lambda v: validate(fig4_params(), v)},
}
#: (callable, argument, value) cases that return, each as documented: a coherence
#: left None takes its coherent default, and None or +inf is an open upper bound
ACCEPTED = {("DimensionlessParams", "g12", "None"), ("DimensionlessParams", "eta", "None"),
            ("CouplingModel", "e_max", "None"), ("CouplingModel", "e_max", "inf"),
            ("pv_integral", "upper", "None"), ("pv_integral", "upper", "inf")}
#: what takes no bare number: a parameter set, a model or nothing
TAKES_NO_NUMBER = {"build", "certify", "compare_pole_approximation", "derive_couplings",
                   "reference_gaussian_model"}
#: the records the library returns, built from values it has checked
RECORDS = {"BicSolution", "CertificationReport", "ComplexEigenSet", "DiscretizedModel",
           "DressedPair", "EtaPoint", "EtaSweepResult", "MicroscopicResult", "PeakMetrics",
           "PoleComparison", "ResolventReport", "SpectrumSeries"}
NUMBER_CASES = [(name, arg, value) for name, args in NUMBER_ARGUMENTS.items()
                for arg in args for value in BAD_NUMBERS]


def test_the_number_table_covers_every_public_callable():
    errors = {name for name in bic_lab.__all__
              if inspect.isclass(getattr(bic_lab, name))
              and issubclass(getattr(bic_lab, name), BicLabError)}
    groups = [set(NUMBER_ARGUMENTS), TAKES_NO_NUMBER, RECORDS, errors]
    assert sum(map(len, groups)) == len(bic_lab.__all__)
    assert set().union(*groups) == set(bic_lab.__all__)
    assert ACCEPTED <= set(NUMBER_CASES)


@pytest.mark.parametrize("name,arg,value", NUMBER_CASES,
                         ids=["-".join(case) for case in NUMBER_CASES])
def test_a_bad_number_at_any_public_entry_point_is_a_validation_error(name, arg, value):
    call = NUMBER_ARGUMENTS[name][arg]
    if (name, arg, value) in ACCEPTED:
        call(BAD_NUMBERS[value])
    else:
        with pytest.raises(ValidationError):
            call(BAD_NUMBERS[value])


def test_the_package_exports_classes_and_functions_only():
    assert all(inspect.isclass(obj) or inspect.isfunction(obj)
               for obj in map(partial(getattr, bic_lab), bic_lab.__all__))
    star = {}
    exec("from bic_lab import *", star)
    assert not [name for name, obj in star.items() if isinstance(obj, ModuleType)]
    assert set(star) - {"__builtins__"} == set(bic_lab.__all__)
