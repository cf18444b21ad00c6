"""The floating-point boundary of the public numerical entry points.

Every entry point decorated with errors._numerical gets an input that
overflows.  Under the suite's warnings-as-errors it must end in a
BicLabError: no numpy warning and no bare OverflowError.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from bic_lab.bic import certify, solve_bic
from bic_lab.discretized import (GridSpec, compare_pole_approximation, discretize,
                                 resolvent_check)
from bic_lab.errors import BicLabError
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.microscopic import (GaussianCoupling, derive_couplings,
                                 reference_gaussian_model, to_dimensionless)
from bic_lab.recipes import FIG4_SHARED, fig4_params
from bic_lab.spectrum import peak_metrics, spectrum_series, sweep_eta

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
