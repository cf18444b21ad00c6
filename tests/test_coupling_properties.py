"""Property gate: no adversarial coupling makes the elimination layer crash.

One or two couplings of the reference Gaussian model are replaced by a
broken one -- NaN or inf at random energies (past the collision grid
too), complex-valued, of the wrong shape, scalar-only, or raising -- and
the model runs through derive_couplings -> to_dimensionless and through
discretize -> resolvent_check, then compare_pole_approximation when both
halves succeed.  Each half must end in finite results or in a
BicLabError; warnings are errors (the suite's setting).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bic_lab.discretized import GridSpec, compare_pole_approximation, discretize, resolvent_check
from bic_lab.errors import BicLabError
from bic_lab.microscopic import derive_couplings, reference_gaussian_model, to_dimensionless

#: a small grid with photon bins; its collision grid ends past e_max = 4
GRID = GridSpec(e_min=0.0, e_max=4.5, n_e=40, k_min=0.0, k_max=3.0, n_k=10)
E1_ROT, E2_ROT = 0.9, 1.1
_EXCEPTIONS = (RuntimeError, ValueError, ZeroDivisionError, KeyError, OverflowError,
               FloatingPointError, TypeError)


def _energies(draw):
    """A test e -> boolean mask of where the breach applies."""
    kind = draw(st.sampled_from(["everywhere", "interval", "point", "scalars", "arrays"]))
    if kind == "interval":  # up to 8, well past the grid and the tails' first nodes
        lo = draw(st.floats(0.0, 8.0))
        hi = lo + draw(st.floats(1e-3, 3.0))
        return lambda e: (lo <= np.asarray(e)) & (np.asarray(e) <= hi)
    if kind == "point":  # E3, a bin centre, the grid's edge or any energy
        centre = GRID.e_min + (draw(st.integers(0, GRID.n_e - 1)) + 0.5) * (
            (GRID.e_max - GRID.e_min) / GRID.n_e)
        at = draw(st.sampled_from([1.0, centre, GRID.e_max, draw(st.floats(0.0, 10.0))]))
        return lambda e: np.asarray(e) == at
    if kind == "scalars":
        return lambda e: np.full(np.shape(e), np.ndim(e) == 0)
    if kind == "arrays":
        return lambda e: np.full(np.shape(e), np.ndim(e) > 0)
    return lambda e: np.ones(np.shape(e), dtype=bool)


@st.composite
def _broken_couplings(draw, shape):
    where = _energies(draw)
    breach = draw(st.sampled_from(["non_finite", "complex", "wrong_shape", "scalar_only",
                                   "raising"]))
    if breach == "non_finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return lambda e: np.where(where(e), bad, shape(e))
    if breach == "complex":
        phase = draw(st.sampled_from([0.5j, -1e-300j, 0j]))
        return lambda e: np.where(where(e), shape(e) * (1.0 + phase), shape(e))
    if breach == "wrong_shape":
        form = draw(st.sampled_from(["stacked", "column", "scalar", "empty", "ragged"]))

        def wrong(e):
            if not where(e).any():
                return shape(e)
            v = shape(e)
            return {"stacked": lambda: np.stack([v, v]), "column": lambda: np.reshape(v, (-1, 1)),
                    "scalar": lambda: float(np.sum(v)), "empty": lambda: np.zeros(0),
                    "ragged": lambda: [[1.0], [1.0, 2.0]]}[form]()
        return wrong
    if breach == "scalar_only":
        return lambda e: shape.amplitude * math.exp(
            -((e - shape.center) ** 2) / (2.0 * shape.width ** 2))
    error = draw(st.sampled_from(_EXCEPTIONS))

    def raising(e):
        if where(e).any():
            raise error("adversarial coupling")
        return shape(e)
    return raising


@st.composite
def _adversarial_models(draw):
    model = reference_gaussian_model()
    names = draw(st.lists(st.sampled_from(["lambda1", "lambda2", "v3"]),
                          min_size=1, max_size=2, unique=True))
    broken = {name: draw(_broken_couplings(getattr(model, name))) for name in names}
    return replace(model, e_max=draw(st.sampled_from([None, 4.0])), **broken)


def _all_finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v)).all() for v in values)


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=_adversarial_models())
def test_adversarial_couplings_end_in_finite_results_or_a_library_error(model):
    params = dm = None
    try:
        res = derive_couplings(model)
        params = to_dimensionless(res, model, e1=E1_ROT, e2=E2_ROT)
        assert _all_finite(*vars(res).values(), *params.as_dict().values())
    except BicLabError:
        pass
    try:
        dm = discretize(model, GRID, e1_rot=E1_ROT, e2_rot=E2_ROT)
        assert _all_finite(dm.h_pp, dm.coupling, dm.diag_q, dm.bin_width)
        assert _all_finite(resolvent_check(dm).deviations)
    except BicLabError:
        dm = None
    if params is not None and dm is not None:
        try:
            cmp = compare_pole_approximation(dm, model, params)
        except BicLabError:
            return
        assert _all_finite(cmp.reference, cmp.poles, cmp.deviations, cmp.smoothing)
