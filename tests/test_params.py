from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from bic_lab.errors import ValidationError
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.params import (
    _FIELD_NAMES,
    PARAM_KEYS,
    DimensionlessParams,
    validate,
)
from bic_lab.recipes import fig4_params
from conftest import random_params


def test_coherent_defaults_fill_in():
    p = DimensionlessParams(
        g1=4.0, g2=1.0, q1=0.1, q2=0.2,
        delta1=0.0, delta2=0.0, delta=0.0,
        gamma1=0.09, gamma2=0.04,
    )
    assert p.g12 == pytest.approx(2.0, abs=0)
    assert p.eta == pytest.approx(0.06, abs=0)
    assert DimensionlessParams(**p.as_dict()) == p


def test_explicit_coherences_kept():
    p = DimensionlessParams(
        g1=4.0, g2=1.0, g12=0.3, q1=0.0, q2=0.0,
        delta1=0.0, delta2=0.0, delta=0.0, eta=0.0,
    )
    assert p.g12 == 0.3
    assert p.eta == 0.0


def test_replace_rederives_g12_when_parent_changes():
    p = DimensionlessParams(
        g1=3.0, g2=2.0, q1=0.0, q2=0.0,
        delta1=0.0, delta2=0.0, delta=0.0,
        gamma1=1.0, gamma2=1.0,
    )
    q = p.replace(g1=3.01)
    assert q.g12 == math.sqrt(3.01 * 2.0)
    # gamma widths untouched, so eta must not move
    assert q.eta == p.eta == 1.0


def test_replace_rederives_eta_when_gamma_changes():
    p = DimensionlessParams(
        g1=1.0, g2=1.0, q1=0.0, q2=0.0,
        delta1=0.0, delta2=0.0, delta=0.0,
        gamma1=0.04, gamma2=0.09,
    )
    q = p.replace(gamma2=0.16)
    assert q.eta == pytest.approx(0.08, abs=0)


def test_replace_keeps_noncoherent_g12():
    p = DimensionlessParams(
        g1=3.0, g2=2.0, g12=0.5, q1=0.0, q2=0.0,
        delta1=0.0, delta2=0.0, delta=0.0,
    )
    q = p.replace(g1=3.5)
    assert q.g12 == 0.5


def test_replace_explicit_wins_over_rederive():
    p = DimensionlessParams(
        g1=4.0, g2=1.0, q1=0.0, q2=0.0,
        delta1=0.0, delta2=0.0, delta=0.0,
    )
    q = p.replace(g1=9.0, g12=1.0)
    assert q.g12 == 1.0


def test_constructor_rejects_negative_widths():
    with pytest.raises(ValidationError):
        DimensionlessParams(
            g1=-1.0, g2=1.0, q1=0.0, q2=0.0,
            delta1=0.0, delta2=0.0, delta=0.0,
        )
    with pytest.raises(ValidationError):
        DimensionlessParams(
            g1=1.0, g2=1.0, q1=0.0, q2=0.0,
            delta1=0.0, delta2=0.0, delta=0.0, gamma2=-0.1,
        )


def test_constructor_rejects_nonfinite():
    with pytest.raises(ValidationError):
        DimensionlessParams(
            g1=1.0, g2=float("nan"), q1=0.0, q2=0.0,
            delta1=0.0, delta2=0.0, delta=0.0,
        )


def test_validate_physical_bounds_cross_coherences():
    p = DimensionlessParams(
        g1=1.0, g2=1.0, g12=1.2, q1=0.0, q2=0.0,
        delta1=0.0, delta2=0.0, delta=0.0,
        gamma1=0.01, gamma2=0.01, eta=0.0,
    )
    validate(p, mode="permissive")
    with pytest.raises(ValidationError, match="g12"):
        validate(p, mode="physical")


def test_validate_strict_requires_full_coherence():
    p = DimensionlessParams(
        g1=1.0, g2=1.0, q1=0.0, q2=0.0,
        delta1=0.0, delta2=0.0, delta=0.0,
        gamma1=0.04, gamma2=0.09, eta=0.01,
    )
    validate(p, mode="physical")
    with pytest.raises(ValidationError, match="strict"):
        validate(p, mode="strict")
    assert validate(p.replace(eta=0.06), mode="strict") is not None


def test_validate_unknown_mode():
    p = DimensionlessParams(
        g1=1.0, g2=1.0, q1=0.0, q2=0.0,
        delta1=0.0, delta2=0.0, delta=0.0,
    )
    with pytest.raises(ValidationError, match="mode"):
        validate(p, mode="sloppy")


@pytest.mark.parametrize("key,value", [
    ("gamma1", True), ("g1", False), ("gamma2", None), ("inv_kca", None),
    ("q1", "0.5"), ("delta", [1.0]), ("g2", 10 ** 400),
])
def test_constructor_rejects_bools_nulls_and_non_numbers(key, value):
    # a JSON true is not 1.0, and only g12 and eta have a default for null
    base = dict(g1=1.0, g2=1.0, q1=0.0, q2=0.0, delta1=0.0, delta2=0.0, delta=0.0,
                gamma1=1.0, gamma2=1.0)
    with pytest.raises(ValidationError, match=key):
        DimensionlessParams(**dict(base, **{key: value}))


def test_field_names_follow_the_dataclass_order():
    assert _FIELD_NAMES == tuple(f.name for f in dataclasses.fields(DimensionlessParams))


@pytest.mark.parametrize("value", [np.float64(3.0), 3, np.int64(3), np.float32(3.0),
                                   np.float16(3.0)])
def test_constructor_stores_real_numbers_as_python_floats(value):
    p = fig4_params().replace(q1=value)
    assert type(p.q1) is float and p.q1 == 3.0


def test_constructor_lists_nonfinite_values_in_field_order():
    base = dict(g1=1.0, g2=1.0, q1=0.0, q2=0.0, delta1=0.0, delta2=0.0, delta=0.0)
    with pytest.raises(ValidationError) as exc:
        DimensionlessParams(**dict(base, delta=10 ** 400, g2=float("nan"),
                                   g1=-math.inf, inv_kca=np.float64(math.inf),
                                   gamma1=np.float32("nan"), eta=np.float32("inf"),
                                   q2=Fraction(10 ** 400)))
    # a float32 is checked as the Python float it is stored as; float() of
    # a rational past the float range would overflow, so it keeps its repr
    assert str(exc.value) == "; ".join([
        "g1=-inf is not finite", "g2=nan is not finite",
        f"q2={Fraction(10 ** 400)!r} is not finite",
        f"delta={10 ** 400!r} is not finite", "gamma1=nan is not finite",
        "eta=inf is not finite", "inv_kca=inf is not finite"])


def test_nonfinite_numpy_float_is_reported_without_its_numpy_repr():
    with pytest.raises(ValidationError, match=r"^eta=nan is not finite$"):
        fig4_params().replace(eta=np.float64("nan"))


def test_null_coherences_take_their_defaults():
    d = {k: 1.0 for k in PARAM_KEYS}
    d["g12"] = d["eta"] = None
    p = DimensionlessParams(**d)
    assert p.g12 == 1.0 and p.eta == 1.0


def test_physical_mode_rejects_sets_that_can_grow(rng):
    # every draw keeps |g12| <= sqrt(g1*g2) and |eta| <= sqrt(gamma1*gamma2),
    # yet B is indefinite for most; the physical mode must follow B's
    # spectrum, and so reject each set whose least-damped mode grows
    growing = 0
    for _ in range(200):
        p = random_params(rng)
        m = build(p)
        if np.linalg.eigvalsh(m.imag).max() <= 1e-12:
            validate(p, mode="physical")
            continue
        with pytest.raises(ValidationError, match=r"g12=.* and eta=.*growing mode"):
            validate(p, mode="physical")
        growing += eigensystem(m).eigenvalues[0].imag > 0.0
    assert growing >= 30
    for _ in range(100):
        p = random_params(rng, coherent=True)
        eta = rng.uniform(-1.0, 1.0) * math.sqrt(p.gamma1 * p.gamma2)
        validate(p.replace(eta=eta), mode="physical")
