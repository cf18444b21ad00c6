from __future__ import annotations

import math

import pytest

from bic_lab.errors import ValidationError
from bic_lab.params import (
    PARAM_KEYS,
    DimensionlessParams,
    from_dict,
    validate,
)


def test_coherent_defaults_fill_in():
    p = DimensionlessParams(
        g1=4.0, g2=1.0, q1=0.1, q2=0.2,
        delta1=0.0, delta2=0.0, delta=0.0,
        gamma1=0.09, gamma2=0.04,
    )
    assert p.g12 == pytest.approx(2.0, abs=0)
    assert p.eta == pytest.approx(0.06, abs=0)


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


def test_from_dict_roundtrip(generic_params):
    d = generic_params.as_dict()
    assert set(d) == set(PARAM_KEYS)
    assert from_dict(d) == generic_params


def test_from_dict_rejects_unknown_key():
    d = {k: 0.0 for k in PARAM_KEYS}
    d["g1"] = d["g2"] = 1.0
    d["bogus"] = 1.0
    with pytest.raises(ValidationError, match="bogus"):
        from_dict(d)


def test_from_dict_rejects_missing_key():
    d = {k: 1.0 for k in PARAM_KEYS}
    del d["delta2"]
    with pytest.raises(ValidationError, match="delta2"):
        from_dict(d)


def test_from_dict_optional_keys_may_be_absent():
    d = {k: 1.0 for k in PARAM_KEYS}
    for k in ("g12", "eta", "inv_kca"):
        del d[k]
    p = from_dict(d)
    assert p.g12 == 1.0 and p.eta == 1.0 and p.inv_kca == 0.0


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
