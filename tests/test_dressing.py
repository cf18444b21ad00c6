from __future__ import annotations

import math

import pytest

from bic_lab.dressing import DressedPair, dress
from bic_lab.errors import DegenerateDressing, ValidationError, ZeroWidth


def test_mixing_angle_limits():
    # pure Rabi drive: equal mixture
    assert dress(5.0, 0.0).theta == pytest.approx(math.pi / 4)
    # far-detuned: angle -> 0
    assert dress(0.01, 100.0).theta == pytest.approx(5e-5, rel=1e-3)
    # odd in the drive
    assert dress(-3.0, 2.0).theta == -dress(3.0, 2.0).theta


def test_mixing_angle_continuous_through_resonance():
    eps = 1e-9
    below = dress(1.0, -eps).theta
    above = dress(1.0, eps).theta
    assert abs(below - above) < 1e-8
    assert below == pytest.approx(math.pi / 4, abs=1e-8)


def test_mixing_angle_degenerate():
    with pytest.raises(DegenerateDressing):
        dress(0.0, 0.0)
    # the undefined basis is reported before the widths are looked at
    with pytest.raises(DegenerateDressing):
        dress(0.0, 0.0, 0.0, 1.0)


def test_splitting_is_hypot():
    assert dress(3.0, 4.0).splitting == 5.0
    assert dress(0.0, -2.0).splitting == 2.0


def test_feasibility_value_and_guard():
    # dressed splitting hypot(3, 4) = 5 over sqrt(4 * 1) = 2
    assert dress(3.0, 4.0, 4.0, 1.0).feasibility == pytest.approx(2.5)
    # favourable working point: splitting below the mean bare width
    assert dress(3.0, 1.0, 6.0, 4.0).feasibility == pytest.approx(math.sqrt(10.0 / 24.0))
    with pytest.raises(ZeroWidth, match=r"^bare widths must be positive, got 0\.0, 1\.0$"):
        dress(10.0, 0.0, 0.0, 1.0)
    # either width: not a ZeroDivisionError
    with pytest.raises(ZeroWidth, match=r"^bare widths must be positive, got 1\.0, 0\.0$"):
        dress(1.0, 1.0, 1.0, 0.0)


def test_dress_frozen_example():
    pair = dress(50.0, 10.0, 6.0, 4.0)
    assert pair.theta == pytest.approx(0.686700383472508, rel=1e-14)
    assert pair.splitting == pytest.approx(50.99019513592785, rel=1e-14)
    assert pair.feasibility == pytest.approx(10.408329997330664, rel=1e-14)


def test_dress_without_widths_skips_feasibility():
    pair = dress(50.0, 10.0)
    assert isinstance(pair, DressedPair)
    assert pair.feasibility is None


@pytest.mark.parametrize("widths,missing", [
    ({"gamma1_bare": 6.0}, "gamma2_bare"), ({"gamma2_bare": 4.0}, "gamma1_bare")])
def test_dress_with_one_bare_width_names_the_missing_one(widths, missing):
    with pytest.raises(ValidationError) as exc:
        dress(50.0, 10.0, **widths)
    assert exc.value.violations == [
        f"{missing} is missing: the feasibility needs both bare widths"]


@pytest.mark.parametrize("g1,g2", [(1e-308, 1e-308), (5e-324, 5e-324), (5e-324, 1e308)])
def test_feasibility_of_tiny_widths_does_not_underflow(g1, g2):
    # sqrt(gamma1_bare * gamma2_bare) underflowed to 0 for the first two
    # pairs, a ZeroDivisionError; the geometric mean sqrt(g1) sqrt(g2) is
    # positive for positive widths, and a ratio past the float range is inf
    mean = math.sqrt(g1) * math.sqrt(g2)
    assert mean > 0.0
    assert dress(3.0, 4.0, g1, g2).feasibility == 5.0 / mean
    assert dress(1e308, 1e308, g1, g2).feasibility == math.inf


@pytest.mark.parametrize("args,message", [
    ((math.nan, 1.0), "omega_m=nan is not finite"),
    ((1.0, -math.inf), "delta_m=-inf is not finite"),
    ((math.inf, 1.0, 1.0, 1.0), "omega_m=inf is not finite"),
    ((1.0, 1.0, 1.0, math.nan), "gamma2_bare=nan is not finite"),
])
def test_non_finite_input_is_a_validation_error(args, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        dress(*args)
