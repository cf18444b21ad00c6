from __future__ import annotations

import math

import pytest

from bic_lab.dressing import DressedPair, dress, dressed_splitting, mixing_angle, vic_feasibility
from bic_lab.errors import DegenerateDressing, ZeroLinewidth


def test_mixing_angle_limits():
    # pure Rabi drive: equal mixture
    assert mixing_angle(5.0, 0.0) == pytest.approx(math.pi / 4)
    # far-detuned: angle -> 0
    assert mixing_angle(0.01, 100.0) == pytest.approx(5e-5, rel=1e-3)
    # odd in the drive
    assert mixing_angle(-3.0, 2.0) == -mixing_angle(3.0, 2.0)


def test_mixing_angle_continuous_through_resonance():
    eps = 1e-9
    below = mixing_angle(1.0, -eps)
    above = mixing_angle(1.0, eps)
    assert abs(below - above) < 1e-8
    assert below == pytest.approx(math.pi / 4, abs=1e-8)


def test_mixing_angle_degenerate():
    with pytest.raises(DegenerateDressing):
        mixing_angle(0.0, 0.0)


def test_splitting_is_hypot():
    assert dressed_splitting(3.0, 4.0) == 5.0
    assert dressed_splitting(0.0, -2.0) == 2.0


def test_feasibility_value_and_guard():
    # dressed splitting hypot(3, 4) = 5 over sqrt(4 * 1) = 2
    assert vic_feasibility(3.0, 4.0, 4.0, 1.0) == pytest.approx(2.5)
    # favourable working point: splitting below the mean bare width
    assert vic_feasibility(3.0, 1.0, 6.0, 4.0) == pytest.approx(math.sqrt(10.0 / 24.0))
    with pytest.raises(ZeroLinewidth):
        vic_feasibility(10.0, 0.0, 0.0, 1.0)


def test_dress_frozen_example():
    pair = dress(50.0, 10.0, 6.0, 4.0)
    assert pair.theta == pytest.approx(0.686700383472508, rel=1e-14)
    assert pair.splitting == pytest.approx(50.99019513592785, rel=1e-14)
    assert pair.feasibility == pytest.approx(10.408329997330664, rel=1e-14)
    assert pair.cos_theta == pytest.approx(math.cos(pair.theta))
    assert pair.sin_theta == pytest.approx(math.sin(pair.theta))
    assert pair.cos_theta ** 2 + pair.sin_theta ** 2 == pytest.approx(1.0, rel=1e-15)


def test_dress_without_widths_skips_feasibility():
    pair = dress(50.0, 10.0)
    assert isinstance(pair, DressedPair)
    assert pair.feasibility is None
