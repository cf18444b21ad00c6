from __future__ import annotations

import numpy as np
import pytest

from bic_lab.bic import solve_bic
from bic_lab.params import DimensionlessParams
from bic_lab.recipes import FIG4_SHARED, fig3_params, fig4_params, fig5_params

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, ok: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance check for the summary."""
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def fig3():
    return fig3_params()


@pytest.fixture
def fig4():
    return fig4_params()


@pytest.fixture
def fig5():
    return fig5_params()


@pytest.fixture
def fig4_bic():
    """Exact closed-form bound state of the fig4 geometry (g1 = 3)."""
    return solve_bic(g1=3.0, g2=2.0, q1=FIG4_SHARED["q1"], q2=FIG4_SHARED["q2"],
                     delta=FIG4_SHARED["delta"], gamma1=1.0, gamma2=1.0)


@pytest.fixture
def generic_params():
    # asymmetric, incoherent, everything nonzero: exercises all matrix entries
    return DimensionlessParams(
        g1=1.3, g2=0.7, g12=0.55,
        q1=0.4, q2=-0.9,
        delta1=1.1, delta2=-0.3, delta=0.25,
        gamma1=0.2, gamma2=0.05, eta=0.06,
        inv_kca=0.8,
    )


def random_params(rng, coherent=False):
    """Random valid parameter set for property tests (most incoherent
    draws leave B indefinite and fail the physical validation mode)."""
    g1, g2 = rng.uniform(0.2, 4.0, 2)
    gamma1, gamma2 = rng.uniform(0.0, 1.5, 2)
    if coherent:
        g12 = None
        eta = None
    else:
        g12 = rng.uniform(-1.0, 1.0) * np.sqrt(g1 * g2)
        eta = rng.uniform(0.0, 1.0) * np.sqrt(gamma1 * gamma2)
    return DimensionlessParams(
        g1=g1, g2=g2, g12=g12,
        q1=rng.uniform(-2, 2), q2=rng.uniform(-2, 2),
        delta1=rng.uniform(-5, 5), delta2=rng.uniform(-5, 5),
        delta=rng.uniform(-1, 1),
        gamma1=gamma1, gamma2=gamma2, eta=eta,
        inv_kca=rng.uniform(-8, 8),
    )
