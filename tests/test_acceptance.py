"""End-to-end acceptance checks.

Each test verifies one headline capability against frozen reference
numbers and prints a single PASS/FAIL line in the terminal summary
(see record_acceptance in conftest).  Tolerances are stated inline;
quoted reference values are rounded to the figures shown.
"""
from __future__ import annotations

import csv
import gzip
import io
import math
import time
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from conftest import record_acceptance
from bic_lab.bic import certify, solve_bic
from bic_lab.cli import main
from bic_lab.discretized import (
    GridSpec,
    discretize,
    resolvent_check,
    smoothed_kernel_sum,
)
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.microscopic import WignerCoupling, pv_integral, reference_gaussian_model
from bic_lab.params import DimensionlessParams
from bic_lab.recipes import fig3_params, fig4_params
from bic_lab.spectrum import LORENTZ_WIDTH_FACTOR, refine_peak, sweep_eta


def test_reference_eigentriple_and_speed():
    # no-decay reference set: one near-real mode riding two lossy ones
    params = fig3_params()
    expected = (1.29 - 1e-4j, -0.538 - 6.459j, 1.571 - 0.450j)
    eig = eigensystem(build(params))
    worst = 0.0
    for ref in expected:
        nearest = min(eig.eigenvalues, key=lambda z: abs(z - ref))
        worst = max(worst, abs(nearest.real - ref.real), abs(nearest.imag - ref.imag))
    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        eigensystem(build(params))
        times.append(time.perf_counter() - t0)
    per_call = sorted(times)[len(times) // 2]
    ok = worst < 0.02 and per_call < 1e-3
    record_acceptance(
        "eigentriple", ok,
        f"max component dev {worst:.2e} (tol 0.02), {per_call * 1e3:.3f} ms/call (< 1 ms)")
    assert worst < 0.02
    assert per_call < 1e-3


def test_closed_form_solve_reference_case():
    sol = solve_bic(g1=3.0, g2=2.0, q1=-0.8, q2=0.54, delta=0.1,
                    gamma1=1.0, gamma2=1.0)
    dev = max(abs(sol.lam - 6.7623), abs(sol.params.delta1 - 6.422),
              abs(sol.params.delta2 - 6.620))
    res = max(sol.residual_a, sol.residual_b)
    # the rounded three-figure detunings and the real part of the
    # least-damped eigenvalue must all sit on the same solution
    e1 = eigensystem(build(sol.params)).eigenvalues[0]
    rounded_dev = max(abs(sol.params.delta1 - 6.4), abs(sol.params.delta2 - 6.6),
                      abs(e1.real - 6.763))
    ok = dev < 1e-3 and res < 1e-12 and rounded_dev < 0.05
    record_acceptance(
        "closed-form solve", ok,
        f"lambda={sol.lam:.6f}, dev {dev:.1e} (tol 1e-3), residuals {res:.1e} "
        f"(tol 1e-12), rounded-consistency {rounded_dev:.3f} (tol 0.05)")
    assert dev < 1e-3
    assert res < 1e-12
    assert rounded_dev < 0.05


def test_coherence_necessary_and_sufficient_over_draws():
    rng = default_rng(7)
    n = 1000
    worst_bic = 0.0          # largest |Im E1| where a bound state is claimed
    worst_no_bic = math.inf  # smallest min |Im| once the cross-decay is removed
    for _ in range(n):
        g1, g2 = rng.uniform(0.5, 4.0, 2)
        q1, q2 = rng.uniform(-2.0, 2.0, 2)
        delta = rng.uniform(-1.0, 1.0)
        gamma1, gamma2 = rng.uniform(0.01, 2.0, 2)
        inv_kca = rng.uniform(-2.0, 2.0)
        sol = solve_bic(g1, g2, q1, q2, delta, gamma1, gamma2, inv_kca=inv_kca)
        with_vic = certify(sol.params)
        without_vic = certify(sol.params.replace(eta=0.0))
        assert with_vic.is_bic
        assert not without_vic.is_bic
        worst_bic = max(worst_bic, abs(with_vic.eigenvalue.imag))
        worst_no_bic = min(worst_no_bic, abs(without_vic.eigenvalue.imag))
    ok = worst_bic < 1e-8 and worst_no_bic > 1e-6
    record_acceptance(
        "coherence necessity", ok,
        f"{n}/{n} draws: with cross-decay max |Im| {worst_bic:.1e} (< 1e-8); "
        f"without, min |Im| {worst_no_bic:.1e} (> 1e-6)")
    assert worst_bic < 1e-8
    assert worst_no_bic > 1e-6


def test_decay_rate_trajectory_and_slope():
    expected = {0.999: -1e-3, 0.99: -1e-2, 0.9: -1e-1}
    ratios = {}
    for eta, ref in expected.items():
        im1 = eigensystem(build(fig4_params().replace(eta=eta))).eigenvalues[0].imag
        ratios[eta] = im1 / ref
    h = 1e-6
    im_at = lambda eta: eigensystem(build(fig4_params().replace(eta=eta))).eigenvalues[0].imag
    slope = (im_at(1.0) - im_at(1.0 - h)) / h
    ok_traj = all(0.5 <= r <= 2.0 for r in ratios.values())
    ok_slope = abs(slope - 0.952) <= 0.05 * 0.952
    record_acceptance(
        "decay trajectory", ok_traj and ok_slope,
        "Im E1 ratios " + ", ".join(f"{e}: {r:.3f}" for e, r in ratios.items())
        + f" (each in [0.5, 2]); d(Im E1)/d eta = {slope:.4f} vs 0.952 (5%)")
    assert ok_traj
    assert ok_slope


def test_width_collapse_and_magnitudes():
    etas = [0.9, 0.99, 0.999, 1.0]
    res = sweep_eta(fig4_params(), etas)
    widths = dict(zip(etas, res.widths()))
    assert all(w is not None for w in widths.values())
    monotone = widths[0.9] > widths[0.99] > widths[0.999] > widths[1.0]
    r99 = widths[0.99] / 0.025
    r90 = widths[0.9] / 0.25
    decades = math.log10(widths[0.9] / widths[1.0])
    flag_ratio = widths[0.999] / 2.0e-5
    ok = (monotone and 1 / 3 <= r99 <= 3 and 1 / 3 <= r90 <= 3 and decades >= 4)
    record_acceptance(
        "width collapse", ok,
        f"W(0.99)/quoted={r99:.2f}, W(0.9)/quoted={r90:.2f} (each in [1/3, 3]), "
        f"span {decades:.1f} decades (>= 4), strictly decreasing; "
        f"W(0.999)={widths[0.999]:.2e} vs quoted 2.0e-5 FLAGGED "
        f"(x{flag_ratio:.0f}, inconsistent with Im E1 ~ -1e-3; reported only)")
    assert monotone
    assert 1 / 3 <= r99 <= 3
    assert 1 / 3 <= r90 <= 3
    assert decades >= 4


def _random_set(rng, coherent):
    g1, g2 = rng.uniform(0.2, 4.0, 2)
    gamma1, gamma2 = rng.uniform(0.0, 1.5, 2)
    root = math.sqrt(g1 * g2)
    g12 = root if coherent else rng.uniform(-1.0, 1.0) * root
    eta = rng.uniform(0.0, 1.0) * math.sqrt(gamma1 * gamma2)
    return DimensionlessParams(
        g1=g1, g2=g2, g12=g12, q1=rng.uniform(-2, 2), q2=rng.uniform(-2, 2),
        delta1=rng.uniform(-5, 5), delta2=rng.uniform(-5, 5),
        delta=rng.uniform(-1, 1), gamma1=gamma1, gamma2=gamma2, eta=eta,
        inv_kca=rng.uniform(-8, 8))


def test_secular_coefficients_match_closed_forms():
    rng = default_rng(11)
    worst_coh = 0.0
    for _ in range(1000):
        p = _random_set(rng, coherent=True)
        coeffs = np.poly(build(p).imag).real
        closed = (
            1.0 + p.g1 + p.g2 + p.gamma1 + p.gamma2,
            p.gamma1 + p.gamma2 + p.g1 * p.gamma2 + p.g2 * p.gamma1
            + p.gamma1 * p.gamma2 - p.eta ** 2 - 2.0 * p.eta * p.g12,
            p.gamma1 * p.gamma2 - p.eta ** 2,
        )
        worst_coh = max(worst_coh, float(np.max(np.abs(coeffs[1:] - closed))))
    worst_gen = 0.0
    for _ in range(1000):
        p = _random_set(rng, coherent=False)
        c0 = np.poly(build(p).imag).real[3]
        general = p.gamma1 * p.gamma2 - (p.g12 + p.eta - math.sqrt(p.g1 * p.g2)) ** 2
        worst_gen = max(worst_gen, abs(c0 - general))
    ok = worst_coh < 1e-10 and worst_gen < 1e-10
    record_acceptance(
        "secular coefficients", ok,
        f"1000 coherent draws max dev {worst_coh:.1e}, 1000 free-coupling "
        f"constant-term dev {worst_gen:.1e} (tol 1e-10)")
    assert worst_coh < 1e-10
    assert worst_gen < 1e-10


def test_projected_resolvent_matches_direct_inverse():
    model = reference_gaussian_model()
    t0 = time.perf_counter()
    dm = discretize(model, GridSpec(e_min=0.0, e_max=4.5, n_e=400,
                                    k_min=0.0, k_max=3.0, n_k=200))
    report = resolvent_check(dm)
    elapsed = time.perf_counter() - t0
    ok = (len(report.probes) == 8 and report.max_deviation < 1e-10
          and elapsed < 10.0)
    record_acceptance(
        "resolvent identity", ok,
        f"max dev {report.max_deviation:.1e} over {len(report.probes)} probes "
        f"(tol 1e-10), {elapsed:.2f} s (< 10 s)")
    assert len(report.probes) == 8
    assert report.max_deviation < 1e-10
    assert elapsed < 10.0


def test_principal_value_quadrature_benchmarks():
    log_dev = abs(pv_integral(lambda e: 1.0, 1.0, upper=3.0) + math.log(2.0))
    sym_dev = max(abs(pv_integral(lambda e: 1.0, 1.0, upper=2.0)),
                  abs(pv_integral(lambda e: (e - 1.0) ** 2, 1.0, upper=2.0)))
    lam = WignerCoupling(amplitude=0.3, scale=1.0)
    f = lambda e: lam(e) ** 2
    oracle = pv_integral(f, 0.25, upper=5.0)
    discrete = smoothed_kernel_sum(f, 0.25, 0.0, 5.0, 4000).real
    cross_dev = abs(discrete - oracle)
    ok = log_dev < 1e-10 and sym_dev < 1e-12 and cross_dev < 1e-4
    record_acceptance(
        "principal value", ok,
        f"log benchmark dev {log_dev:.1e} (tol 1e-10), pole-symmetric "
        f"{sym_dev:.1e} (tol 1e-12), discretized cross-check {cross_dev:.1e} "
        f"(tol 1e-4 at 4000 bins)")
    assert log_dev < 1e-10
    assert sym_dev < 1e-12
    assert cross_dev < 1e-4


def test_width_extraction_calibrated_on_lorentzian():
    # refine_peak is the engine behind peak_metrics; feed it a pure
    # Lorentzian and demand the closed-form 1/e full width back
    amp, center, half = 2.0, 0.3, 0.01
    metrics = refine_peak(lambda x: amp / ((x - center) ** 2 + half ** 2),
                          (0.0, 1.0), seeds=[center])
    rel = abs(metrics.width_w - LORENTZ_WIDTH_FACTOR * half) / (LORENTZ_WIDTH_FACTOR * half)
    ok = rel < 1e-9
    record_acceptance(
        "width calibration", ok,
        f"1/e width relative error {rel:.1e} (tol 1e-9)")
    assert rel < 1e-9


#: committed reproduce outputs of the benchmark, and its tolerance on them
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "bench" / "reference"
REFERENCE_RTOL = 1e-9


def _reference_deviation(data: bytes, target: str) -> float:
    """Largest relative deviation of a reproduce CSV from its reference.

    Rows and text cells must match exactly and NaN only matches NaN;
    any such mismatch reads as an infinite deviation.
    """
    with gzip.open(REFERENCE_DIR / f"{target}.csv.gz", "rt", newline="") as fh:
        want = list(csv.reader(fh))
    got = list(csv.reader(io.StringIO(data.decode(), newline="")))
    if len(got) != len(want):
        return math.inf
    worst = 0.0
    for row, ref_row in zip(got, want):
        if len(row) != len(ref_row):
            return math.inf
        for cell, ref in zip(row, ref_row):
            try:
                a, b = float(cell), float(ref)
            except ValueError:
                if cell != ref:
                    return math.inf
                continue
            if math.isnan(a) or math.isnan(b):
                if not (math.isnan(a) and math.isnan(b)):
                    return math.inf
            elif a != b:
                worst = max(worst, abs(a - b) / abs(b) if b else math.inf)
    return worst


def test_reproduce_outputs_are_byte_identical(tmp_path):
    sizes = {}
    deviations = {}
    for target in ("fig3", "fig4", "fig5"):
        first = tmp_path / f"{target}_a.csv"
        second = tmp_path / f"{target}_b.csv"
        assert main(["reproduce", target, "--out", str(first), "--quiet"]) == 0
        assert main(["reproduce", target, "--out", str(second), "--quiet"]) == 0
        a, b = first.read_bytes(), second.read_bytes()
        assert a == b, f"{target} output differs between runs"
        sizes[target] = len(a)
        deviations[target] = _reference_deviation(a, target)
    ok = all(dev <= REFERENCE_RTOL for dev in deviations.values())
    record_acceptance(
        "determinism", ok,
        "reproduce fig3/fig4/fig5 byte-identical across runs ("
        + ", ".join(f"{k} {v} B" for k, v in sizes.items())
        + "); max relative deviation from bench/reference "
        + ", ".join(f"{k} {v:.1e}" for k, v in deviations.items())
        + f" (tol {REFERENCE_RTOL:g})")
    for target, dev in deviations.items():
        assert dev <= REFERENCE_RTOL, f"{target} deviates {dev:.3e} from its reference"
