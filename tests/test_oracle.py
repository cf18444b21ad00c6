"""A 50-digit oracle for the reproduce outputs.

Every fig3 S_1, and every fig4/fig5 row with a width, is recomputed with
mpmath at 50 significant digits from the exact float entries the code
works on: the matrix of build(params) and v = (sqrt(g1), sqrt(g2), 1).
So the oracle measures the code's arithmetic and its searches, not the
rounding of its inputs. A line is measured against the code's own floor
fit (refine_peak's linear baseline, or none when the raw line was
measured):

    E_peak   the root of S' - slope
    height   S - floor at E_peak
    width    the distance between the two roots of S - floor - height/e

Each column's worst relative error is reported for bench/reference and
for the code. The ceilings are about 10x the worst error measured when
the test was written: a regression guard, not a target.
"""

from __future__ import annotations

import csv
import gzip
import math
from pathlib import Path

import numpy as np
from mpmath import mp

from bic_lab.bic import solve_bic
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.recipes import (FIG4_ETA_LIST, QUOTED, fig3_params, fig4_params,
                             fig5_eta_grid, fig5_params)
from bic_lab.spectrum import (_N_COARSE, _amplitude, _auto_window, _pole_seeds, _spectrum,
                              spectrum_series, sweep_eta)
from conftest import record_acceptance
from test_spectrum import _FAR_OUT_BIC_DESIGNS

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"
SWEEP_COLUMNS = ("E_peak", "height", "width", "re_E1", "im_E1")


def _reference(target: str) -> list[dict]:
    with gzip.open(REFERENCE / f"{target}.csv.gz", "rt", newline="") as fh:
        return list(csv.DictReader(fh))


def _cofactor_form(params):
    """e -> (det, det', N, N') of channel 1 at the working precision, with
    det = det(eI - M) and N = [adj(eI - M) v]_1, the cofactor form of
    the spectrum evaluator."""
    m = [[mp.mpc(complex(z)) for z in row] for row in build(params)]
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    n01, n02, n12, n10, n20, n21 = -m01, -m02, -m12, -m10, -m20, -m21
    v0, v1, v2 = mp.mpf(math.sqrt(params.g1)), mp.mpf(math.sqrt(params.g2)), 1

    def terms(e):
        n00, n11, n22 = e - m00, e - m11, e - m22
        c0 = n11 * n22 - n12 * n21
        det = n00 * c0 - n01 * (n10 * n22 - n12 * n20) + n02 * (n10 * n21 - n11 * n20)
        ddet = c0 + n00 * (n11 + n22) - n01 * n10 - n02 * n20
        num = c0 * v0 - (n01 * n22 - n02 * n21) * v1 + (n01 * n12 - n02 * n11) * v2
        dnum = (n11 + n22) * v0 - n01 * v1 - n02 * v2
        return det, ddet, num, dnum

    return terms


def _spectrum_and_slope(terms, e):
    """S_1(e) and S_1'(e) from the cofactor form."""
    det, ddet, num, dnum = terms(mp.mpf(e))
    amp = num / det
    damp = (dnum - amp * ddet) / det
    return abs(amp) ** 2 / mp.pi, 2 * mp.re(mp.conj(amp) * damp) / mp.pi


def _root(g, bracket):
    """The root of g in a float bracket whose ends differ in sign."""
    return mp.findroot(g, tuple(mp.mpf(x) for x in bracket), solver="anderson",
                       verify=False)


def _line(params) -> dict:
    """The oracle's E1 and line metrics of one fig4/fig5 parameter set."""
    terms = _cofactor_form(params)
    m = build(params)
    eig = eigensystem(m)
    eigenvalues = eig.eigenvalues
    e1 = mp.mpc(complex(eigenvalues[0]))
    for _ in range(8):
        det, ddet, _, _ = terms(e1)
        e1 -= det / ddet

    # refine_peak's coarse scan and floor fit, as the code evaluates them
    lo, hi = window = _auto_window(eigenvalues)
    xs = np.linspace(lo, hi, _N_COARSE)
    inside = [s for s in _pole_seeds(eigenvalues, window) if lo < s < hi]
    if inside:
        xs = np.unique(np.concatenate([xs, inside]))
    ys = _spectrum(params, m, eig, 1)(xs)
    margin = 0.05 * (hi - lo)
    lmask, rmask = xs <= lo + margin, xs >= hi - margin
    bx1, by1 = xs[lmask].mean(), ys[lmask].mean()
    slope = (ys[rmask].mean() - by1) / (xs[rmask].mean() - bx1)
    im = int(np.argmax(ys))
    if ys[im] >= math.e ** 2 * (by1 + slope * (xs[im] - bx1)):
        bx1 = by1 = slope = 0.0
    work_ys = ys - (by1 + slope * (xs - bx1))
    im = int(np.argmax(work_ys))

    def floor(e):
        return mp.mpf(by1) + mp.mpf(slope) * (e - mp.mpf(bx1))

    peak = _root(lambda e: _spectrum_and_slope(terms, e)[1] - slope,
                 (xs[im - 1], xs[im + 1]))
    height = _spectrum_and_slope(terms, peak)[0] - floor(peak)
    target = height / mp.e
    e_peak = float(peak)
    # each crossing bracketed as the code brackets it, from the scan
    crossings = []
    for side, step in ((xs > e_peak, 1), (xs < e_peak, -1)):
        out = np.flatnonzero(side & (work_ys <= float(target)))
        j = out[0] if step > 0 else out[-1]
        inner = xs[j - step] if side[j - step] else e_peak
        crossings.append(_root(
            lambda e: _spectrum_and_slope(terms, e)[0] - floor(e) - target,
            (inner, xs[j])))
    right, left = crossings
    return {"E_peak": peak, "height": height, "width": right - left,
            "re_E1": e1.real, "im_E1": e1.imag}


def _rel(got, want) -> float:
    return float(abs(mp.mpf(got) - want) / abs(want))


def _worst(rows, oracle, columns) -> dict:
    return {c: max(_rel(row[c], oracle[key][c]) for key, row in rows.items())
            for c in columns}


def _report(target: str, ref: dict, code: dict, ceiling: dict) -> None:
    ok = all(max(ref[c], code[c]) <= ceiling[c] for c in ceiling)
    record_acceptance(
        f"{target} 50-digit oracle", ok,
        "max relative error reference / code: "
        + ", ".join(f"{c} {ref[c]:.1e} / {code[c]:.1e} (ceiling {ceiling[c]:.0e})"
                    for c in ceiling))
    for c, top in ceiling.items():
        assert ref[c] <= top, f"{target} reference {c} deviates {ref[c]:.3e}"
        assert code[c] <= top, f"{target} code {c} deviates {code[c]:.3e}"


def test_fig3_spectrum_against_50_digits():
    gamma = QUOTED["fig3"]["vic_gamma"]
    cases = {
        "deviated_g2_no_decay": fig3_params("g2"),
        "deviated_g1_no_decay": fig3_params("g1"),
        "vic_restored_eta_quoted": fig3_params("g2", gamma=gamma,
                                               eta=QUOTED["fig3"]["vic_eta_quoted"]),
        "vic_restored_eta_exact": fig3_params("g2", gamma=gamma,
                                              eta=QUOTED["fig3"]["vic_eta_exact"]),
        "vic_off": fig3_params("g2", gamma=gamma, eta=0.0),
    }
    reference = {(row["case"], float(row["E_tilde"])): {"S_1": float(row["S_1"])}
                 for row in _reference("fig3")}
    code = {}
    for name, params in cases.items():
        series = spectrum_series(params, 0.5, 2.5, 601, channel=1)
        code.update(((name, e), {"S_1": s}) for e, s in
                    zip(series.grid.tolist(), series.values.tolist()))
    assert {name for name, _ in reference} == set(cases)
    with mp.workdps(50):
        forms = {name: _cofactor_form(params) for name, params in cases.items()}
        oracle = {key: {"S_1": _spectrum_and_slope(forms[key[0]], key[1])[0]}
                  for key in reference.keys() | code.keys()}
        ref, got = (_worst(rows, oracle, ("S_1",)) for rows in (reference, code))
    _report("fig3", ref, got, {"S_1": 5e-9})


def _sweep_against_50_digits(target, params, etas, ceiling):
    reference = {float(row["eta"]): {c: float(row[c]) for c in SWEEP_COLUMNS}
                 for row in _reference(target) if row["width"] != "nan"}
    code = {pt.eta: {"E_peak": pt.metrics.e_peak, "height": pt.metrics.height,
                     "width": pt.metrics.width_w, "re_E1": float(pt.eigenvalues[0].real),
                     "im_E1": pt.im_e1}
            for pt in sweep_eta(params, etas).points if pt.metrics is not None}
    assert reference.keys() == code.keys()
    with mp.workdps(50):
        oracle = {eta: _line(params.replace(eta=eta)) for eta in reference}
        ref, got = (_worst(rows, oracle, SWEEP_COLUMNS) for rows in (reference, code))
    _report(target, ref, got, ceiling)


def test_fig4_lines_against_50_digits():
    _sweep_against_50_digits("fig4", fig4_params(), FIG4_ETA_LIST, {
        "E_peak": 2e-8, "height": 7e-12, "width": 7e-10, "re_E1": 2e-15, "im_E1": 2e-9})


def test_fig5_lines_against_50_digits():
    _sweep_against_50_digits("fig5", fig5_params(), [float(x) for x in fig5_eta_grid()], {
        "E_peak": 2e-7, "height": 2e-8, "width": 2e-8, "re_E1": 3e-15, "im_E1": 4e-8})


def _removable_limit(params, lam, channel):
    """N'/D' of the channel at lam, at the working precision: the amplitude
    at a real root that the numerator N shares with D = det(eI - M)."""
    m = [[mp.mpc(complex(z)) for z in row] for row in build(params)]
    e = mp.mpf(lam)
    (n00, n01, n02), (n10, n11, n12), (n20, n21, n22) = (
        [(e if i == j else 0) - m[i][j] for j in range(3)] for i in range(3))
    v = (mp.mpf(math.sqrt(params.g1)), mp.mpf(math.sqrt(params.g2)), 1)
    # D' is the sum of the principal 2x2 minors; N' the derivatives of its cofactors
    d_det = (n11 * n22 - n12 * n21) + (n00 * n22 - n02 * n20) + (n00 * n11 - n01 * n10)
    dc = (n11 + n22, -n01, -n02) if channel == 1 else (-n10, n00 + n22, -n12)
    return (dc[0] * v[0] + dc[1] * v[1] + dc[2] * v[2]) / d_det


def test_amplitude_at_an_exact_bound_state_is_its_limit(fig4_bic):
    rng = np.random.default_rng(29)
    sols = [fig4_bic] + [solve_bic(**d) for d in _FAR_OUT_BIC_DESIGNS]
    for _ in range(200):
        sols.append(solve_bic(g1=rng.uniform(0.1, 5.0), g2=rng.uniform(0.1, 5.0),
                              q1=rng.uniform(-2.0, 2.0), q2=rng.uniform(-2.0, 2.0),
                              delta=rng.uniform(-1.0, 1.0), gamma1=rng.uniform(0.1, 3.0),
                              gamma2=rng.uniform(0.1, 3.0), inv_kca=rng.uniform(-3.0, 3.0)))
    worst = 0.0
    with mp.workdps(50):
        for sol in sols:
            p = sol.params
            v = np.array([math.sqrt(p.g1), math.sqrt(p.g2), 1.0])
            for channel in (1, 2):
                got = complex(_amplitude(build(p), v, channel)(np.array([sol.lam]))[0])
                want = _removable_limit(p, sol.lam, channel)
                worst = max(worst, float(abs(mp.mpc(got) - want) / abs(want)))
    record_acceptance("bound-state limit 50-digit oracle", worst <= 1e-12,
                      f"max relative error of the amplitude at lambda {worst:.1e} "
                      f"over {len(sols)} exact bound states (ceiling 1e-12)")
    assert worst <= 1e-12
