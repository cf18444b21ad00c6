"""Seeded task streams and output checks for the bench workloads.

A workload is a prologue of fixed tasks (the bundled ``reproduce``
targets), followed by an endless stream of seeded tasks cut into cycles.
Cycle ``c`` of seed ``s`` is drawn from ``numpy.random.default_rng([s, c])``
alone, so the inputs a run sees depend only on the seed and on how far the
run gets, never on timing.

``run`` makes the package calls of one task and returns their outputs; it is
the only part that is timed.  ``check`` inspects those outputs afterwards and
returns ``(failure, wrong)``: ``failure`` names why the task counts as failed
(``None`` when it succeeded), and ``wrong`` is true when an output violates
an invariant or differs from the stored reference, i.e. when the program
returned a wrong answer rather than declining to answer.

The seeded tasks of the timed streams are jittered copies of the paper's
geometries, on which the package measures every line.  Broad random
geometries, where it declines some lines (``NoPeak``, ``MultiPeak``) or hits
a pole (``PoleHit``), are kept as a fixed *probe* set per workload: the
traced run evaluates it untimed and reports its failure share, so those
known failures stay visible without being operations of the timed run.
"""

from __future__ import annotations

import csv
import functools
import gzip
import io
import itertools
import math
import os

import numpy as np

import bic_lab
import bic_lab.cli

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: relative tolerance of the numeric comparison with the stored reproduce CSVs
REFERENCE_RTOL = 1e-9
#: bound on the closed-form solve residuals, per unit of max(1, |lambda|):
#: the residual of a unit vector carries rounding of order eps * |lambda|,
#: which passes 1e-12 once |lambda| reaches about 1e4
RESIDUAL_TOL = 1e-12
#: bound on the projected-resolvent identity deviation
RESOLVENT_TOL = 1e-10
#: 1/e full width of a Lorentzian per unit |Im E1|, computed independently
LORENTZ_FACTOR = 2.0 * math.sqrt(math.e - 1.0)

ETA_LADDER = (0.9, 0.99, 0.999, 0.9999, 1.0)

#: the paper's BIC geometries (the fig4/fig5 and fig3 caption sets), as
#: ``solve_bic`` arguments; fixed here so every commit sees the same inputs
FIG4_DESIGN = dict(g1=3.0, g2=2.0, q1=-0.8, q2=0.54, delta=0.1, gamma1=1.0, gamma2=1.0)
FIG3_DESIGN = dict(g1=4.0, g2=2.0, q1=-0.8, q2=-0.6, delta=0.1, gamma1=0.01, gamma2=0.01)
#: relative jitter of every design parameter: sweep points stay close to the
#: fig4 geometry (10 % already gives about 3 % NoPeak/MultiPeak points),
#: designs range wider since solve, certify and spectrum_series hold there
SWEEP_JITTER = 0.02
DESIGN_JITTER = 0.1
#: cycle number of the probe draws, one that no run reaches
PROBE_CYCLE = 2 ** 32 - 1


def _jittered_design(rng: np.random.Generator, base: dict, rel: float) -> dict:
    return {k: float(v * rng.uniform(1.0 - rel, 1.0 + rel)) for k, v in base.items()}


def _draw_design(rng: np.random.Generator) -> dict:
    """One broad random coherent BIC geometry for ``solve_bic`` (probes)."""
    g1, g2 = rng.uniform(0.5, 5.0, 2)
    q1, q2 = rng.uniform(-2.0, 2.0, 2)
    delta = rng.uniform(-0.5, 0.5)
    gamma1, gamma2 = rng.uniform(0.2, 2.0, 2)
    return dict(g1=float(g1), g2=float(g2), q1=float(q1), q2=float(q2),
                delta=float(delta), gamma1=float(gamma1), gamma2=float(gamma2))


def _solve_ok(sol) -> bool:
    tol = RESIDUAL_TOL * max(1.0, abs(sol.lam))
    return sol.residual_a <= tol and sol.residual_b <= tol


# ---------------------------------------------------------------------------
# fixed reproduce targets, run through the command line


@functools.cache
def _reference(target: str) -> tuple[bytes, list[list[str]]]:
    with gzip.open(os.path.join(REFERENCE_DIR, f"{target}.csv.gz"), "rb") as fh:
        data = fh.read()
    return data, _rows(data)


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _cells_match(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REFERENCE_RTOL * abs(b)


class Reproduce:
    """``bic-lab reproduce <target> --out <file>`` checked against the
    seed commit's output, numerically and for byte identity."""

    kind = "reproduce"

    def __init__(self, target: str, tmp_dir: str):
        self.target = target
        self.path = os.path.join(tmp_dir, f"{target}.csv")
        self.reference, self.reference_rows = _reference(target)

    def run(self):
        code = bic_lab.cli.main(["reproduce", self.target, "--out", self.path, "--quiet"])
        with open(self.path, "rb") as fh:
            return code, fh.read()

    def check(self, out):
        code, data = out
        if code != 0:
            return f"exit{code}", False
        rows = _rows(data)
        same = (len(rows) == len(self.reference_rows) and all(
            len(r) == len(w) and all(map(_cells_match, r, w))
            for r, w in zip(rows, self.reference_rows)))
        if not same:
            return "reference_mismatch", True
        return None, False

    def byte_identical(self, out) -> bool:
        return out[1] == self.reference


# ---------------------------------------------------------------------------
# width_sweep: one eta point of a detuned near-BIC design


class SweepPoint:
    kind = "sweep_point"

    def __init__(self, design: dict, detune: float, eta_factor: float):
        self.design = design
        self.detune = detune
        self.eta_factor = eta_factor

    def run(self):
        sol = bic_lab.solve_bic(**self.design)
        p = sol.params.replace(g1=sol.params.g1 * self.detune)
        eta = self.eta_factor * math.sqrt(p.gamma1 * p.gamma2)
        return sol, bic_lab.sweep_eta(p, [eta]).points[0]

    def check(self, out):
        sol, pt = out
        if not _solve_ok(sol):
            return "check_solve_residual", True
        if pt.error is not None:
            return pt.error.split(":", 1)[0], False
        m = pt.metrics
        if not (m.left_cross < m.e_peak < m.right_cross) or not m.width_w > 0.0:
            return "check_crossings", True
        if not m.refined:
            expect = LORENTZ_FACTOR * abs(pt.im_e1)
            # the crossings are floats around the peak, so the width carries
            # a rounding error of a few ulps of E_peak
            if abs(m.width_w - expect) > 4.0 * np.spacing(abs(m.e_peak)) + 1e-12 * expect:
                return "check_analytic_width", True
        return None, False


def width_sweep_prologue(tmp_dir: str) -> list:
    return [Reproduce(target, tmp_dir) for target in ("fig4", "fig5")]


def _sweep_points(rng: np.random.Generator, draw) -> list:
    tasks = []
    for i in range(50):
        # every point gets its own design, so a run samples many geometries.
        # The log-uniform detuning of g1 reaches from resolved lines down to
        # poles too narrow for float abscissae (the analytic branch).  The
        # rungs of the eta ladder take turns, and each cycle gives every rung
        # one point in each tenth of the detuning range, so the branch mix,
        # and with it the cost of a cycle, is the same from seed to seed.
        tenth, rung = divmod(i, len(ETA_LADDER))
        design = draw(rng)
        detune = 1.0 + float(10.0 ** (-6.0 + 0.4 * (tenth + rng.uniform())))
        tasks.append(SweepPoint(design, detune, ETA_LADDER[rung]))
    return tasks


def width_sweep_cycle(seed: int, cycle: int) -> list:
    return _sweep_points(np.random.default_rng([seed, cycle]),
                         lambda rng: _jittered_design(rng, FIG4_DESIGN, SWEEP_JITTER))


def width_sweep_probes(seed: int) -> list:
    """Broad random geometries: some 5-15 % of these points fail."""
    return _sweep_points(np.random.default_rng([seed, PROBE_CYCLE]), _draw_design)


# ---------------------------------------------------------------------------
# design_scan: solve, certify the coherent set and its eta=0 twin, spectrum


class Design:
    kind = "design"

    def __init__(self, design: dict):
        self.design = design

    def run(self):
        sol = bic_lab.solve_bic(**self.design)
        coherent = bic_lab.certify(sol.params)
        twin = bic_lab.certify(sol.params.replace(eta=0.0))
        series = bic_lab.spectrum_series(sol.params, sol.lam - 5.0, sol.lam + 5.0, 401)
        return sol, coherent, twin, series

    def check(self, out):
        sol, coherent, twin, series = out
        if not _solve_ok(sol):
            return "check_solve_residual", True
        # coherence is necessary: the BIC must vanish without it
        if not coherent.is_bic or twin.is_bic:
            return "check_certify", True
        if series.grid[0] != sol.lam - 5.0 or series.grid[-1] != sol.lam + 5.0:
            return "check_spectrum_grid", True
        return None, False


def design_scan_prologue(tmp_dir: str) -> list:
    return [Reproduce("fig3", tmp_dir)]


def design_scan_cycle(seed: int, cycle: int) -> list:
    rng = np.random.default_rng([seed, cycle])
    return [Design(_jittered_design(rng, (FIG3_DESIGN, FIG4_DESIGN)[i % 2], DESIGN_JITTER))
            for i in range(200)]


def design_scan_probes(seed: int) -> list:
    """Broad random geometries pushed towards g1/g2 = gamma1/gamma2, where the
    decay-free direction degenerates and lambda grows: 1e-1 to 1e-4 away from
    it, over a quarter of these designs hit PoleHit in spectrum_series."""
    rng = np.random.default_rng([seed, PROBE_CYCLE])
    tasks = []
    for i in range(40):
        d = _draw_design(rng)
        d["g1"] = d["g2"] * d["gamma1"] / d["gamma2"] * (1.0 + 10.0 ** -(1 + i % 4)) ** 2
        tasks.append(Design(d))
    return tasks


# ---------------------------------------------------------------------------
# elimination: microscopic derivation and brute-force discretized checks

#: collision plus photon bins: 3 + 400 + 2 * 200 = 803 states
FULL_GRID = dict(e_min=0.0, e_max=4.5, n_e=400, k_min=0.0, k_max=3.0, n_k=200)
COLLISION_GRID = dict(e_min=0.0, e_max=4.5, n_e=400)
E1_ROT, E2_ROT = 0.9, 1.1


def _jittered_model(rng: np.random.Generator):
    ref = bic_lab.reference_gaussian_model()

    def jitter(c):
        return bic_lab.GaussianCoupling(
            amplitude=c.amplitude * float(rng.uniform(0.9, 1.1)),
            center=c.center + float(rng.uniform(-0.05, 0.05)),
            width=c.width * float(rng.uniform(0.9, 1.1)))

    return bic_lab.CouplingModel(
        lambda1=jitter(ref.lambda1), lambda2=jitter(ref.lambda2), v3=jitter(ref.v3),
        v1f=ref.v1f, v2f=ref.v2f, omega13=ref.omega13, omega23=ref.omega23,
        e3=ref.e3, dipole_overlap=ref.dipole_overlap, e_max=ref.e_max)


class Elimination:
    kind = "elimination"

    def __init__(self, model):
        self.model = model

    def run(self):
        model = self.model
        res = bic_lab.derive_couplings(model)
        params = bic_lab.to_dimensionless(res, model, e1=E1_ROT, e2=E2_ROT)
        full = bic_lab.discretize(model, bic_lab.GridSpec(**FULL_GRID))
        report = bic_lab.resolvent_check(full)
        collision = bic_lab.discretize(model, bic_lab.GridSpec(**COLLISION_GRID),
                                       e1_rot=E1_ROT, e2_rot=E2_ROT)
        poles = bic_lab.compare_pole_approximation(collision, model, params)
        return full, report, poles

    def check(self, out):
        full, report, poles = out
        if full.size != 3 + FULL_GRID["n_e"] + 2 * FULL_GRID["n_k"]:
            return "check_states", True
        if not report.max_deviation <= RESOLVENT_TOL:
            return "check_resolvent", True
        if not np.all(np.isfinite(poles.deviations)):
            return "check_poles", True
        return None, False


def elimination_cycle(seed: int, cycle: int) -> list:
    rng = np.random.default_rng([seed, cycle])
    return [Elimination(_jittered_model(rng)) for _ in range(5)]


# ---------------------------------------------------------------------------
# host-speed calibration kernels: fixed code that calls nothing in bic_lab,
# timed between tasks so that task times can be scaled to a reference speed

_CAL_RNG = np.random.default_rng(0)
_CAL_M = _CAL_RNG.standard_normal((3, 3)) + 1j * _CAL_RNG.standard_normal((3, 3))
_CAL_EYE = np.eye(3)
_CAL_DENSE = _CAL_RNG.standard_normal((400, 400))
_CAL_DENSE = _CAL_DENSE + _CAL_DENSE.T + 1j * np.eye(400)
_CAL_RHS = _CAL_RNG.standard_normal((400, 8)) + 0j


def small_numpy_kernel() -> float:
    """Many tiny numpy calls on 3x3 complex matrices, as in scalar
    spectrum evaluations and eigensystems."""
    s = 0.0
    for i in range(300):
        g = np.array([i * 1e-3])
        d = np.linalg.det(_CAL_M[None, :, :] - g[:, None, None] * _CAL_EYE)
        s += float(np.abs(d[0]) ** 2 / math.pi)
    return s


def dense_solve_kernel() -> float:
    """One dense complex solve through LAPACK, as in the resolvent checks."""
    return float(np.linalg.solve(_CAL_DENSE, _CAL_RHS)[0, 0].real)


#: (prologue, cycle, probes, calibration kernel) per workload
WORKLOADS = {
    "width_sweep": (width_sweep_prologue, width_sweep_cycle, width_sweep_probes,
                    small_numpy_kernel),
    "design_scan": (design_scan_prologue, design_scan_cycle, design_scan_probes,
                    small_numpy_kernel),
    "elimination": (lambda tmp_dir: [], elimination_cycle, lambda seed: [],
                    dense_solve_kernel),
}


class TaskStream:
    """Tasks of one workload in order: the prologue, then cycle after cycle.
    ``probes()`` gives the workload's probe set, which is not in the stream."""

    def __init__(self, workload: str, seed: int, tmp_dir: str):
        prologue, self._make, self._probes, self.kernel = WORKLOADS[workload]
        self.prologue = prologue(tmp_dir)
        self.seed = seed
        self.first_cycle = self._make(seed, 0)

    def probes(self) -> list:
        return self._probes(self.seed)

    def __iter__(self):
        yield from self.prologue
        yield from self.first_cycle
        for cycle in itertools.count(1):
            yield from self._make(self.seed, cycle)
