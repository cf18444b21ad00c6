"""Command-line front end: config ingestion, dispatch, deterministic output.

Subcommands
    dress        dressed-state summary from a magnetic working point
    solve        closed-form bound-state-in-continuum solve
    certify      numerical certification of a (near-)real eigenvalue
    spectrum     sampled photoassociation spectrum (CSV: E_tilde,S_n)
    sweep-eta    peak metrics across an explicit eta list
    width-curve  peak metrics across a dense eta range (width-vs-eta curve)
    derive       microscopic couplings -> dimensionless parameter set
    validate     discretized projected-resolvent identity check
    reproduce    bundled benchmark scenarios fig3 | fig4 | fig5

All numeric CSV output is serialized with 17 significant digits, `,`
separators and `\n` newlines, so identical inputs give byte-identical
files.

Exit codes: 0 success; 2 config or validation error; 3 numerical or IO
failure; 4 degenerate parameter manifold.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bic import certify, solve_bic
from .discretized import GridSpec, discretize, resolvent_check
from .dressing import dress
from .errors import (BicLabError, ConvergenceFailure, DegenerateDressing,
                     DegenerateVector, DivergentTail, FixedPointDivergence,
                     GridCoverage, MultiPeak, NoPeak, PoleHit, ProbeOnSpectrum,
                     SingularEndpoint, SingularSolve, ValidationError,
                     ZeroCross, ZeroLinewidth, ZeroWidth)
from .hamiltonian import build, eigensystem
from .microscopic import (CouplingModel, FlatCoupling, GaussianCoupling,
                          WignerCoupling, derive_couplings, to_dimensionless)
from .params import DimensionlessParams, from_dict, validate
from .recipes import (FIG4_ETA_LIST, QUOTED, fig3_params, fig4_params,
                      fig5_eta_grid, fig5_params)
from .spectrum import spectrum_series, sweep_eta

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DEGENERATE = 4

_EXIT_BY_ERROR = (
    (ValidationError, EXIT_CONFIG),
    (GridCoverage, EXIT_CONFIG),
    ((ConvergenceFailure, FixedPointDivergence, DivergentTail), EXIT_NUMERICAL),
    ((SingularSolve, DegenerateVector, ZeroWidth, ZeroCross, ZeroLinewidth,
      DegenerateDressing, SingularEndpoint, NoPeak, MultiPeak, PoleHit,
      ProbeOnSpectrum), EXIT_DEGENERATE),
)

SWEEP_HEADER = ["eta", "E_peak", "height", "width", "re_E1", "im_E1"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_csv(header: list[str], rows, path: str) -> None:
    """Write rows as deterministic CSV (17 significant digits, \\n)."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def emit_json(obj, path: str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _load_config(args) -> dict:
    if not args.config:
        raise ValidationError([f"subcommand '{args.subcommand}' requires --config"])
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError([f"config file not found: {args.config}"])
    except json.JSONDecodeError as exc:
        raise ValidationError([f"config is not valid JSON: {exc}"])
    if not isinstance(cfg, dict):
        raise ValidationError(["config root must be a JSON object"])
    return cfg


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    block = cfg.get(name)
    if block is None:
        if required:
            raise ValidationError([f"config section '{name}' is required"])
        return {}
    if not isinstance(block, dict):
        raise ValidationError([f"config section '{name}' must be an object"])
    return block


def _validation_mode(cfg: dict) -> str:
    return cfg.get("validation_mode", "permissive")


def _params_from_config(cfg: dict) -> DimensionlessParams:
    params = from_dict(_section(cfg, "params"))
    return validate(params, mode=_validation_mode(cfg))


def _float_value(value, where: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValidationError([f"{where}: not a number ({value!r})"])
    if not math.isfinite(number):
        raise ValidationError([f"{where}: must be finite ({value!r})"])
    return number


def _float_field(block: dict, section: str, key: str, default=None) -> float:
    if key not in block:
        if default is None:
            raise ValidationError([f"{section}.{key}: required"])
        return float(default)
    return _float_value(block[key], f"{section}.{key}")


def _int_field(block: dict, section: str, key: str, default=None) -> int:
    """A true integer: an int or an integral float, never a bool or a string."""
    if key not in block:
        if default is None:
            raise ValidationError([f"{section}.{key}: required"])
        return default
    value = block[key]
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or (isinstance(value, float) and value.is_integer())):
        raise ValidationError([f"{section}.{key}: not an integer ({value!r})"])
    return int(value)


_SHAPES = {
    "gaussian": (GaussianCoupling, ("amplitude", "center", "width")),
    "wigner": (WignerCoupling, ("amplitude", "scale")),
    "flat": (FlatCoupling, ("amplitude",)),
}


def _coupling_from_config(block, label: str):
    if not isinstance(block, dict) or "shape" not in block:
        raise ValidationError(
            [f"microscopic.{label}: expected an object with a 'shape' key"])
    shape = block["shape"]
    if shape not in _SHAPES:
        raise ValidationError(
            [f"microscopic.{label}.shape: unknown shape {shape!r}; "
             f"expected one of {sorted(_SHAPES)}"])
    cls, keys = _SHAPES[shape]
    kwargs = {k: _float_field(block, f"microscopic.{label}", k) for k in keys}
    return cls(**kwargs)


def _model_from_config(cfg: dict) -> tuple[CouplingModel, dict]:
    block = _section(cfg, "microscopic")
    model = CouplingModel(
        lambda1=_coupling_from_config(block.get("lambda1"), "lambda1"),
        lambda2=_coupling_from_config(block.get("lambda2"), "lambda2"),
        v3=_coupling_from_config(block.get("v3"), "v3"),
        v1f=_float_field(block, "microscopic", "v1f"),
        v2f=_float_field(block, "microscopic", "v2f"),
        omega13=_float_field(block, "microscopic", "omega13"),
        omega23=_float_field(block, "microscopic", "omega23"),
        e3=_float_field(block, "microscopic", "e3"),
        dipole_overlap=_float_field(block, "microscopic", "dipole_overlap"),
        e_max=(_float_value(block["e_max"], "microscopic.e_max")
               if block.get("e_max") is not None else None),
    )
    return model, block


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_dress(args) -> int:
    cfg = _load_config(args)
    block = _section(cfg, "dressing")
    pair = dress(
        omega_m=_float_field(block, "dressing", "omega_m"),
        delta_m=_float_field(block, "dressing", "delta_m"),
        gamma1_bare=(_float_value(block["gamma1_bare"], "dressing.gamma1_bare")
                     if "gamma1_bare" in block else None),
        gamma2_bare=(_float_value(block["gamma2_bare"], "dressing.gamma2_bare")
                     if "gamma2_bare" in block else None),
    )
    record = {
        "theta": pair.theta,
        "cos_theta": pair.cos_theta,
        "sin_theta": pair.sin_theta,
        "splitting": pair.splitting,
        "feasibility": pair.feasibility,
    }
    _emit_record(record, args)
    return EXIT_OK


def _emit_record(record: dict, args) -> None:
    if (args.format or "json") == "json":
        emit_json(record, args.out)
    else:
        keys = list(record.keys())
        emit_csv(keys, [[("" if record[k] is None else record[k]) for k in keys]],
                 args.out)


_SOLVE_KEYS = ("g1", "g2", "q1", "q2", "delta", "gamma1", "gamma2", "g12", "inv_kca")


def _run_solve(args) -> int:
    cfg = _load_config(args)
    p = _section(cfg, "params")
    unknown = sorted(set(p) - set(_SOLVE_KEYS))
    if unknown:
        raise ValidationError([f"params: unknown keys for solve: {', '.join(unknown)}"])
    sol = solve_bic(
        g1=_float_field(p, "params", "g1"),
        g2=_float_field(p, "params", "g2"),
        q1=_float_field(p, "params", "q1"),
        q2=_float_field(p, "params", "q2"),
        delta=_float_field(p, "params", "delta"),
        gamma1=_float_field(p, "params", "gamma1"),
        gamma2=_float_field(p, "params", "gamma2"),
        g12=(_float_value(p["g12"], "params.g12") if p.get("g12") is not None else None),
        inv_kca=_float_field(p, "params", "inv_kca", default=0.0),
    )
    record = {
        "lambda": sol.lam,
        "delta1": sol.delta1,
        "delta2": sol.delta2,
        "eta": sol.params.eta,
        "x1": float(sol.x[0]),
        "x2": float(sol.x[1]),
        "c": sol.c,
        "residual_a": sol.residual_a,
        "residual_b": sol.residual_b,
    }
    _emit_record(record, args)
    return EXIT_OK


def _run_certify(args) -> int:
    cfg = _load_config(args)
    params = _params_from_config(cfg)
    report = certify(params, tol_im=_float_field(cfg, "config", "tol_im", default=1e-9))
    record = {
        "is_bic": report.is_bic,
        "min_abs_im": report.min_abs_im,
        "lambda_est": report.lambda_est,
        "re_E1": report.eigenvalue.real,
        "im_E1": report.eigenvalue.imag,
        "residual_b": report.residual_b,
        "vic_residual": report.vic_residual,
    }
    _emit_record(record, args)
    return EXIT_OK


def _run_spectrum(args) -> int:
    cfg = _load_config(args)
    params = _params_from_config(cfg)
    grid = _section(cfg, "grid")
    series = spectrum_series(
        params,
        e_min=_float_field(grid, "grid", "e_min"),
        e_max=_float_field(grid, "grid", "e_max"),
        n_points=_int_field(grid, "grid", "n_points", default=601),
        channel=_int_field(grid, "grid", "channel", default=1),
    )
    if (args.format or "csv") == "json":
        emit_json({"E_tilde": list(series.grid), "S_n": list(series.values),
                   "channel": series.channel}, args.out)
    else:
        emit_csv(["E_tilde", "S_n"],
                 zip(series.grid.tolist(), series.values.tolist()), args.out)
    return EXIT_OK


def _eta_list_from_config(block: dict, default=None) -> list[float]:
    if "eta_list" in block:
        lst = block["eta_list"]
        if not isinstance(lst, list) or not lst:
            raise ValidationError(["sweep.eta_list: must be a nonempty array"])
        return [_float_value(x, f"sweep.eta_list[{i}]") for i, x in enumerate(lst)]
    if "eta_range" in block:
        rng = block["eta_range"]
        if not isinstance(rng, dict):
            raise ValidationError(["sweep.eta_range: must be an object"])
        start = _float_field(rng, "sweep.eta_range", "start")
        stop = _float_field(rng, "sweep.eta_range", "stop")
        n = _int_field(rng, "sweep.eta_range", "n")
        if n < 2:
            raise ValidationError(["sweep.eta_range.n: must be >= 2"])
        return list(np.linspace(start, stop, n))
    if default is not None:
        return list(default)
    raise ValidationError(["sweep: needs 'eta_list' or 'eta_range'"])


def _sweep_rows(result) -> list[list]:
    rows = []
    for pt in result.points:
        if pt.metrics is None:
            rows.append([pt.eta, math.nan, math.nan, math.nan, pt.re_e1, pt.im_e1])
        else:
            rows.append([pt.eta, pt.metrics.e_peak, pt.metrics.height,
                         pt.metrics.width_w, pt.re_e1, pt.im_e1])
    return rows


def _run_sweep(args, dense_default: bool) -> int:
    cfg = _load_config(args)
    params = _params_from_config(cfg)
    block = _section(cfg, "sweep", required=not dense_default)
    default = fig5_eta_grid() if dense_default else None
    etas = _eta_list_from_config(block, default=default)
    # every swept set is computed, so every one meets the chosen mode
    for eta in etas:
        validate(params.replace(eta=eta), mode=_validation_mode(cfg))
    window = None
    if "window" in block:
        w = block["window"]
        if not (isinstance(w, list) and len(w) == 2):
            raise ValidationError(["sweep.window: must be [lo, hi]"])
        window = (_float_value(w[0], "sweep.window[0]"),
                  _float_value(w[1], "sweep.window[1]"))
        if not window[0] < window[1]:
            raise ValidationError([f"sweep.window: needs lo < hi, got {w!r}"])
    result = sweep_eta(params, etas,
                       channel=_int_field(block, "sweep", "channel", default=1),
                       window=window)
    if (args.format or "csv") == "json":
        emit_json({"rows": [dict(zip(SWEEP_HEADER, row))
                            for row in _sweep_rows(result)]}, args.out)
    else:
        emit_csv(SWEEP_HEADER, _sweep_rows(result), args.out)
    return EXIT_OK


def _run_derive(args) -> int:
    cfg = _load_config(args)
    model, block = _model_from_config(cfg)
    convention = block.get("vic_convention", "as_written")
    res = derive_couplings(model, vic_convention=convention)
    params = to_dimensionless(
        res, model,
        laser1_freq=_float_field(block, "microscopic", "laser1_freq", default=0.0),
        laser2_freq=_float_field(block, "microscopic", "laser2_freq", default=0.0),
        e1=_float_field(block, "microscopic", "e1", default=0.0),
        e2=_float_field(block, "microscopic", "e2", default=0.0),
    )
    record = {
        "microscopic": {
            "E_sh_1": res.e_sh_1, "E_sh_2": res.e_sh_2, "E_sh_F": res.e_sh_f,
            "alpha": res.alpha, "beta1": res.beta1, "beta2": res.beta2,
            "Gamma_1": res.gamma_1, "Gamma_2": res.gamma_2, "Gamma_F": res.gamma_f,
            "gamma_LIC": res.gamma_lic, "Gamma_1F": res.gamma_1f,
            "Gamma_2F": res.gamma_2f, "gamma_1": res.gamma1_sp,
            "gamma_2": res.gamma2_sp, "gamma_VIC": res.gamma_vic,
            "vic_convention": res.vic_convention,
        },
        "params": params.as_dict(),
    }
    _emit_record(record, args)
    return EXIT_OK


def _run_validate(args) -> int:
    cfg = _load_config(args)
    model, _ = _model_from_config(cfg)
    block = _section(cfg, "oracle")
    grid = GridSpec(
        e_min=_float_field(block, "oracle", "e_min"),
        e_max=_float_field(block, "oracle", "e_max"),
        n_e=_int_field(block, "oracle", "n_e"),
        k_min=_float_field(block, "oracle", "k_min", default=0.0),
        k_max=_float_field(block, "oracle", "k_max", default=0.0),
        n_k=_int_field(block, "oracle", "n_k", default=0),
    )
    dm = discretize(model, grid,
                    e1_rot=_float_field(block, "oracle", "e1_rot", default=0.0),
                    e2_rot=_float_field(block, "oracle", "e2_rot", default=0.0))
    probes = None
    if "probes" in block:
        raw = block["probes"]
        if not isinstance(raw, list):
            raise ValidationError(["oracle.probes: must be an array of [re, im]"])
        probes = []
        for i, z in enumerate(raw):
            if not (isinstance(z, list) and len(z) == 2):
                raise ValidationError([f"oracle.probes[{i}]: must be [re, im]"])
            probes.append(complex(_float_value(z[0], f"oracle.probes[{i}][0]"),
                                  _float_value(z[1], f"oracle.probes[{i}][1]")))
    report = resolvent_check(dm, probes)
    rows = [[z.real, z.imag, dev]
            for z, dev in zip(report.probes, report.deviations)]
    emit_csv(["z_re", "z_im", "max_dev"], rows, args.out)
    if not args.quiet:
        print(f"max deviation over {len(rows)} probes: "
              f"{report.max_deviation:.3e}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce


def _summary_out(args):
    return sys.stderr if args.out == "-" else sys.stdout


def _ratio_line(name: str, measured: float, quoted: float, factor: float) -> str:
    if quoted == 0.0 or measured == 0.0 or (measured > 0) != (quoted > 0):
        return f"FLAG {name}: measured={measured:.6g} quoted={quoted:.6g} (sign/zero mismatch)"
    ratio = measured / quoted
    status = "PASS" if 1.0 / factor <= ratio <= factor else "FLAG"
    return (f"{status} {name}: measured={measured:.6g} quoted={quoted:.6g} "
            f"(ratio {ratio:.3g}, allowed x{factor:g})")


def _abs_line(name: str, measured: float, quoted: float, tol: float) -> str:
    status = "PASS" if abs(measured - quoted) <= tol else "FLAG"
    return (f"{status} {name}: measured={measured:.6g} quoted={quoted:.6g} "
            f"(|diff|={abs(measured - quoted):.3g}, tol {tol:g})")


def _reproduce_fig3(args) -> int:
    quoted = QUOTED["fig3"]
    gamma = quoted["vic_gamma"]
    cases = [
        ("deviated_g2_no_decay", fig3_params("g2")),
        ("deviated_g1_no_decay", fig3_params("g1")),
        ("vic_restored_eta_quoted", fig3_params("g2", gamma=gamma,
                                                eta=quoted["vic_eta_quoted"])),
        ("vic_restored_eta_exact", fig3_params("g2", gamma=gamma,
                                               eta=quoted["vic_eta_exact"])),
        ("vic_off", fig3_params("g2", gamma=gamma, eta=0.0)),
    ]
    rows = []
    heights = {}
    for name, params in cases:
        series = spectrum_series(params, 0.5, 2.5, 601, channel=1)
        heights[name] = float(series.values.max())
        rows.extend([name, e, s] for e, s in
                    zip(series.grid.tolist(), series.values.tolist()))
    emit_csv(["case", "E_tilde", "S_1"], rows, args.out)

    lines = []
    eig = eigensystem(build(fig3_params("g2")))
    expected = sorted(quoted["eigenvalues"], key=lambda z: (-z.imag, z.real))
    for k, (got, want) in enumerate(zip(eig.eigenvalues, expected), start=1):
        lines.append(_abs_line(f"fig3 Re E{k}", got.real, want.real, 0.02))
        lines.append(_abs_line(f"fig3 Im E{k}", got.imag, want.imag, 0.02))
    lines.append(
        f"INFO fig3 caption quotes eta={quoted['vic_eta_quoted']} for "
        f"gamma={gamma}; the exact coherence condition gives "
        f"{quoted['vic_eta_exact']} - both were run")
    for name in ("deviated_g2_no_decay", "vic_restored_eta_quoted",
                 "vic_restored_eta_exact", "vic_off"):
        lines.append(f"INFO fig3 peak height[{name}] = {heights[name]:.6g}")
    _print_summary(lines, args)
    return EXIT_OK


def _reproduce_fig4(args) -> int:
    quoted = QUOTED["fig4"]
    params = fig4_params()
    result = sweep_eta(params, FIG4_ETA_LIST)
    emit_csv(SWEEP_HEADER, _sweep_rows(result), args.out)

    lines = []
    by_eta = {pt.eta: pt for pt in result.points}
    e1_top = by_eta[1.0]
    lines.append(_abs_line("fig4 Re E1(eta=1)", e1_top.re_e1,
                           quoted["e1"].real, 0.02))
    lines.append(_ratio_line("fig4 |Im E1|(eta=1)", abs(e1_top.im_e1),
                             abs(quoted["e1"].imag), 3.0))
    for eta, want in sorted(quoted["im_e1"].items(), reverse=True):
        lines.append(_ratio_line(f"fig4 Im E1(eta={eta})",
                                 by_eta[eta].im_e1, want, 2.0))
    for eta in (0.99, 0.9):
        pt = by_eta[eta]
        if pt.metrics is None:
            lines.append(f"FLAG fig4 W(eta={eta}): {pt.error}")
        else:
            lines.append(_ratio_line(f"fig4 W(eta={eta})", pt.metrics.width_w,
                                     quoted["widths"][eta], 3.0))
    pt = by_eta[0.999]
    if pt.metrics is not None:
        w, est = pt.metrics.width_w, 2.0 * abs(pt.im_e1)
        lines.append(
            f"FLAG fig4 W(eta=0.999): measured={w:.6g} quoted="
            f"{quoted['widths'][0.999]:.6g}; the quoted value conflicts with "
            f"the quoted Im E1=-1e-3 (pole estimate 2|Im E1|={est:.6g}); "
            "agreement is reported, not required")
    pt = by_eta[1.0]
    if pt.metrics is not None:
        lines.append(f"INFO fig4 W(eta=1)={pt.metrics.width_w:.6g} "
                     f"(quoted {quoted['widths'][1.0]:.6g})")
    trio = by_eta[1.0].eigenvalues
    tr_b = -(1.0 + params.g1 + params.g2 + params.gamma1 + params.gamma2)
    quoted_im_sum = (quoted["e1"] + quoted["e2"] + quoted["e3"]).imag
    lines.append(
        f"FLAG fig4 quoted E2={quoted['e2']:.6g}, E3={quoted['e3']:.6g}: their "
        f"Im sum {quoted_im_sum:.6g} violates the exact trace identity "
        f"tr B = {tr_b:.6g}; computed triple {np.round(trio, 6)} satisfies it "
        "(report-only)")
    _print_summary(lines, args)
    return EXIT_OK


def _reproduce_fig5(args) -> int:
    quoted = QUOTED["fig5"]
    etas = [float(x) for x in fig5_eta_grid()]
    result = sweep_eta(fig5_params(), etas)
    emit_csv(SWEEP_HEADER, _sweep_rows(result), args.out)

    lines = []
    # quoted endpoints evaluated at their exact eta (the dense grid does
    # not contain 0.999)
    marks = sweep_eta(fig5_params(), sorted(quoted["widths"]))
    for pt in marks.points:
        want = quoted["widths"][pt.eta]
        if pt.metrics is None:
            lines.append(f"FLAG fig5 W(eta={pt.eta:.4g}): {pt.error}")
        elif pt.eta == 0.999:
            lines.append(
                f"FLAG fig5 W(eta={pt.eta:.4g})={pt.metrics.width_w:.6g} vs "
                f"quoted {want:.6g} (known internal inconsistency, report-only)")
        else:
            lines.append(_ratio_line(f"fig5 W(eta={pt.eta:.4g})",
                                     pt.metrics.width_w, want, 3.0))
    widths = {pt.eta: (pt.metrics.width_w if pt.metrics else None)
              for pt in result.points}
    seq = [w for w in (widths[e] for e in sorted(widths)) if w is not None]
    decreasing = all(a > b for a, b in zip(seq, seq[1:]))
    lines.append(("PASS" if decreasing else "FLAG")
                 + " fig5 W(eta) strictly decreasing toward eta=1 over [0.9, 1]")
    _print_summary(lines, args)
    return EXIT_OK


def _print_summary(lines: list[str], args) -> None:
    if args.quiet:
        return
    out = _summary_out(args)
    for line in lines:
        print(line, file=out)


_REPRODUCERS = {"fig3": _reproduce_fig3, "fig4": _reproduce_fig4,
                "fig5": _reproduce_fig5}


def _run_reproduce(args) -> int:
    return _REPRODUCERS[args.target](args)


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", default="-",
                        help="output path ('-' = stdout, the default)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: json for scalar "
                             "reports, csv for tables)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational stderr/summary output")

    parser = argparse.ArgumentParser(
        prog="bic-lab",
        description="Bound states in the continuum protected by "
                    "vacuum-induced coherence: solve, certify, spectra, "
                    "sweeps, microscopic derivation, discretized validation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, handler, blurb in (
            ("dress", _run_dress, "dressed-state mixing summary"),
            ("solve", _run_solve, "closed-form bound-state solve"),
            ("certify", _run_certify, "numerical BIC certification"),
            ("spectrum", _run_spectrum, "photoassociation spectrum series"),
            ("sweep-eta", lambda a: _run_sweep(a, dense_default=False),
             "peak metrics across an eta list"),
            ("width-curve", lambda a: _run_sweep(a, dense_default=True),
             "width-vs-eta curve across a dense range"),
            ("derive", _run_derive, "microscopic couplings to parameters"),
            ("validate", _run_validate, "discretized resolvent-identity check"),
    ):
        p = sub.add_parser(name, parents=[common], help=blurb)
        p.set_defaults(handler=handler)
    p = sub.add_parser("reproduce", parents=[common],
                       help="run a bundled benchmark scenario")
    p.add_argument("target", choices=sorted(_REPRODUCERS))
    p.set_defaults(handler=_run_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BicLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for types, code in _EXIT_BY_ERROR:
            if isinstance(exc, types):
                return code
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
