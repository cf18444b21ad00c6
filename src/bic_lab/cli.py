"""Command-line front end: config ingestion, dispatch, deterministic output.

Subcommands
    dress        dressed-state summary from a magnetic working point
    solve        closed-form bound-state-in-continuum solve
    certify      numerical certification of a (near-)real eigenvalue
    spectrum     sampled photoassociation spectrum (columns E_tilde,S_n)
    sweep-eta    peak metrics across an eta list or an evenly spaced
                 eta_range (the width-vs-eta curve)
    derive       microscopic couplings -> dimensionless parameter set
    validate     discretized projected-resolvent identity check
    reproduce    bundled benchmark scenarios fig3 | fig4 | fig5

Tables (spectrum, sweep-eta, validate, reproduce) are CSV by default and
`{"rows": [{<column>: value, ...}, ...]}` under `--format json`, keyed by
the CSV header. Reports (dress, solve, certify, derive) are JSON by
default and one CSV row of `section.key` columns under `--format csv`.
JSON is strict: non-finite numbers are null. CSV numbers carry 17
significant digits, `,` separators and `\n` newlines, so identical inputs
give byte-identical files. The summary lines of validate and reproduce go
to stderr when the table goes to stdout, else to stdout; `--quiet` drops
them.

Exit codes: 0 success, else the ``exit_code`` of the error's class: 2
ValidationError (config or validation); 3 ConvergenceFailure, or an IO
failure; 4 Degenerate (an undefined point of the parameter manifold) and
the line failures NoPeak, MultiPeak, PoleHit and GainMode.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

import numpy as np

from . import __version__
from .bic import certify, solve_bic
from .discretized import GridSpec, discretize, resolvent_check
from .dressing import dress
from .errors import BicLabError, ValidationError, _require_counts, _require_finite
from .hamiltonian import build, eigensystem
from .microscopic import (CouplingModel, FlatCoupling, GaussianCoupling,
                          WignerCoupling, derive_couplings, to_dimensionless)
from .params import DimensionlessParams, validate
from .recipes import (FIG4_ETA_LIST, QUOTED, fig3_params, fig4_params,
                      fig5_eta_grid, fig5_params)
from .spectrum import LORENTZ_WIDTH_FACTOR, spectrum_series, sweep_eta

SWEEP_HEADER = ["eta", "E_peak", "height", "width", "re_E1", "im_E1"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _strict(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _emit_json(obj, path: str) -> None:
    """Write obj as strict JSON: non-finite floats become null."""
    text = json.dumps(_strict(obj), indent=2, sort_keys=True, allow_nan=False)
    _write(text + "\n", path)


def _emit_table(header: list[str], rows, args) -> None:
    """A table as deterministic CSV (17 significant digits, \\n), or under
    --format json as {"rows": [{<header>: value, ...}, ...]}."""
    if args.format == "json":
        _emit_json({"rows": [dict(zip(header, row)) for row in rows]}, args.out)
    else:
        _write("".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows]), args.out)


# ---------------------------------------------------------------------------
# config schema
#
# A schema maps each key of a section to (kind, default); the default
# `...` marks a required key, and a None default also accepts null. A
# kind is a reader `(value, where) -> value`, a nested schema, or a
# (tag, {tag value: (constructor, schema)}) pair for blocks whose keys
# depend on one of their values. Unknown keys are rejected at every level.

MAX_POINTS = 100_000   # grid.n_points
MAX_ETAS = 10_000      # sweep.eta_range.n
# 3 + n_e + 2*n_k: `validate` factors the sparse n x n z - H once per
# probe; at 2000 states its 8 probes take 8-16 ms on a 2-core host and
# raise the peak resident memory about 4.5 MB above the built model
MAX_STATES = 2_000


def _number(value, where: str) -> float:
    """A finite real number, by the library's number rule."""
    return _require_finite(**{where: value})[0]


def _integer(value, where: str, least=None, most=None) -> int:
    """A count, by the library's count rule; JSON's integral floats (11.0) count too."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    _require_counts(**{where: value})
    if least is not None and value < least:
        raise ValidationError(f"{where}: must be >= {least} ({value!r})")
    if most is not None and value > most:
        raise ValidationError(f"{where}: must be <= {most} ({value!r})")
    return value


def _array(item):
    """A JSON array, each entry read by item; an empty one is its consumer's to refuse."""
    def read(value, where: str) -> list:
        if not isinstance(value, list):
            raise ValidationError(f"{where}: must be an array")
        return [item(x, f"{where}[{i}]") for i, x in enumerate(value)]
    return read


def _pair(value, where: str, names: str) -> list[float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"{where}: must be [{names}]")
    return [_number(x, f"{where}[{i}]") for i, x in enumerate(value)]


def _complex(value, where: str) -> complex:
    return complex(*_pair(value, where, "re, im"))


def _read(value, kind, where: str, command: str):
    """Check one config value against its kind; return the checked value."""
    if callable(kind):
        return kind(value, where)
    if isinstance(kind, tuple):
        tag, variants = kind
        choice = value.get(tag) if isinstance(value, dict) else None
        if not isinstance(choice, str) or choice not in variants:
            raise ValidationError(f"{where}.{tag}: must be one of "
                                  f"{sorted(variants)} ({choice!r})")
        make, schema = variants[choice]
        rest = {k: v for k, v in value.items() if k != tag}
        return make(**_read(rest, schema, where, command))
    # a section; top-level sections are named without the "config." prefix
    where = where.removeprefix("config.")
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: must be an object")
    unknown = sorted(set(value) - set(kind))
    if unknown:
        raise ValidationError(f"{where}: unknown keys for {command}: {', '.join(unknown)}")
    checked = {}
    for key, (sub, default) in kind.items():
        item = value.get(key, default)
        if item is ...:
            raise ValidationError(f"{where}.{key}: required")
        checked[key] = (None if item is None and default is None
                        else _read(item, sub, f"{where}.{key}", command))
    return checked


_COUPLING = ("shape", {
    "gaussian": (GaussianCoupling,
                 dict.fromkeys(("amplitude", "center", "width"), (_number, ...))),
    "wigner": (WignerCoupling, dict.fromkeys(("amplitude", "scale"), (_number, ...))),
    "flat": (FlatCoupling, {"amplitude": (_number, ...)}),
})
# the couplings and scalars of a CouplingModel, without its PV cutoff e_max
_MODEL = {
    **dict.fromkeys(("lambda1", "lambda2", "v3"), (_COUPLING, ...)),
    **dict.fromkeys(("v1f", "v2f", "omega13", "omega23", "e3", "dipole_overlap"),
                    (_number, ...)),
}
_SOLVE_PARAMS = {
    **dict.fromkeys(("g1", "g2", "q1", "q2", "delta", "gamma1", "gamma2"), (_number, ...)),
    "inv_kca": (_number, 0.0)}
# a full DimensionlessParams: solve's inputs plus the detunings and both coherences
_PARAMS = {"params": ({**_SOLVE_PARAMS, **dict.fromkeys(("delta1", "delta2"), (_number, ...)),
                       **dict.fromkeys(("g12", "eta"), (_number, None))}, ...),
           # validate refuses a mode outside VALIDATION_MODES
           "validation_mode": (lambda mode, where: mode, "permissive")}
_SWEEP = {"eta_list": (_array(_number), None),
          "eta_range": ({"start": (_number, ...), "stop": (_number, ...),
                         "n": (partial(_integer, least=2, most=MAX_ETAS), ...)}, None),
          "window": (partial(_pair, names="lo, hi"), None), "channel": (_integer, 1)}
_CONFIGS = {
    "dress": {"dressing": ({"omega_m": (_number, ...), "delta_m": (_number, ...),
                            "gamma1_bare": (_number, None),
                            "gamma2_bare": (_number, None)}, ...)},
    "solve": {"params": (_SOLVE_PARAMS, ...)},
    "certify": _PARAMS,
    "spectrum": {**_PARAMS, "grid": ({
        "e_min": (_number, ...), "e_max": (_number, ...),
        "n_points": (partial(_integer, most=MAX_POINTS), 601), "channel": (_integer, 1)}, ...)},
    "sweep-eta": {**_PARAMS, "sweep": (_SWEEP, ...)},
    "derive": {"microscopic": ({
        **_MODEL, "e_max": (_number, None),
        "e1": (_number, 0.0), "e2": (_number, 0.0)}, ...)},
    "validate": {"microscopic": (_MODEL, ...), "oracle": ({
        "e_min": (_number, ...), "e_max": (_number, ...), "n_e": (_integer, ...),
        **dict.fromkeys(("k_min", "k_max", "e1_rot", "e2_rot"), (_number, 0.0)),
        "n_k": (_integer, 0), "probes": (_array(_complex), None)}, ...)},
}


def _load_config(args) -> dict:
    """The --config file, checked against the subcommand's schema."""
    if not args.config:
        raise ValidationError(f"subcommand '{args.subcommand}' requires --config")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {args.config}")
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"config is not valid JSON: {exc}")
    cfg = _read(cfg, _CONFIGS[args.subcommand], "config", args.subcommand)
    if "validation_mode" in cfg:
        cfg["params"] = validate(DimensionlessParams(**cfg["params"]),
                                 mode=cfg["validation_mode"])
    return cfg


# ---------------------------------------------------------------------------
# subcommand handlers: each gets the checked config and the parsed arguments


def _emit_record(record: dict, args) -> None:
    """One record as JSON, or as a one-row CSV whose nested sections
    become `section.key` columns."""
    if (args.format or "json") == "json":
        _emit_json(record, args.out)
        return
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    _emit_table(list(flat), [["" if v is None else v for v in flat.values()]], args)


def _run_dress(cfg: dict, args) -> None:
    pair = dress(**cfg["dressing"])
    _emit_record({"theta": pair.theta, "cos_theta": math.cos(pair.theta),
                  "sin_theta": math.sin(pair.theta), "splitting": pair.splitting,
                  "feasibility": pair.feasibility}, args)


def _run_solve(cfg: dict, args) -> None:
    sol = solve_bic(**cfg["params"])
    _emit_record({"lambda": sol.lam, "delta1": sol.params.delta1, "delta2": sol.params.delta2,
                  "eta": sol.params.eta, "x1": float(sol.x[0]),
                  "x2": float(sol.x[1]), "c": sol.c,
                  "residual_a": sol.residual_a, "residual_b": sol.residual_b}, args)


def _run_certify(cfg: dict, args) -> None:
    report = certify(cfg["params"])
    lam = report.eigenvalue
    _emit_record({"is_bic": report.is_bic, "min_abs_im": abs(lam.imag), "lambda_est": lam.real,
                  "re_E1": lam.real, "im_E1": lam.imag, "residual_b": report.residual_b,
                  "vic_residual": report.vic_residual}, args)


def _run_spectrum(cfg: dict, args) -> None:
    series = spectrum_series(cfg["params"], **cfg["grid"])
    _emit_table(["E_tilde", "S_n"], zip(series.grid.tolist(), series.values.tolist()), args)


def _sweep_rows(result) -> list[list]:
    return [[pt.eta, *((pt.metrics.e_peak, pt.metrics.height, pt.metrics.width_w)
                       if pt.metrics else (math.nan,) * 3),
             float(pt.eigenvalues[0].real), pt.im_e1]
            for pt in result.points]


def _run_sweep(cfg: dict, args) -> None:
    params, sweep = cfg["params"], cfg["sweep"]
    etas, rng = sweep.pop("eta_list"), sweep.pop("eta_range")
    if (etas is None) == (rng is None):
        raise ValidationError("sweep: needs exactly one of 'eta_list' and 'eta_range'")
    if etas is None:
        with np.errstate(all="ignore"):  # an overflowed eta fails validate below
            etas = np.linspace(rng["start"], rng["stop"], rng["n"]).tolist()
    # every swept set is computed, so every one meets the chosen mode
    for eta in etas:
        validate(params.replace(eta=eta), mode=cfg["validation_mode"])
    _emit_table(SWEEP_HEADER, _sweep_rows(sweep_eta(params, etas, **sweep)), args)


def _run_derive(cfg: dict, args) -> None:
    micro = cfg["microscopic"]
    model = CouplingModel(e_max=micro.pop("e_max"), **{k: micro.pop(k) for k in _MODEL})
    res = derive_couplings(model)
    # what is left are the two rotating-frame energies e1, e2
    params = to_dimensionless(res, model, **micro)
    _emit_record({
        "microscopic": {
            "E_sh_1": res.e_sh_1, "E_sh_2": res.e_sh_2, "E_sh_F": res.e_sh_f,
            "alpha": res.alpha, "beta1": res.beta1, "beta2": res.beta2,
            "Gamma_1": res.gamma_1, "Gamma_2": res.gamma_2, "Gamma_F": res.gamma_f,
            "gamma_LIC": res.gamma_lic, "Gamma_1F": res.gamma_1f,
            "Gamma_2F": res.gamma_2f, "gamma_1": res.gamma1_sp,
            "gamma_2": res.gamma2_sp, "gamma_VIC": res.gamma_vic,
        },
        "params": params.as_dict(),
    }, args)


def _run_validate(cfg: dict, args) -> None:
    model = CouplingModel(**cfg["microscopic"])
    oracle = cfg["oracle"]
    if 3 + oracle["n_e"] + 2 * oracle["n_k"] > MAX_STATES:
        raise ValidationError(f"oracle: 3 + n_e + 2*n_k must be <= {MAX_STATES}")
    probes = oracle.pop("probes")
    rotation = {k: oracle.pop(k) for k in ("e1_rot", "e2_rot")}
    report = resolvent_check(discretize(model, GridSpec(**oracle), **rotation), probes)
    rows = [[z.real, z.imag, dev] for z, dev in zip(report.probes, report.deviations)]
    _emit_table(["z_re", "z_im", "max_dev"], rows, args)
    _print_summary([f"max deviation over {len(rows)} probes: "
                    f"{report.max_deviation:.3e}"], args)


# ---------------------------------------------------------------------------
# reproduce


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


def _reproduce_fig3(args) -> None:
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
    _emit_table(["case", "E_tilde", "S_1"], rows, args)

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


def _reproduce_fig4(args) -> None:
    quoted = QUOTED["fig4"]
    params = fig4_params()
    result = sweep_eta(params, FIG4_ETA_LIST)
    _emit_table(SWEEP_HEADER, _sweep_rows(result), args)

    lines = []
    by_eta = {pt.eta: pt for pt in result.points}
    e1_top = by_eta[1.0]
    lines.append(_abs_line("fig4 Re E1(eta=1)", float(e1_top.eigenvalues[0].real),
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
        w, est = pt.metrics.width_w, LORENTZ_WIDTH_FACTOR * abs(pt.im_e1)
        lines.append(
            f"FLAG fig4 W(eta=0.999): measured={w:.6g} quoted="
            f"{quoted['widths'][0.999]:.6g}; the quoted value conflicts with "
            f"the quoted Im E1=-1e-3 (1/e pole width 2*sqrt(e-1)*|Im E1|={est:.4g}); "
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


def _reproduce_fig5(args) -> None:
    quoted = QUOTED["fig5"]
    etas = [float(x) for x in fig5_eta_grid()]
    result = sweep_eta(fig5_params(), etas)
    _emit_table(SWEEP_HEADER, _sweep_rows(result), args)

    lines = []
    # the grid holds the quoted etas 0.9 and 0.99 exactly; 0.999 is swept alone
    by_eta = {pt.eta: pt for pt in result.points + sweep_eta(fig5_params(), [0.999]).points}
    for eta, want in sorted(quoted["widths"].items()):
        pt = by_eta[eta]
        if pt.metrics is None:
            lines.append(f"FLAG fig5 W(eta={pt.eta:.4g}): {pt.error}")
        elif pt.eta == 0.999:
            lines.append(
                f"FLAG fig5 W(eta={pt.eta:.4g})={pt.metrics.width_w:.6g} vs "
                f"quoted {want:.6g} (known internal inconsistency, report-only)")
        else:
            lines.append(_ratio_line(f"fig5 W(eta={pt.eta:.4g})",
                                     pt.metrics.width_w, want, 3.0))
    widths = result.widths()
    missing = [eta for eta, w in zip(etas, widths) if w is None]
    seq = [w for w in widths if w is not None]
    decreasing = not missing and all(a > b for a, b in zip(seq, seq[1:]))
    line = (("PASS" if decreasing else "FLAG")
            + " fig5 W(eta) strictly decreasing toward eta=1 over [0.9, 1]")
    if missing:
        line += "; no width at eta=" + ", ".join(f"{e:.6g}" for e in missing)
    lines.append(line)
    _print_summary(lines, args)


def _print_summary(lines: list[str], args) -> None:
    if not args.quiet:
        out = sys.stderr if args.out == "-" else sys.stdout
        for line in lines:
            print(line, file=out)


_REPRODUCERS = {"fig3": _reproduce_fig3, "fig4": _reproduce_fig4,
                "fig5": _reproduce_fig5}


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    configured = argparse.ArgumentParser(add_help=False)  # the subcommands in _CONFIGS
    configured.add_argument("--config", help="JSON config file")
    common = argparse.ArgumentParser(add_help=False)
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
            ("sweep-eta", _run_sweep, "peak metrics across an eta list or range"),
            ("derive", _run_derive, "microscopic couplings to parameters"),
            ("validate", _run_validate, "discretized resolvent-identity check"),
    ):
        p = sub.add_parser(name, parents=[configured, common], help=blurb)
        p.set_defaults(handler=handler)
    p = sub.add_parser("reproduce", parents=[common],
                       help="run a bundled benchmark scenario")
    p.add_argument("target", choices=sorted(_REPRODUCERS))
    p.set_defaults(handler=lambda cfg, args: _REPRODUCERS[args.target](args))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args) if args.subcommand in _CONFIGS else None
        args.handler(cfg, args)
        return 0
    except BicLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
