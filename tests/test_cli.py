from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from bic_lab import __version__, errors
from bic_lab.cli import MAX_STATES, SWEEP_HEADER, _ratio_line, main
from bic_lab.hamiltonian import build, eigensystem
from bic_lab.recipes import fig3_params, fig4_params, fig5_params
from bic_lab.spectrum import EtaSweepResult, sweep_eta


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def gaussian_model_cfg():
    return {
        "microscopic": {
            "lambda1": {"shape": "gaussian", "amplitude": 0.16, "center": 1.25, "width": 0.45},
            "lambda2": {"shape": "gaussian", "amplitude": 0.12, "center": 0.85, "width": 0.55},
            "v3": {"shape": "gaussian", "amplitude": 0.20, "center": 1.05, "width": 0.60},
            "v1f": 0.05, "v2f": 0.04,
            "omega13": 0.05, "omega23": -0.03,
            "e3": 1.0, "dipole_overlap": 0.8,
        },
    }


def strict_loads(text):
    """json.loads that rejects NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_dress_json_and_csv(tmp_path):
    cfg = write_cfg(tmp_path, "dress.json", {
        "dressing": {"omega_m": 50.0, "delta_m": 10.0,
                     "gamma1_bare": 6.0, "gamma2_bare": 4.0}})
    out = tmp_path / "dress.json.out"
    assert main(["dress", "--config", cfg, "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["theta"] == pytest.approx(0.686700383472508)
    assert rec["splitting"] == pytest.approx(50.99019513592785)
    # splitting / sqrt(gamma1_bare * gamma2_bare) = 50.990 / sqrt(24)
    assert rec["feasibility"] == pytest.approx(10.408329997330664)
    assert rec["cos_theta"] == pytest.approx(math.cos(rec["theta"]))
    assert rec["sin_theta"] == pytest.approx(math.sin(rec["theta"]))
    assert rec["cos_theta"] ** 2 + rec["sin_theta"] ** 2 == pytest.approx(1.0, rel=1e-15)

    out_csv = tmp_path / "dress.csv"
    assert main(["dress", "--config", cfg, "--format", "csv",
                 "--out", str(out_csv)]) == 0
    header, row = out_csv.read_text().splitlines()
    assert header.split(",")[0] == "theta"
    assert float(row.split(",")[0]) == pytest.approx(0.686700383472508)


@pytest.mark.parametrize("width", [1e-308, 5e-324])
def test_dress_with_tiny_widths_has_an_unbounded_feasibility(tmp_path, capsys, width):
    # gamma1_bare * gamma2_bare underflowed to 0: a ZeroDivisionError traceback
    command, payload = _dress_cfg(omega_m=1e308, delta_m=1e308,
                                  gamma1_bare=width, gamma2_bare=width)
    assert main([command, "--config", write_cfg(tmp_path, "dress.json", payload)]) == 0
    rec = strict_loads(capsys.readouterr().out)
    assert rec["feasibility"] is None  # inf, which strict JSON writes as null
    assert rec["splitting"] == math.hypot(1e308, 1e308)


def test_solve_frozen_example(tmp_path):
    cfg = write_cfg(tmp_path, "solve.json", {
        "params": {"g1": 3.0, "g2": 2.0, "q1": -0.8, "q2": 0.54,
                   "delta": 0.1, "gamma1": 1.0, "gamma2": 1.0}})
    out = tmp_path / "solve.out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["lambda"] == pytest.approx(6.762316255329463, rel=1e-14)
    assert rec["delta1"] == pytest.approx(6.421908049556006, rel=1e-14)
    assert rec["delta2"] == pytest.approx(6.6195917942265465, rel=1e-14)
    assert rec["residual_a"] < 1e-13
    assert rec["residual_b"] < 1e-13


def test_solve_degenerate_exit_code(tmp_path, capsys):
    # g1/g2 = gamma1/gamma2 leaves the decay-free direction undefined
    cfg = write_cfg(tmp_path, "bad.json", {
        "params": {"g1": 2.0, "g2": 1.0, "q1": 0.1, "q2": 0.2,
                   "delta": 0.0, "gamma1": 0.5, "gamma2": 0.25}})
    assert main(["solve", "--config", cfg]) == 4
    assert capsys.readouterr().err.startswith(
        "error: g1/g2 = gamma1/gamma2 leaves the decay-free direction undefined")


def test_solve_at_g1_zero_exits_0(tmp_path, capsys):
    # the first laser off: a bound state at lambda = -q2 = -0.54
    command, payload = _solve_cfg(g1=0.0)
    assert main([command, "--config", write_cfg(tmp_path, "solve.json", payload)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["lambda"] == -0.54


def test_solve_takes_no_g12(tmp_path, capsys):
    # solve derives g12 = sqrt(g1*g2), the only value with a bound state
    command, payload = _solve_cfg(g12=2.4)
    assert main([command, "--config", write_cfg(tmp_path, "solve.json", payload)]) == 2
    assert capsys.readouterr() == ("", "error: params: unknown keys for solve: g12\n")


def test_certify_deviated_reference(tmp_path):
    cfg = write_cfg(tmp_path, "cert.json",
                    {"params": fig3_params().as_dict()})
    out = tmp_path / "cert.out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["is_bic"] is False
    assert rec["min_abs_im"] == pytest.approx(1.1427791e-4, rel=1e-5)
    assert rec["lambda_est"] == pytest.approx(1.2944198519681624, rel=1e-10)


def test_certify_csv_writes_bools_as_json_does(tmp_path):
    cfg = write_cfg(tmp_path, "cert.json", {"params": fig3_params().as_dict()})
    as_json, as_csv = tmp_path / "cert.json.out", tmp_path / "cert.csv"
    assert main(["certify", "--config", cfg, "--out", str(as_json)]) == 0
    assert main(["certify", "--config", cfg, "--format", "csv", "--out", str(as_csv)]) == 0
    with open(as_csv, newline="") as fh:
        header, row = csv.reader(fh)
    cell = row[header.index("is_bic")]
    assert cell == json.dumps(json.loads(as_json.read_text())["is_bic"]) == "false"


def test_certify_validation_mode_rejects(tmp_path):
    bad = fig3_params(gamma=0.01, eta=0.02).as_dict()  # eta above bound
    cfg = write_cfg(tmp_path, "cert2.json",
                    {"params": bad, "validation_mode": "physical"})
    assert main(["certify", "--config", cfg]) == 2


def test_spectrum_csv_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "spec.json", {
        "params": fig3_params().as_dict(),
        "grid": {"e_min": 0.5, "e_max": 2.5, "n_points": 51}})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.splitlines()
    assert lines[0] == "E_tilde,S_n"
    assert len(lines) >= 52
    for row in lines[1:]:
        e, s = row.split(",")
        assert float(s) >= 0.0


def test_spectrum_stdout_default(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "spec.json", {
        "params": fig4_params().as_dict(),
        "grid": {"e_min": 6.0, "e_max": 7.5, "n_points": 11}})
    assert main(["spectrum", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("E_tilde,S_n\n")


def test_sweep_eta_csv(tmp_path):
    cfg = write_cfg(tmp_path, "sweep.json", {
        "params": fig4_params().as_dict(),
        "sweep": {"eta_list": [1.0, 0.9]}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep-eta", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(lines[2].split(",")[0]) == 0.9
    # widths positive, least-damped mode recorded
    assert float(first[3]) > 0.0
    assert float(first[5]) < 0.0


def test_sweep_eta_json_format(tmp_path):
    cfg = write_cfg(tmp_path, "sweep.json", {
        "params": fig4_params().as_dict(),
        "sweep": {"eta_list": [0.9]}})
    out = tmp_path / "sweep.json.out"
    assert main(["sweep-eta", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert set(rec["rows"][0]) == set(SWEEP_HEADER)


def test_sweep_eta_json_is_strict(tmp_path):
    # eta = 0.9675 of the fig5 set is a MultiPeak point: its metrics are null
    cfg = write_cfg(tmp_path, "sweep.json", {
        "params": fig5_params().as_dict(),
        "sweep": {"eta_list": [0.9675, 1.0]}})
    out = tmp_path / "sweep.json.out"
    assert main(["sweep-eta", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    rows = strict_loads(out.read_text())["rows"]
    assert [rows[0][k] for k in ("E_peak", "height", "width")] == [None] * 3
    assert all(isinstance(v, float) for v in rows[1].values())


def test_sweep_eta_range(tmp_path):
    cfg = write_cfg(tmp_path, "curve.json", {
        "params": fig4_params().as_dict(),
        "sweep": {"eta_range": {"start": 0.9, "stop": 1.0, "n": 3}}})
    out = tmp_path / "curve.csv"
    assert main(["sweep-eta", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert [float(r.split(",")[0]) for r in lines[1:]] == [0.9, 0.95, 1.0]
    widths = [float(r.split(",")[3]) for r in lines[1:]]
    assert widths[0] > widths[1] > widths[2]


def test_sweep_eta_range_takes_its_least_n(tmp_path):
    # n = 2 is the smallest range: its two ends
    cfg = write_cfg(tmp_path, "curve.json", {
        "params": fig4_params().as_dict(),
        "sweep": {"eta_range": {"start": 0.9, "stop": 1.0, "n": 2}}})
    out = tmp_path / "curve.csv"
    assert main(["sweep-eta", "--config", cfg, "--out", str(out)]) == 0
    assert [float(r.split(",")[0]) for r in out.read_text().splitlines()[1:]] == [0.9, 1.0]


def test_width_curve_subcommand_is_gone(capsys):
    # the width-vs-eta curve is sweep-eta with an eta_range
    with pytest.raises(SystemExit) as exc:
        main(["width-curve"])
    assert exc.value.code == 2
    assert "invalid choice: 'width-curve'" in capsys.readouterr().err


def test_unknown_channel_is_a_config_error(tmp_path, capsys):
    sweep = write_cfg(tmp_path, "sweep.json", {
        "params": fig4_params().as_dict(),
        "sweep": {"eta_list": [0.9], "channel": 3}})
    spec = write_cfg(tmp_path, "spec.json", {
        "params": fig4_params().as_dict(),
        "grid": {"e_min": 6.0, "e_max": 7.5, "n_points": 11, "channel": 3}})
    for argv in (["sweep-eta", "--config", sweep], ["spectrum", "--config", spec]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: channel must be 1 or 2")


def test_validation_mode_covers_every_swept_eta(tmp_path, capsys):
    # eta=5 > sqrt(gamma1*gamma2) turns E1 into a gain mode (Im E1 > 0),
    # which the permissive mode computes but records as a per-point error
    payload = {"params": fig4_params().as_dict(),
               "sweep": {"eta_list": [0.9, 5.0]}}
    cfg = write_cfg(tmp_path, "phys.json", dict(payload, validation_mode="physical"))
    assert main(["sweep-eta", "--config", cfg]) == 2
    assert "eta=5.0 exceeds" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, "perm.json", payload)
    assert main(["sweep-eta", "--config", cfg]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.9, 5.0]
    widths = sweep_eta(fig4_params(), [0.9, 5.0]).widths()
    assert float(rows[0][3]) == widths[0]
    assert widths[1] is None and math.isnan(float(rows[1][3]))
    assert float(rows[1][5]) > 0.0


def test_sweep_requires_eta_spec(tmp_path):
    cfg = write_cfg(tmp_path, "sweep.json", {
        "params": fig4_params().as_dict(), "sweep": {}})
    assert main(["sweep-eta", "--config", cfg]) == 2


def test_derive_reference_model(tmp_path):
    cfg = write_cfg(tmp_path, "derive.json", gaussian_model_cfg())
    out = tmp_path / "derive.out"
    assert main(["derive", "--config", cfg, "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["microscopic"]["Gamma_F"] == pytest.approx(0.249588129202350, rel=1e-9)
    assert rec["params"]["g1"] == pytest.approx(0.473319504421516, rel=1e-9)
    assert rec["params"]["inv_kca"] == pytest.approx(-7.916933607665830, rel=1e-9)


def test_derive_rotating_energies_default_to_zero(tmp_path, capsys):
    outputs = []
    for extra in ({}, {"e1": 0.0, "e2": 0.0}):
        cfg = gaussian_model_cfg()
        cfg["microscopic"].update(extra)
        assert main(["derive", "--config", write_cfg(tmp_path, "derive.json", cfg)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_derive_divergent_tail_exit_code(tmp_path):
    cfg = gaussian_model_cfg()
    cfg["microscopic"]["v3"] = {"shape": "flat", "amplitude": 0.1}
    # flat coupling with no e_max: the PV tail never converges
    path = write_cfg(tmp_path, "flat.json", cfg)
    assert main(["derive", "--config", path]) == 3


def test_validate_resolvent(tmp_path):
    cfg = gaussian_model_cfg()
    cfg["oracle"] = {"e_min": 0.0, "e_max": 4.5, "n_e": 60,
                     "k_min": 0.0, "k_max": 3.0, "n_k": 30}
    path = write_cfg(tmp_path, "val.json", cfg)
    out = tmp_path / "val.csv"
    assert main(["validate", "--config", path, "--quiet",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z_re,z_im,max_dev"
    assert len(lines) == 9
    assert all(float(r.split(",")[2]) < 1e-10 for r in lines[1:])


def test_validate_at_the_state_cap(tmp_path):
    cfg = gaussian_model_cfg()
    cfg["oracle"] = {"e_min": 0.0, "e_max": 4.5, "n_e": 997,
                     "k_min": 0.0, "k_max": 3.0, "n_k": 500}
    assert 3 + 997 + 2 * 500 == MAX_STATES
    path = write_cfg(tmp_path, "cap.json", cfg)
    out = tmp_path / "cap.csv"
    assert main(["validate", "--config", path, "--quiet", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 8
    assert all(float(r.split(",")[2]) < 1e-10 for r in rows)


def test_validate_grid_coverage_exit_code(tmp_path, capsys):
    cfg = gaussian_model_cfg()
    cfg["oracle"] = {"e_min": 0.0, "e_max": 2.0, "n_e": 40}
    path = write_cfg(tmp_path, "val2.json", cfg)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: collision grid misses 9.211e-03 of |lambda1|^2 (tolerance 1.0e-08)\n")


def test_missing_config_exit_code(capsys):
    assert main(["certify"]) == 2
    assert "config" in capsys.readouterr().err


def test_config_not_found_exit_code(tmp_path):
    assert main(["certify", "--config", str(tmp_path / "nope.json")]) == 2


def test_config_invalid_json_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["certify", "--config", str(path)]) == 2


def test_dress_degenerate_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "deg.json", {
        "dressing": {"omega_m": 0.0, "delta_m": 0.0}})
    assert main(["dress", "--config", cfg]) == 4


def test_reproduce_fig5_flags_rows_without_width(tmp_path, capsys):
    # eta = 0.9675 is a MultiPeak row: monotonicity cannot pass over a gap
    assert main(["reproduce", "fig5", "--out", str(tmp_path / "fig5.csv")]) == 0
    summary = capsys.readouterr().out.splitlines()
    line = next(s for s in summary if "strictly decreasing" in s)
    assert line.startswith("FLAG fig5 W(eta) strictly decreasing")
    assert line.endswith("; no width at eta=0.9675")


def test_reproduce_fig4_flag_quotes_the_1_over_e_pole_width(tmp_path, capsys):
    # the measured 1/e width 0.002452 is compared with the 1/e pole width
    # 2*sqrt(e-1)*|Im E1|, not with the FWHM 2|Im E1| = 0.001904
    assert main(["reproduce", "fig4", "--out", str(tmp_path / "fig4.csv")]) == 0
    summary = capsys.readouterr().out.splitlines()
    line = next(s for s in summary if s.startswith("FLAG fig4 W(eta=0.999)"))
    assert "measured=0.00245163" in line
    assert "1/e pole width 2*sqrt(e-1)*|Im E1|=0.002496" in line


def test_reproduce_fig4_reports_e1_and_the_trace_of_the_computed_triple(tmp_path, capsys):
    # Re E1 is the least-damped eigenvalue's, and tr B = sum Im E_k of the
    # triple at eta = 1, which is -(1 + g1 + g2 + gamma1 + gamma2) = -8.01
    assert main(["reproduce", "fig4", "--out", str(tmp_path / "fig4.csv")]) == 0
    summary = capsys.readouterr().out.splitlines()
    trio = eigensystem(build(fig4_params().replace(eta=1.0))).eigenvalues
    line = next(s for s in summary if "fig4 Re E1(eta=1):" in s)
    assert line.startswith(f"PASS fig4 Re E1(eta=1): measured={trio[0].real:.6g} quoted=6.763 ")
    line = next(s for s in summary if s.startswith("FLAG fig4 quoted E2="))
    assert f"tr B = {trio.imag.sum():.6g}; " in line
    assert "tr B = -8.01; " in line


@pytest.mark.parametrize("widths, verdict", [
    (list(range(41, 0, -1)), "PASS"),
    # a rise between neighbours, which a check of every second pair misses
    ([41, 40, 38, 39, *range(37, 0, -1)], "FLAG"),
    # a tie between neighbours is no strict decrease
    ([41, 40, 40, *range(39, 1, -1)], "FLAG"),
], ids=["decreasing", "rise", "tie"])
def test_reproduce_fig5_checks_every_pair_of_neighbours(monkeypatch, tmp_path, capsys,
                                                          widths, verdict):
    monkeypatch.setattr(EtaSweepResult, "widths", lambda self: widths)
    assert main(["reproduce", "fig5", "--out", str(tmp_path / "fig5.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"{verdict} fig5 W(eta) strictly decreasing toward eta=1 over [0.9, 1]")


@pytest.mark.parametrize("measured,quoted", [(0.0, 1e-6), (1e-6, 0.0), (-1e-3, 1e-3)])
def test_ratio_line_flags_a_sign_or_zero_mismatch(measured, quoted):
    # no ratio is taken: a zero or a flipped sign is flagged as such
    assert _ratio_line("W", measured, quoted, 10.0) == (
        f"FLAG W: measured={measured:.6g} quoted={quoted:.6g} (sign/zero mismatch)")


def test_unknown_reproduce_target_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig9"])
    assert exc.value.code == 2


def _spectrum_cfg(**grid):
    return ("spectrum", {"params": fig4_params().as_dict(),
                         "grid": dict({"e_min": 6.0, "e_max": 7.5, "n_points": 11}, **grid)})


def test_gain_mode_spectrum_exits_4(tmp_path, capsys):
    # eta = 3 > sqrt(gamma1*gamma2) = 1 passes the permissive mode, and the
    # least-damped mode of the set grows: no spectrum to sample
    command, payload = _spectrum_cfg()
    payload = dict(payload, params=dict(payload["params"], eta=3.0),
                   validation_mode="permissive")
    assert main([command, "--config", write_cfg(tmp_path, "gain.json", payload)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: least-damped eigenvalue")
    assert captured.err.count("\n") == 1


def test_gain_mode_certify_exits_4_as_spectrum_does(tmp_path, capsys):
    # the eigenvalue of this set nearest the real axis is damped, and the
    # least-damped one grows: certify refuses the set with spectrum's error
    _, payload = _spectrum_cfg()
    payload = dict(payload, params=dict(payload["params"], eta=3.0))
    errors = []
    for command, cfg in (("certify", {"params": payload["params"]}), ("spectrum", payload)):
        assert main([command, "--config", write_cfg(tmp_path, "gain.json", cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: least-damped eigenvalue (6.7194")


def test_reproduce_takes_no_config(capsys):
    # only the subcommands with a config schema offer --config
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig4", "--config", "/nonexistent.json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --config /nonexistent.json" in captured.err


def test_every_library_error_has_an_exit_code():
    # the CLI's contract, class by class: a class added without a
    # deliberate code fails here instead of silently exiting 3
    want = {"BicLabError": 3, "ValidationError": 2, "ConvergenceFailure": 3,
            **dict.fromkeys(("Degenerate", "NoPeak", "MultiPeak", "PoleHit", "GainMode"), 4)}
    defined = {name: c.exit_code for name, c in vars(errors).items()
               if isinstance(c, type) and issubclass(c, errors.BicLabError)}
    assert defined == want


def _sweep_cfg(**sweep):
    """A sweep-eta config; eta_list=None drops the default eta list."""
    block = {k: v for k, v in dict({"eta_list": [0.9]}, **sweep).items() if v is not None}
    return ("sweep-eta", {"params": fig4_params().as_dict(), "sweep": block})


def _validate_cfg(**oracle):
    cfg = gaussian_model_cfg()
    cfg["oracle"] = dict({"e_min": 0.0, "e_max": 4.5, "n_e": 60}, **oracle)
    return ("validate", cfg)


@pytest.mark.parametrize("command,payload,message", [
    (*_spectrum_cfg(channel="x"), "grid.channel must be an integer, got 'x'"),
    (*_spectrum_cfg(channel=1.5), "grid.channel must be an integer, got 1.5"),
    (*_spectrum_cfg(channel=True), "grid.channel must be an integer, got True"),
    (*_spectrum_cfg(n_points=2.9), "grid.n_points must be an integer, got 2.9"),
    (*_spectrum_cfg(n_points="11"), "grid.n_points must be an integer, got '11'"),
    (*_spectrum_cfg(n_points=False), "grid.n_points must be an integer, got False"),
    (*_spectrum_cfg(n_points=float("inf")), "grid.n_points must be an integer, got inf"),
    (*_sweep_cfg(channel="x"), "sweep.channel must be an integer, got 'x'"),
    (*_sweep_cfg(channel=[1]), "sweep.channel must be an integer, got [1]"),
    (*_sweep_cfg(eta_list=None, eta_range={"start": 0.9, "stop": 1.0, "n": 3.5}),
     "sweep.eta_range.n must be an integer, got 3.5"),
    (*_validate_cfg(n_e=40.5), "oracle.n_e must be an integer, got 40.5"),
    (*_validate_cfg(n_k="30"), "oracle.n_k must be an integer, got '30'"),
])
def test_integer_fields_reject_non_integers(tmp_path, capsys, command, payload, message):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_integer_fields_accept_integral_floats(tmp_path, capsys):
    command, payload = _spectrum_cfg(n_points=11.0, channel=2.0)
    assert main([command, "--config", write_cfg(tmp_path, "a.json", payload)]) == 0
    as_float = capsys.readouterr().out
    command, payload = _spectrum_cfg(n_points=11, channel=2)
    assert main([command, "--config", write_cfg(tmp_path, "b.json", payload)]) == 0
    assert capsys.readouterr().out == as_float


@pytest.mark.parametrize("command,payload,message", [
    (*_spectrum_cfg(e_min=float("nan")), "grid.e_min=nan is not finite"),
    (*_spectrum_cfg(e_max=float("inf")), "grid.e_max=inf is not finite"),
    (*_sweep_cfg(eta_list=["x"]), "sweep.eta_list[0]='x' is not a real number"),
    (*_sweep_cfg(eta_list=[0.9, float("nan")]), "sweep.eta_list[1]=nan is not finite"),
    (*_sweep_cfg(eta_list=[None]), "sweep.eta_list[0]=None is not a real number"),
    (*_sweep_cfg(window=["a", 7.0]), "sweep.window[0]='a' is not a real number"),
    (*_sweep_cfg(window=[6.0, float("inf")]), "sweep.window[1]=inf is not finite"),
    (*_sweep_cfg(window=[7.0, 6.0]), "empty window (7.0, 6.0)"),
    (*_sweep_cfg(eta_list=None, eta_range={"start": float("nan"), "stop": 1.0, "n": 3}),
     "sweep.eta_range.start=nan is not finite"),
    # certify has no tolerance: a key that was one is an unknown key
    ("certify", {"params": fig4_params().as_dict(), "tol_im": "x"},
     "config: unknown keys for certify: tol_im"),
    ("certify", {"params": dict(fig4_params().as_dict(), g12="x")},
     "params.g12='x' is not a real number"),
    ("derive", {"microscopic": dict(gaussian_model_cfg()["microscopic"], e_max=float("nan"))},
     "microscopic.e_max=nan is not finite"),
    # the range's step overflows: its etas are NaN, printed as plain floats
    (*_sweep_cfg(eta_list=None, eta_range={"start": -1.7e308, "stop": 1.7e308, "n": 3}),
     "eta=nan is not finite"),
])
def test_non_finite_or_non_numeric_floats_are_config_errors(tmp_path, capsys, command,
                                                             payload, message):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def _solve_cfg(**params):
    base = {"g1": 3.0, "g2": 2.0, "q1": -0.8, "q2": 0.54, "delta": 0.1,
            "gamma1": 1.0, "gamma2": 1.0}
    return ("solve", {"params": dict(base, **params)})


def _derive_cfg(**microscopic):
    return ("derive", {"microscopic": dict(gaussian_model_cfg()["microscopic"],
                                           **microscopic)})


def _dress_cfg(**dressing):
    return ("dress", {"dressing": dict({"omega_m": 50.0, "delta_m": 10.0,
                                        "gamma1_bare": 6.0, "gamma2_bare": 4.0},
                                       **dressing)})


@pytest.mark.parametrize("command,payload,message", [
    (*_spectrum_cfg(e_min=7.5), "need e_min < e_max"),
    (*_spectrum_cfg(n_points=1), "need n_points >= 2"),
    (*_validate_cfg(n_e=0), "n_e must be >= 1"),
    (*_derive_cfg(dipole_overlap=1.5), "dipole_overlap must lie in [-1, 1]"),
    (*_derive_cfg(vic_convention="x"), "microscopic: unknown keys for derive: vic_convention"),
    (*_derive_cfg(lambda1={"shape": "gaussian", "amplitude": 0.16, "center": 1.25,
                           "width": -1.0}), "width must be positive"),
    (*_solve_cfg(gamma2=0.0), "solve_bic needs g1, g2 >= 0 and gamma1, gamma2 > 0"),
    (*_solve_cfg(gamma1=-1.0), "solve_bic needs g1, g2 >= 0 and gamma1, gamma2 > 0"),
    (*_solve_cfg(g1=-3.0), "solve_bic needs g1, g2 >= 0 and gamma1, gamma2 > 0"),
    (*_solve_cfg(gama1=1.0), "params: unknown keys for solve: gama1"),
    (*_dress_cfg(gamma1_bare="x"), "dressing.gamma1_bare='x' is not a real number"),
    (*_dress_cfg(gamma2_bare=float("nan")), "dressing.gamma2_bare=nan is not finite"),
    (*_validate_cfg(probes=[["a", 1.0]]), "oracle.probes[0][0]='a' is not a real number"),
    (*_validate_cfg(probes=[1.0]), "oracle.probes[0]: must be [re, im]"),
    # a bool or a null never stands in for a number
    ("certify", {"params": dict(fig4_params().as_dict(), gamma1=True)},
     "params.gamma1=True is not a real number"),
    *[(command, dict(payload, params=dict(fig4_params().as_dict(), gamma2=None)),
       "params.gamma2=None is not a real number")
      for command, payload in (("certify", {}), _spectrum_cfg(), _sweep_cfg())],
    (*_solve_cfg(gamma1=True), "params.gamma1=True is not a real number"),
    (*_dress_cfg(omega_m=True), "dressing.omega_m=True is not a real number"),
    (*_sweep_cfg(eta_list=[True]), "sweep.eta_list[0]=True is not a real number"),
    ("certify", {"params": dict(fig4_params().as_dict(), g1=10 ** 400)},
     f"params.g1={10 ** 400} is not finite"),
    # a shape that is not a string
    (*_derive_cfg(lambda1={"shape": [1], "amplitude": 0.16}),
     "microscopic.lambda1.shape: must be one of"),
    (*_derive_cfg(lambda1={"shape": {}, "amplitude": 0.16}),
     "microscopic.lambda1.shape: must be one of"),
    # sizes past numpy's index range, rejected before anything is allocated
    (*_spectrum_cfg(n_points=1e160),
     f"grid.n_points must be at most {sys.maxsize}, got {int(1e160)}"),
    (*_validate_cfg(n_e=1e160), f"oracle.n_e must be at most {sys.maxsize}, got {int(1e160)}"),
    (*_sweep_cfg(eta_list=None, eta_range={"start": 0.9, "stop": 1.0, "n": 1e160}),
     f"sweep.eta_range.n must be at most {sys.maxsize}, got {int(1e160)}"),
    # sizes above their cap, rejected before anything is allocated
    (*_spectrum_cfg(n_points=100001), "grid.n_points: must be <= 100000 (100001)"),
    (*_spectrum_cfg(n_points=1e6), "grid.n_points: must be <= 100000 (1000000)"),
    (*_sweep_cfg(eta_list=None, eta_range={"start": 0.9, "stop": 1.0, "n": 10001}),
     "sweep.eta_range.n: must be <= 10000 (10001)"),
    (*_validate_cfg(probes=[]), "probes: must be nonempty"),
    (*_sweep_cfg(eta_list=[]), "eta_list must be nonempty"),
    # validate judges the mode, whatever JSON value it is
    ("certify", {"params": fig4_params().as_dict(), "validation_mode": 5},
     "unknown validation mode 5; expected one of ('permissive', 'physical', 'strict')"),
    ("certify", {"params": fig4_params().as_dict(), "validation_mode": "lax"},
     "unknown validation mode 'lax'; expected one of ('permissive', 'physical', 'strict')"),
    # unknown keys, at every level
    (*_spectrum_cfg(typo=1), "grid: unknown keys for spectrum: typo"),
    (*_sweep_cfg(bogus=1), "sweep: unknown keys for sweep-eta: bogus"),
    (*_sweep_cfg(eta_list=None, eta_range={"start": 0.9, "stop": 1.0, "n": 3, "x": 1}),
     "sweep.eta_range: unknown keys for sweep-eta: x"),
    (*_validate_cfg(zz=1), "oracle: unknown keys for validate: zz"),
    (*_derive_cfg(lambda1={"shape": "gaussian", "amplitude": 0.16, "center": 1.25,
                           "width": 0.45, "extra": 1}),
     "microscopic.lambda1: unknown keys for derive: extra"),
    ("certify", {"params": fig4_params().as_dict(), "tol_imm": 1e-9},
     "config: unknown keys for certify: tol_imm"),
    ("validate", dict(_validate_cfg()[1], oracel={}),
     "config: unknown keys for validate: oracel"),
    # a parameter set is read by the schema alone
    ("certify", {"params": dict(fig4_params().as_dict(), bogus=1.0)},
     "params: unknown keys for certify: bogus"),
    ("certify", {"params": {k: v for k, v in fig4_params().as_dict().items() if k != "delta2"}},
     "params.delta2: required"),
    # validate takes neither the rotating frame nor the PV cutoff (derive
    # only), nor the retired laser-frequency and VIC convention keys
    *[("validate", dict(_validate_cfg()[1], microscopic=dict(
        gaussian_model_cfg()["microscopic"], **{key: value})),
       f"microscopic: unknown keys for validate: {key}")
      for key, value in (("e1", 5.0), ("e2", 1.0), ("laser1_freq", -3.0),
                         ("laser2_freq", 1.0), ("vic_convention", "max_interference"),
                         ("e_max", 50.0))],
    # a grid spacing below float resolution: linspace repeats abscissae
    (*_spectrum_cfg(e_min=0, e_max=5e-324, n_points=3),
     "grid [0.0, 5e-324] at 3 points: spacing 0.0 is below float resolution"),
    (*_spectrum_cfg(e_min=1.0, e_max=1.000000000001, n_points=100000),
     "grid [1.0, 1.000000000001] at 100000 points: spacing 1.00009"),
    # an eta list and an eta range are two answers to one question
    (*_sweep_cfg(eta_range={"start": 0.9, "stop": 1.0, "n": 5}),
     "sweep: needs exactly one of 'eta_list' and 'eta_range'"),
    # a Gaussian wider than any float grid: its width squared overflows
    *[(command, dict(payload, microscopic=dict(
        payload["microscopic"],
        lambda1={"shape": "gaussian", "amplitude": 0.16, "center": 1.25, "width": 1e300})),
       "width must have a finite square, got 1e+300")
      for command, payload in (_derive_cfg(), _validate_cfg())],
    # branches no other row reaches
    (*_derive_cfg(lambda1={"shape": "wigner", "amplitude": 0.1, "scale": 0.0}),
     "scale must be positive, got 0.0"),
    (*_sweep_cfg(eta_list=None, eta_range={"start": 0.9, "stop": 1.0, "n": 1}),
     "sweep.eta_range.n: must be >= 2 (1)"),
    ("certify", {"params": dict(fig4_params().as_dict(), g12=2.0), "validation_mode": "strict"},
     "strict mode needs g12=sqrt(g1*g2)="),
    # derive takes the rotating-frame energies e1, e2, not laser frequencies
    (*_derive_cfg(laser1_freq=0.3), "microscopic: unknown keys for derive: laser1_freq"),
    # 3 + 1000 + 2*500 = 2003 states: each photon grid counts twice
    (*_validate_cfg(n_e=1000, k_max=3.0, n_k=500), "oracle: 3 + n_e + 2*n_k must be <= 2000"),
])
def test_input_errors_exit_2_without_traceback(tmp_path, capsys, command, payload,
                                               message):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command,payload,message", [
    ("certify", {"params": dict(fig4_params().as_dict(), g1=1e200)}, "root sum"),
    ("certify", {"params": dict(fig4_params().as_dict(), q2=1e160)}, "root sum"),
    (*_spectrum_cfg(e_max=1e300), "spectrum evaluation returned non-finite values"),
    (*_sweep_cfg(window=[6.0, 1e200]), "spectrum evaluation returned non-finite values"),
    (*_derive_cfg(lambda1={"shape": "gaussian", "amplitude": 1e160, "center": 1.25,
                           "width": 0.45}), "derive_couplings overflowed"),
    ("validate", dict(_validate_cfg()[1], microscopic=dict(
        gaussian_model_cfg()["microscopic"],
        lambda1={"shape": "gaussian", "amplitude": 1e300, "center": 1.25, "width": 0.45})),
     "discretize overflowed"),
    ("validate", dict(_validate_cfg(k_max=3.0, n_k=10)[1], microscopic=dict(
        gaussian_model_cfg()["microscopic"], v2f=1e160)),
     "coupling scale 2 pi max_n sum_q C_nq^2 overflowed (inf): no finite default probes"),
    ("validate", dict(_validate_cfg(k_max=3.0, n_k=10, probes=[[1.0, 0.5]])[1],
                      microscopic=dict(gaussian_model_cfg()["microscopic"], v2f=1e300,
                                       omega23=-1.0)),
     "non-finite resolvent deviations [nan]"),
    (*_solve_cfg(delta=-1e300), "BIC residuals"),
    # a Wigner tail whose weight diverges: exit 0 with quad's bare warning
    # on stderr, or under -W error a traceback
    ("validate", dict(_validate_cfg()[1], microscopic=dict(
        gaussian_model_cfg()["microscopic"],
        lambda1={"shape": "wigner", "amplitude": 0.1, "scale": 1e300})),
     "|lambda1|^2 past E=4.500e+00 did not converge: "
     "The integral is probably divergent, or slowly convergent."),
])
@pytest.mark.filterwarnings("error")
def test_overflow_is_a_numerical_error(tmp_path, capsys, command, payload, message):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    assert main([command, "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # no warning escapes main: stderr is the error line alone
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err


def test_near_overflow_coupling_is_an_error_not_a_crash(tmp_path):
    # a Gaussian v3 of amplitude 1e154 fed difference quotients of about
    # 1e308 to QUADPACK, which killed the interpreter with SIGBUS (exit
    # 135); a child process keeps such a crash from taking the suite along
    src = os.path.dirname(os.path.dirname(os.path.abspath(errors.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    command, payload = _derive_cfg(
        v3={"shape": "gaussian", "amplitude": 1e154, "center": 1.05, "width": 0.60})
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "bic_lab.cli", command,
                           "--config", write_cfg(tmp_path, "cfg.json", payload)],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "error: v3 is not finite in e_sh_f; v3 is not finite in gamma_f"]


def _extreme_lambda1(**shape):
    return dict({"shape": "gaussian", "amplitude": 0.16, "center": 1.25, "width": 0.45},
                **shape)


@pytest.mark.parametrize("command,payload,message", [
    # a coupling that vanishes on shell leaves q1 undefined
    (*_derive_cfg(lambda1=_extreme_lambda1(width=1e-300)), "q1 undefined"),
    (*_derive_cfg(lambda1=_extreme_lambda1(center=-1e300)), "q1 undefined"),
    (*_derive_cfg(e3=1e300), "Gamma_F=0.0 must be positive"),
    # E3/(e_max - E3) underflows to 0: the PV log term has no value
    (*_derive_cfg(e3=5e-324, e_max=4.0), "pole E3=5e-324 must lie strictly inside"),
])
@pytest.mark.filterwarnings("error")
def test_degenerate_models_exit_4_without_traceback(tmp_path, capsys, command, payload,
                                                    message):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    assert main([command, "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("shape", [{"width": 1e-300}, {"center": -1e300}],
                         ids=["width_1e-300", "center_-1e300"])
@pytest.mark.filterwarnings("error")
def test_validate_takes_extreme_coupling_shapes(tmp_path, capsys, shape):
    # the bins see a coupling that is 0 everywhere: the identity still holds
    command, payload = _validate_cfg()
    payload["microscopic"]["lambda1"] = _extreme_lambda1(**shape)
    assert main([command, "--config", write_cfg(tmp_path, "cfg.json", payload),
                 "--quiet"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 8
    assert all(float(r.split(",")[2]) < 1e-10 for r in rows)


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,              # deeper than the parser recurses
    '{"params": ' + "1" * 5000 + "}",           # longer than int() converts
], ids=["deep_nesting", "long_integer"])
def test_unparseable_json_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["certify", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: config is not valid JSON")


def test_certify_coherent_defaults_match_written_values(tmp_path, capsys):
    # absent or null g12 and eta take sqrt(g1*g2) and sqrt(gamma1*gamma2),
    # and an absent inv_kca is 0
    written = fig4_params().replace(eta=None).as_dict()
    implicit = {k: v for k, v in written.items() if k not in ("g12", "eta", "inv_kca")}
    outputs = []
    for params in (written, implicit, dict(implicit, g12=None, eta=None)):
        cfg = write_cfg(tmp_path, "cert.json", {"params": params})
        assert main(["certify", "--config", cfg]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_derive_csv_flattens_sections(tmp_path):
    cfg = write_cfg(tmp_path, "derive.json", gaussian_model_cfg())
    as_json, as_csv = tmp_path / "derive.json.out", tmp_path / "derive.csv"
    assert main(["derive", "--config", cfg, "--out", str(as_json)]) == 0
    assert main(["derive", "--config", cfg, "--format", "csv", "--out", str(as_csv)]) == 0
    with open(as_csv, newline="") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 27
    rec = json.loads(as_json.read_text())
    for column, cell in zip(header, row):
        section, key = column.split(".")
        assert float(cell) == rec[section][key]


@pytest.mark.parametrize("case", ["spectrum", "validate", "reproduce"])
def test_json_tables_hold_the_csv_rows(tmp_path, case):
    if case == "reproduce":
        argv = ["reproduce", "fig4", "--quiet"]
    else:
        command, payload = _spectrum_cfg() if case == "spectrum" else _validate_cfg()
        argv = [command, "--config", write_cfg(tmp_path, "cfg.json", payload), "--quiet"]
    as_csv, as_json = tmp_path / "table.csv", tmp_path / "table.json"
    assert main([*argv, "--out", str(as_csv)]) == 0
    assert main([*argv, "--format", "json", "--out", str(as_json)]) == 0
    with open(as_csv, newline="") as fh:
        header, *rows = csv.reader(fh)
    doc = strict_loads(as_json.read_text())
    assert list(doc) == ["rows"]
    assert [sorted(r) for r in doc["rows"]] == [sorted(header)] * len(rows)
    assert [[r[k] for k in header] for r in doc["rows"]] == [
        [float(cell) for cell in row] for row in rows]


def test_validate_summary_goes_to_stdout_when_out_is_a_file(tmp_path, capsys):
    command, payload = _validate_cfg()
    cfg = write_cfg(tmp_path, "val.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "val.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("max deviation over 8 probes: ")
    assert main([command, "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("z_re,z_im,max_dev\n")
    assert captured.err.startswith("max deviation over 8 probes: ")


def test_unwritable_out_is_an_io_error(tmp_path, capsys):
    command, payload = _spectrum_cfg()
    cfg = write_cfg(tmp_path, "spec.json", payload)
    out = tmp_path / "missing" / "spec.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io error: ")
    assert captured.err.count("\n") == 1


# golden bytes: the exact reports and column order of dress, solve and
# certify in both formats, and a sweep-eta table, for one fixed config each
_GOLDEN_CONFIGS = {
    "dress": {"dressing": {"omega_m": 50.0, "delta_m": 10.0,
                           "gamma1_bare": 6.0, "gamma2_bare": 4.0}},
    "solve": {"params": {"g1": 3.0, "g2": 2.0, "q1": -0.8, "q2": 0.54,
                         "delta": 0.1, "gamma1": 1.0, "gamma2": 1.0}},
    # the fig3 set deviated in g2, without spontaneous emission
    "certify": {"params": {"g1": 4.0, "g2": 1.91, "g12": 2.7640549922170505,
                           "q1": -0.8, "q2": -0.6, "delta1": 0.45, "delta2": 1.88,
                           "delta": 0.1, "gamma1": 0.0, "gamma2": 0.0, "eta": 0.0}},
    # the fig4 set on 11 etas in [0.9, 1]
    "sweep-eta": {"params": {"g1": 3.01, "g2": 2.0, "q1": -0.8, "q2": 0.54,
                             "delta1": 6.4, "delta2": 6.6, "delta": 0.1,
                             "gamma1": 1.0, "gamma2": 1.0, "eta": 1.0},
                  "sweep": {"eta_range": {"start": 0.9, "stop": 1.0, "n": 11}}},
}

_GOLDEN = {
    ("dress", "json"): """\
{
  "cos_theta": 0.7733421413379022,
  "feasibility": 10.408329997330664,
  "sin_theta": 0.6339889056055382,
  "splitting": 50.99019513592785,
  "theta": 0.686700383472508
}
""",
    ("dress", "csv"): """\
theta,cos_theta,sin_theta,splitting,feasibility
0.68670038347250795,0.77334214133790224,0.63398890560553822,50.990195135927848,10.408329997330664
""",
    ("solve", "json"): """\
{
  "c": 4.56047793231507,
  "delta1": 6.421908049556006,
  "delta2": 6.6195917942265465,
  "eta": 1.0,
  "lambda": 6.762316255329463,
  "residual_a": 0.0,
  "residual_b": 3.201774212389272e-16,
  "x1": -3.1462643699419743,
  "x2": 3.1462643699419743
}
""",
    ("solve", "csv"): """\
lambda,delta1,delta2,eta,x1,x2,c,residual_a,residual_b
6.7623162553294627,6.4219080495560057,6.6195917942265465,1,-3.1462643699419743,3.1462643699419743,4.5604779323150701,0,3.2017742123892718e-16
""",
    ("certify", "json"): """\
{
  "im_E1": -0.00011427791064806186,
  "is_bic": false,
  "lambda_est": 1.2944198519681624,
  "min_abs_im": 0.00011427791064806186,
  "re_E1": 1.2944198519681624,
  "residual_b": 0.02810089611692277,
  "vic_residual": 0.0
}
""",
    ("certify", "csv"): """\
is_bic,min_abs_im,lambda_est,re_E1,im_E1,residual_b,vic_residual
false,0.00011427791064806186,1.2944198519681624,1.2944198519681624,-0.00011427791064806186,0.02810089611692277,0
""",
    ("sweep-eta", "csv"): """\
eta,E_peak,height,width,re_E1,im_E1
0.90000000000000002,6.7829196961533089,0.0011018647347870031,0.35026949479471625,6.7431974753522432,-0.095156045883262763
0.91000000000000003,6.7777242678269918,0.0010947268522846429,0.29917981189016452,6.7432105576246233,-0.085640577207451773
0.92000000000000004,6.7725149657237651,0.0010996859856717625,0.25280227076941486,6.7432222835318223,-0.076125105401696619
0.93000000000000005,6.7673293508879304,0.00112047009901187,0.21073386596794208,6.7432326538158396,-0.066609623728479395
0.94000000000000006,6.7622213388627923,0.0011635662885461258,0.17249932970885773,6.7432416692547488,-0.057094125475229962
0.94999999999999996,6.7572724973037781,0.0012410870938675649,0.13761681220322508,6.7432493306624393,-0.047578603954280672
0.95999999999999996,6.7526121486295247,0.0013781899359366183,0.10566560162529104,6.743255638888348,-0.038063052502838021
0.96999999999999997,6.748451610870303,0.0016358479917973762,0.076333678373661229,6.7432605948172144,-0.028547464482950792
0.97999999999999998,6.7451375934224069,0.0022041470194512636,0.049386581136553254,6.7432641993688147,-0.019031833281474307
0.98999999999999999,6.7432053397494318,0.0040839115325406149,0.024375470381817976,6.7432664534977054,-0.0095161523100530526
1,6.7432673581357818,111335.32155230232,1.0880045362426927e-06,6.7432673581929876,-4.1500508610123423e-07
""",
}


@pytest.mark.parametrize("command,fmt", sorted(_GOLDEN))
def test_reports_are_byte_identical_to_golden(tmp_path, capsys, command, fmt):
    cfg = write_cfg(tmp_path, "cfg.json", _GOLDEN_CONFIGS[command])
    assert main([command, "--config", cfg, "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == _GOLDEN[command, fmt]
    assert captured.err == ""
