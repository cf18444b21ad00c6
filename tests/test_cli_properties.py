"""Property gate: no mutated JSON config makes the CLI crash.

Every subcommand's valid config is mutated (a value replaced by a bool,
null, a string, a list, an object, +-1e300 or a non-finite number, or an
unknown key added) and run through the CLI, which must exit 0, 2, 3 or 4
with an `error:` line and no traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bic_lab.cli import main
from bic_lab.recipes import fig4_params
from test_cli import (_dress_cfg, _solve_cfg, _spectrum_cfg, _sweep_cfg, _validate_cfg,
                      gaussian_model_cfg, write_cfg)


def _property_bases():
    micro = dict(gaussian_model_cfg()["microscopic"], e_max=4.0, e1=0.9, e2=1.1,
                 lambda2={"shape": "wigner", "amplitude": 0.12, "scale": 1.0})
    params = fig4_params().as_dict()
    return {
        "dress": _dress_cfg()[1],
        "solve": _solve_cfg(inv_kca=0.0)[1],
        "certify": {"params": params, "validation_mode": "permissive"},
        "spectrum": dict(_spectrum_cfg(channel=1)[1], validation_mode="physical"),
        "sweep-eta": _sweep_cfg(eta_list=[0.9, 0.99], window=[6.0, 7.5], channel=1)[1],
        "sweep-eta eta_range": {"params": params,
                                "sweep": {"eta_range": {"start": 0.9, "stop": 1.0, "n": 3}}},
        "derive": {"microscopic": micro},
        "validate": _validate_cfg(n_e=40, k_min=0.0, k_max=3.0, n_k=10, e1_rot=0.9,
                                  e2_rot=1.1, probes=[[1.0, 0.5]])[1],
    }


# every size in the bases is small, and a size mutated to 1e300 is above its cap
_MUTANTS = [True, False, None, "x", [], [1.0, 2.0], {}, {"a": 1},
            1e300, -1e300, 1e-300, 5e-324, math.nan, math.inf, -math.inf]


def _slots(node):
    """(container, key) for every value below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def _mutated_configs(draw):
    bases = _property_bases()
    command = draw(st.sampled_from(sorted(bases)))
    cfg = bases[command]
    for _ in range(draw(st.integers(1, 2))):
        slots = list(_slots(cfg))
        if draw(st.booleans()):
            sections = [cfg] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            draw(st.sampled_from(sections))["zz"] = 1
        else:
            container, key = draw(st.sampled_from(slots))
            container[key] = copy.deepcopy(draw(st.sampled_from(_MUTANTS)))
    # a base is named after its subcommand, with a suffix where it has two
    return command.split()[0], cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_mutated_configs())
def test_mutated_configs_exit_cleanly(tmp_path, case):
    command, payload = case
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg])
    assert code in (0, 2, 3, 4), (code, payload)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().splitlines()[-1].startswith("error: "), err.getvalue()
