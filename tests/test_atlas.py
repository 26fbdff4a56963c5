"""An atlas of claims and failures: one `verify` run per row, each row a
literal config, stating the exit code and, for a failure, the cause its
message must name.

The rows that pass are the paper's claim that no hyperbolicity is needed:
parabolic, rotational, partly expanding and trivial maps all take the
prescribed response.  A row marked ``xfail(strict=True)`` names a wrong
cause, or none, today; the change that mends it flips the row.
"""

import json
import re

import pytest

from conjresp.cli import main

# the 2-d rows' shared request: 64², the canonical strategy, a centred rho
TORUS_REQUEST = {
    "grid": {"resolution": [64, 64]},
    "rho": {"modes": [[1, 0, 0.3, -0.2], [0, 2, 0.1, 0.25]], "center": True},
    "strategy": "canonical",
    "verify": {"t_values": [1e-2, 5e-3]},
}

# the warped doubling rows' shared request: N = 256, the canonical strategy
WARPED_REQUEST = {
    "grid": {"resolution": [256]},
    "rho": {"modes": [[1, 1.0, 0.0]], "center": True},
    "strategy": "canonical",
    "verify": {"t_values": [1e-2, 5e-3]},
}

# the torus-verify benchmark's request: 64², t = 1e-2 and 5e-3
BENCH_OP_REQUEST = {
    "grid": {"resolution": [64, 64]},
    "verify": {"t_values": [0.01, 0.005]},
}

ASYMPTOTIC_RANGE = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 10 and 20: at t = 1e-2 the derivative error is not yet "
    "O(t^2), and the check exits 4 naming only the derivative"))
NOT_INVARIANT = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: no invariance certificate in 2-d, so a density the map "
    "does not preserve exits 0"))



def row(cfg, code, cause=None, order=None, marks=()):
    """One atlas row, named by its scenario: the exit code, the cause its
    message names (a pattern searched in stderr; None for a clean exit 0),
    and on exit 0 the derivative's fitted order (None: no error above the
    noise floor, so no order)."""
    return pytest.param(cfg, code, cause, order, marks=marks, id=cfg["scenario_id"])


ROWS = [
    row({**TORUS_REQUEST, "scenario_id": "shear",
         "map": {"kind": "linear", "A": [[1, 1], [0, 1]]}}, 0, order=2.0),
    row({**TORUS_REQUEST, "scenario_id": "shear-eta",  # eta of x1 alone: invariant
         "map": {"kind": "custom", "A": [[1, 1], [0, 1]], "eta_modes": [[0, 1, 0.2, 0.1]]}},
        0, order=2.0),
    row({**TORUS_REQUEST, "scenario_id": "rotation",
         "map": {"kind": "custom", "A": [[1, 0], [0, 1]],
                 "displacement_modes": [[[0, 0, 0.381966, 0.0]], [[0, 0, 0.236068, 0.0]]]}},
        0, order=2.0),
    row({**TORUS_REQUEST, "scenario_id": "diag-2-1",
         "map": {"kind": "linear", "A": [[2, 0], [0, 1]]}}, 0, order=2.0),
    row({**TORUS_REQUEST, "scenario_id": "identity-eta",
         "map": {"kind": "custom", "A": [[1, 0], [0, 1]], "eta_modes": [[1, 1, 0.2, 0.1]]}},
        0),
    # held as the conjugacy h o D o h^{-1}, with exact preimages at any
    # amplitude: only a density the grid under-resolves fails
    row({**WARPED_REQUEST, "scenario_id": "warped-doubling-256",
         "map": {"kind": "warped_doubling", "generator_modes": [[3, 0.009585, 0.031682]]}},
        0, order=1.9966),
    row({**WARPED_REQUEST, "scenario_id": "warped-under-resolved-256",
         "map": {"kind": "warped_doubling", "generator_modes": [[3, 0.1, 0.0]]}},
        3, r"under-resolved.*tail/peak 1\.2e-03.*raise N"),
    row({**WARPED_REQUEST, "scenario_id": "warped-amplitude-0.2",
         "map": {"kind": "warped_doubling", "generator_modes": [[1, 0.2, 0.0]]}},
        0, order=1.9986),
    # a centred constant rho: a request at round-off, whose X is 0
    row({"scenario_id": "gradient-round-off-request",
         "grid": {"resolution": [64]},
         "map": {"kind": "custom", "A": [[1]],
                 "eta_modes": [[2, 0.0005, 0.0], [1, 0.0, 0.0003]]},
         "rho": {"modes": [[0, 0.007, 0.0]], "center": True},
         "strategy": "gradient",
         "verify": {"t_values": [1e-2, 5e-3]}}, 0),
    # torus-verify ops that fail or pass for a cause other than their own
    row({**BENCH_OP_REQUEST, "scenario_id": "torus-verify-s2481-op11",
         "map": {"kind": "custom", "A": [[2, 1], [1, 1]],
                 "eta_modes": [[-2, -2, -0.275447, -0.353794]]},
         "rho": {"modes": [[-2, -2, 0.222519, -0.031967], [3, -2, -0.095768, -0.326332],
                           [-3, 3, 0.016704, -0.270761]], "center": True},
         "strategy": {"custom": {"alpha_modes": [[-3, 2, -0.010223, 0.020165],
                                                 [2, -2, -0.01549, -0.012025]]}}},
        4, "t outside the asymptotic range", marks=ASYMPTOTIC_RANGE),
    row({**BENCH_OP_REQUEST, "scenario_id": "torus-verify-s2129-op83",
         "map": {"kind": "custom", "A": [[2, 1], [1, 1]],
                 "eta_modes": [[2, 2, 0.039584, 0.486526]]},
         "rho": {"modes": [[0, -3, 0.382071, 0.389657]], "center": True},
         "strategy": {"custom": {"alpha_modes": [[3, -3, -0.025209, 0.005222],
                                                 [-3, 1, -0.020157, -0.004629]]}}},
        4, "t outside the asymptotic range", marks=ASYMPTOTIC_RANGE),
    row({**BENCH_OP_REQUEST, "scenario_id": "torus-verify-s1501-op2",  # displaced cat
         "map": {"kind": "custom", "A": [[2, 1], [1, 1]], "displacement_modes": [
             [[-1, 1, 0.007704, 0.01376], [1, 0, -0.001626, 0.014156]],
             [[2, 1, 0.022281, -0.012537], [2, -2, -0.019344, 0.003005]]]},
         "rho": {"modes": [[3, -2, -0.16998, -0.411514], [4, 1, 0.297384, 0.339936]],
                 "center": True},
         "strategy": {"custom": {"alpha_modes": [[-1, -2, 0.00198, 0.017375],
                                                 [1, 0, -0.014682, 0.00102]]}}},
        2, "map.eta_modes", marks=NOT_INVARIANT),
    row({**BENCH_OP_REQUEST, "scenario_id": "torus-verify-s1501-op3",  # weighted cat
         "map": {"kind": "custom", "A": [[2, 1], [1, 1]],
                 "eta_modes": [[0, 2, -0.100018, 0.362664]]},
         "rho": {"modes": [[1, 1, -0.520275, 0.516723]], "center": True},
         "strategy": "canonical"},
        2, "map.eta_modes", marks=NOT_INVARIANT),
    # bench/README.md's seed-509 op: X is under-resolved on 64², and the
    # response check reports the symptom (fitted order 1.56)
    row({**BENCH_OP_REQUEST, "scenario_id": "seed-509-op3",
         "map": {"kind": "custom", "A": [[2, 1], [1, 1]],
                 "eta_modes": [[-2, -2, 0.257841, -0.214624], [1, -2, -0.276731, 0.16548]]},
         "rho": {"modes": [[1, -3, -0.048539, -0.700507]], "center": True},
         "strategy": "canonical"},
        3, r"under-resolved.*\bX\b|\bX\b.*under-resolved",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 9: no resolution "
                                "certificate for X, so the response check exits 4")),
    # 1 + 0.999 cos(2 pi y) + 0.1 sin(2 pi y) is 0.001 at the grid points
    # and -0.004 between them, where no gate looks
    row({"scenario_id": "eta-negative-between-grid-points",
         "grid": {"resolution": [16, 8]},
         "map": {"kind": "custom", "A": [[1, 0], [0, 1]], "eta_modes": [[0, 1, 0.999, 0.1]]},
         "rho": {"modes": [[3, 1, 1.0, 0.1]]},
         "strategy": "canonical",
         "verify": {"t_values": [0.01, 0.005]}},
        2, "map.eta_modes",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 22: density positivity "
                                "is gated at the grid points only, so the run exits 3 "
                                "naming the transported density's tail")),
    row({**TORUS_REQUEST, "scenario_id": "rotation-eta",
         "map": {"kind": "custom", "A": [[1, 0], [0, 1]],
                 "displacement_modes": [[[0, 0, 0.381966, 0.0]], [[0, 0, 0.236068, 0.0]]],
                 "eta_modes": [[1, 1, 0.2, 0.1]]}},
        2, "map.eta_modes", marks=NOT_INVARIANT),
]


@pytest.mark.parametrize("cfg, code, cause, order", ROWS)
def test_atlas_row(tmp_path, capsys, cfg, code, cause, order):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out), "--quiet"]) == code
    err = capsys.readouterr().err
    assert re.search(cause, err) if cause else err == ""
    if code == 0:
        derivative = json.loads((out / "report.json").read_text())["derivative"]
        if order is None:
            assert derivative["fitted_order"] is None
        else:
            assert derivative["fitted_order"] == pytest.approx(order, abs=1e-3)
