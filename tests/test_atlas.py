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
    row({"scenario_id": "warped-doubling-256",
         "grid": {"resolution": [256]},
         "map": {"kind": "warped_doubling", "generator_modes": [[3, 0.009585, 0.031682]]},
         "rho": {"modes": [[1, 1.0, 0.0]], "center": True},
         "strategy": "canonical",
         "verify": {"t_values": [1e-2, 5e-3]}},
        3, r"warped doubling map under-resolved at N = 256: .*; raise N"),
    row({**TORUS_REQUEST, "scenario_id": "rotation-eta",
         "map": {"kind": "custom", "A": [[1, 0], [0, 1]],
                 "displacement_modes": [[[0, 0, 0.381966, 0.0]], [[0, 0, 0.236068, 0.0]]],
                 "eta_modes": [[1, 1, 0.2, 0.1]]}},
        2, "map.eta_modes",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 6: no invariance "
                                "certificate in 2-d, so a density the map does not "
                                "preserve exits 0")),
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
