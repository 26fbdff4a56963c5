"""A property test of the batch front end: whatever a config asks, a run
exits 0, 2, 3 or 4, and says why in one stderr line, never in a traceback.

The draws lean on the edges: small and odd grids, modes at and next to the
Nyquist index N/2, densities whose minimum is at or just past 0, every
strategy and map kind, and t values from 1e-6 to 0.5 (and an invalid 0).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conjresp.cli import main

# the usual request, listed twice to be drawn twice as often as each edge
T_VALUES = [[1e-2, 5e-3], [1e-2, 5e-3], [0.2, 0.1], [1e-6], [0.5], [0.0]]
EDGE_AMPLITUDES = [0.5, 0.99, 0.999, 1.0, 1.001]


@st.composite
def wavevectors(draw, resolution):
    """A mode index per axis: low in four draws of five, else at or next to N/2."""
    return [draw(st.sampled_from([0, 1, 1, 2, 2, 3] * 2 + [n // 2 - 1, n // 2, n // 2 + 1]))
            for n in resolution]


@st.composite
def mode_lists(draw, resolution, amplitudes):
    return [[*draw(wavevectors(resolution)), draw(st.sampled_from(amplitudes)),
             draw(st.sampled_from([0.0, 0.1]))]
            for _ in range(draw(st.sampled_from([1, 1, 2])))]


@st.composite
def maps(draw, resolution):
    dim = len(resolution)
    if dim == 1:
        kind = draw(st.sampled_from(["doubling", "reversed", "identity-eta", "warped",
                                     "rotation"]))
        A = {"doubling": [[2]], "reversed": [[-2]]}.get(kind, [[1]])
    else:
        kind = draw(st.sampled_from(["cat", "identity-eta", "rotation"]))
        A = [[2, 1], [1, 1]] if kind == "cat" else [[1, 0], [0, 1]]
    if kind == "warped":
        return {"kind": "warped_doubling",
                "generator_modes": draw(mode_lists(resolution, [0.01, 0.05, 0.2]))}
    if kind == "identity-eta":
        return {"kind": "custom", "A": A,
                "eta_modes": draw(mode_lists(resolution, EDGE_AMPLITUDES))}
    if kind == "rotation":
        shift = [[*([0] * dim), 0.381966, 0.0]]
        return {"kind": "custom", "A": A, "displacement_modes": [shift] * dim}
    return {"kind": "linear", "A": A}


@st.composite
def runs(draw):
    resolution = draw(st.sampled_from([[8], [16], [32]] * 3 + [[8, 8], [16, 8]] * 2 + [[9]]))
    dim = len(resolution)
    strategy = draw(st.sampled_from(["canonical", "gradient", "harmonic", "alpha"][:2 + dim]))
    if strategy == "harmonic":
        strategy = {"custom": {"harmonic": [0.1] * dim}}
    elif strategy == "alpha":
        strategy = {"custom": {"alpha_modes": draw(mode_lists(resolution, [0.01]))}}
    cfg = {"grid": {"resolution": resolution},
           "map": draw(maps(resolution)),
           "rho": {"modes": draw(mode_lists(resolution, [1.0, 1e-9])),
                   "center": draw(st.booleans())},
           "strategy": strategy,
           "verify": {"t_values": draw(st.sampled_from(T_VALUES)), "transfer_resolution": 64}}
    command = draw(st.sampled_from(["solve", "verify", "verify", "sweep"]))
    if command == "sweep":
        cfg["verify"]["resolutions"] = [16, 32]
    return command, cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run=runs())
def test_every_run_exits_with_a_known_code_and_one_line(run):
    command, cfg = run
    with tempfile.TemporaryDirectory() as tmp:  # one per example; tmp_path is one per test
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out"),
                         "--quiet"])
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != 0), lines
    assert "Traceback" not in err.getvalue()
