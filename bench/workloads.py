"""Seeded generation of the CLI configs each benchmark workload sends.

A workload is a fixed cycle of op *slots*: the command plus the discrete
choices that set an op's cost (map kind, strategy, output format).  The seed
draws only the continuous parameters inside a slot (mode indices,
amplitudes, phases) from the ranges in ``RANGES``, so every seed does the
same kind of work and runs with different seeds can be compared.  Op costs
repeat every ``COST_PERIOD`` ops; a run stops only at such a boundary.

Each op's config comes from its own generator keyed by workload, seed and op
index, so op ``i`` is the same whatever ran before it.  Warm-up ops use a
separate key and shortened settings (see ``warmup_ops``).
"""

from __future__ import annotations

import copy
import json
import math
import random

CAT = [[2, 1], [1, 1]]
SYMMETRIC_CAT = [[1, 1], [1, 2]]

# Every range the generator draws from; [lo, hi] pairs are uniform draws,
# "modes" pairs are inclusive mode counts and kmax bounds |k_i|.  A density
# is 1 + modes with total mode amplitude in [0.5, 1] * (1 - min_eta).
RANGES = {
    "circle-verify": {
        "grid": [256], "maps": ["doubling", "warped_doubling"],
        "warp_generator": {"k": 1, "amplitude": [0.02, 0.05]},
        "rho": {"modes": [1, 3], "kmax": 4, "amplitude": [0.5, 1.0], "center": True},
        "strategies": ["canonical", "gradient", "custom"], "custom_harmonic": [-0.2, 0.2],
        "verify": {"t_values": [1e-2, 5e-3, 2.5e-3], "steps": 16, "transfer_t": 0.02,
                   "transfer_resolution": 512},
        "sweep": "one op in four, on a doubling map", "sweep_resolutions": [128, 256],
    },
    "torus-verify": {
        "grid": [64, 64], "maps": ["cat", "symmetric_cat", "displaced_cat", "weighted_cat"],
        "displacement": {"modes": [2, 2], "kmax": 2, "amplitude": [0.02, 0.05]},
        "eta": {"modes": [1, 3], "kmax": 2, "min_eta": 0.5},
        "rho": {"modes": [1, 3], "kmax": 4, "amplitude": [0.5, 1.0], "center": True},
        "strategies": ["canonical", "gradient", "custom"],
        "custom_alpha": {"modes": [2, 2], "kmax": 3, "amplitude": [0.01, 0.05]},
        "verify": {"t_values": [1e-2, 5e-3], "steps": 4},
    },
    "moser-transport": {
        "circle": {"grid": [128], "steps": 128, "eta0": "lebesgue",
                   "eta1": {"modes": [1, 3], "kmax": 3, "min_eta": 0.3},
                   "check_conjugated": "doubling", "transfer_resolution": 512},
        "torus": {"grid": [48, 48], "steps": 16,
                  "eta0": {"modes": [1, 3], "kmax": 2, "min_eta": 0.7},
                  "eta1": {"modes": [1, 3], "kmax": 2, "min_eta": 0.7}},
    },
    "solve-2d": {
        "grid": [256, 256], "map": "custom cat map with eta",
        "eta": {"modes": [1, 3], "kmax": 3, "min_eta": 0.1},
        "rho": {"modes": [1, 3], "kmax": 4, "amplitude": [0.5, 1.0], "center": True},
        "strategies": ["canonical", "gradient", "custom"],
        "custom_alpha": {"modes": [2, 2], "kmax": 3, "amplitude": [0.01, 0.05]},
        "custom_harmonic": [-0.2, 0.2], "csv": "one op in four, on gradient slots",
    },
}


def _r(x: float) -> float:
    """Round drawn numbers so configs stay short and byte-stable."""
    return round(x, 6)


def _modes(rng: random.Random, dim: int, spec: dict, amplitude: float) -> list:
    """Distinct nonzero wavevectors (k and -k count once) with |k_i| <= kmax
    and random phases, their amplitudes summing to ``amplitude``."""
    count = rng.randint(*spec["modes"])
    kmax = spec["kmax"]
    seen, ks = set(), []
    while len(ks) < count:
        k = [rng.randint(-kmax, kmax) for _ in range(dim)]
        if dim == 1:
            k = [abs(k[0])]
        key = min(tuple(k), tuple(-c for c in k))
        if any(k) and key not in seen:
            seen.add(key)
            ks.append(k)
    weights = [rng.uniform(0.5, 1.0) for _ in ks]
    scale = amplitude / sum(weights)
    out = []
    for k, w in zip(ks, weights):
        phase = rng.uniform(0.0, math.tau)
        out.append(k + [_r(w * scale * math.cos(phase)), _r(w * scale * math.sin(phase))])
    return out


def _amplitude_modes(rng, dim, spec):
    return _modes(rng, dim, spec, rng.uniform(*spec["amplitude"]))


def _density_modes(rng, dim, spec):
    return _modes(rng, dim, spec, rng.uniform(0.5, 1.0) * (1.0 - spec["min_eta"]))


def _rho(rng, dim, spec):
    return {"modes": _amplitude_modes(rng, dim, spec), "center": spec["center"]}


# -- circle-verify -------------------------------------------------------------
# Cost is set by command and map kind; the strategy (negligible cost in 1-d)
# cycles independently.  Period 4: verify doubling, verify warped twice, sweep
# doubling.  Warped verifies are the middle cost class, so the median op time
# falls inside a class instead of between two.

CIRCLE_SLOTS = [("verify", "doubling"), ("verify", "warped_doubling"),
                ("verify", "warped_doubling"), ("sweep", "doubling")]


def _circle(rng, index):
    spec = RANGES["circle-verify"]
    command, kind = CIRCLE_SLOTS[index % len(CIRCLE_SLOTS)]
    if kind == "doubling":
        map_cfg = {"kind": "linear", "A": [[2]]}
    else:
        gen = spec["warp_generator"]
        amp, phase = rng.uniform(*gen["amplitude"]), rng.uniform(0.0, math.tau)
        map_cfg = {"kind": "warped_doubling", "generator_modes":
                   [[gen["k"], _r(amp * math.cos(phase)), _r(amp * math.sin(phase))]]}
    strategy = spec["strategies"][index % 3]
    if strategy == "custom":
        strategy = {"custom": {"harmonic": [_r(rng.uniform(*spec["custom_harmonic"]))]}}
    verify = dict(spec["verify"])
    if command == "sweep":
        verify["resolutions"] = spec["sweep_resolutions"]
    return command, {"grid": {"resolution": spec["grid"]}, "map": map_cfg,
                     "rho": _rho(rng, 1, spec["rho"]), "strategy": strategy,
                     "verify": verify}


# -- torus-verify --------------------------------------------------------------
# Op cost is nearly uniform (the displacement adds about 2%), so the period is 1;
# map kinds cycle every 4 ops and strategies every 3.

def _torus(rng, index):
    spec = RANGES["torus-verify"]
    kind = spec["maps"][index % 4]
    if kind == "cat":
        map_cfg = {"kind": "linear", "A": CAT}
    elif kind == "symmetric_cat":
        map_cfg = {"kind": "linear", "A": SYMMETRIC_CAT}
    elif kind == "displaced_cat":
        map_cfg = {"kind": "custom", "A": CAT, "displacement_modes":
                   [_amplitude_modes(rng, 2, spec["displacement"]) for _ in range(2)]}
    else:
        map_cfg = {"kind": "custom", "A": CAT, "eta_modes": _density_modes(rng, 2, spec["eta"])}
    strategy = spec["strategies"][index % 3]
    if strategy == "custom":
        strategy = {"custom": {"alpha_modes": _amplitude_modes(rng, 2, spec["custom_alpha"])}}
    return "verify", {"grid": {"resolution": spec["grid"]}, "map": map_cfg,
                      "rho": _rho(rng, 2, spec["rho"]), "strategy": strategy,
                      "verify": dict(spec["verify"])}


# -- moser-transport -----------------------------------------------------------
# Alternates a 1-d transport checked through the conjugated doubling map and
# a 2-d transport; period 2.

def _moser(rng, index):
    spec = RANGES["moser-transport"]
    if index % 2 == 0:
        circle = spec["circle"]
        # eta0 stays Lebesgue: `moser --check_conjugated` assumes eta0 is the
        # base map's invariant density and does not check it
        return "moser", {"grid": {"resolution": circle["grid"]},
                         "map": {"kind": "linear", "A": [[2]]},
                         "moser": {"eta1_modes": _density_modes(rng, 1, circle["eta1"]),
                                   "steps": circle["steps"], "check_conjugated": True,
                                   "transfer_resolution": circle["transfer_resolution"]}}
    torus = spec["torus"]
    return "moser", {"grid": {"resolution": torus["grid"]},
                     "moser": {"eta0_modes": _density_modes(rng, 2, torus["eta0"]),
                               "eta1_modes": _density_modes(rng, 2, torus["eta1"]),
                               "steps": torus["steps"]}}


# -- solve-2d ------------------------------------------------------------------
# Strategy (CG or not) and format (CSV or JSON) set the cost; period 12 with
# each strategy 4 times and one op in four written as CSV.  The CSV ops are
# gradient ones, so the fast JSON class (canonical and custom) holds 8 of 12
# ops and the median op time falls inside it.

SOLVE_SLOTS = [("canonical", "json"), ("gradient", "csv"), ("custom", "json"),
               ("canonical", "json"), ("gradient", "json"), ("custom", "json"),
               ("canonical", "json"), ("gradient", "csv"), ("custom", "json"),
               ("canonical", "json"), ("gradient", "csv"), ("custom", "json")]


def _solve(rng, index):
    spec = RANGES["solve-2d"]
    strategy, fmt = SOLVE_SLOTS[index % len(SOLVE_SLOTS)]
    if strategy == "custom":
        strategy = {"custom": {
            "alpha_modes": _amplitude_modes(rng, 2, spec["custom_alpha"]),
            "harmonic": [_r(rng.uniform(*spec["custom_harmonic"])) for _ in range(2)]}}
    return "solve", {"grid": {"resolution": spec["grid"]},
                     "map": {"kind": "custom", "A": CAT,
                             "eta_modes": _density_modes(rng, 2, spec["eta"])},
                     "rho": _rho(rng, 2, spec["rho"]), "strategy": strategy,
                     "output": {"format": fmt, "prefix": "solve"}}


WORKLOADS = {"circle-verify": _circle, "torus-verify": _torus,
             "moser-transport": _moser, "solve-2d": _solve}
COST_PERIOD = {"circle-verify": len(CIRCLE_SLOTS), "torus-verify": 1, "moser-transport": 2,
               "solve-2d": len(SOLVE_SLOTS)}
# warm-up ops per set-up: every slot kind of circle-verify and moser-transport
# (their first op runs at up to 2.5x its steady time), a JSON and a CSV solve
WARMUP_OPS = {"circle-verify": 4, "torus-verify": 1, "moser-transport": 2, "solve-2d": 2}


def make_op(workload: str, seed: int, index: int, key: str = "op") -> tuple:
    """(command, config) of op ``index``; the config's scenario_id names the
    workload, seed and index."""
    rng = random.Random(f"{workload}/{seed}/{key}/{index}")
    command, cfg = WORKLOADS[workload](rng, index)
    # a deep copy, so editing a config never edits RANGES
    return command, copy.deepcopy({"scenario_id": f"{workload}-s{seed}-{key}{index}", **cfg})


def warmup_ops(workload: str, seed: int) -> list:
    """The first ``WARMUP_OPS`` slots, drawn from a key of their own, with
    flows cut to one step and one t value so they exercise the code paths and
    array sizes of the timed ops at little cost.  Their outcome is ignored."""
    ops = []
    for index in range(WARMUP_OPS[workload]):
        command, cfg = make_op(workload, seed, index, key="warmup")
        if "verify" in cfg:
            cfg["verify"].update(t_values=cfg["verify"]["t_values"][:1], steps=1)
        if "moser" in cfg:
            cfg["moser"]["steps"] = 1
        ops.append((command, cfg))
    return ops


def config_bytes(cfg: dict) -> bytes:
    return (json.dumps(cfg, sort_keys=True, indent=1) + "\n").encode()
