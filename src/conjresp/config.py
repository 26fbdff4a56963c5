"""Loading and validation of run configurations for the batch front end.

One JSON object per run.  KEYS owns what a config means: load_config checks
every value's JSON type against it before any work and fills in every absent
key, so unknown keys, wrong types and map keys the kind does not take fail.
Band-limited inputs are specified as mode lists [k1(,k2), re, im], each entry
adding re*cos(2 pi k.x) + im*sin(2 pi k.x).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

from .dynamics import ConjugatedMap, TorusMap, make_warped_doubling
from .errors import ConfigError, ConstructionError
from .exactness import SolutionStrategy, remove_weighted_mean
from .fields import ScalarField, TorusGrid, VectorFieldT, VolumeDensity
from .verify import checked_t_values

TRANSFER_RESOLUTION = 512  # transfer-check targets of verify and moser
PUSHFORWARD_TOL = 1e-6  # moser's bound on max|psi_* eta0 - eta1|
TRANSFER_TOL = 1e-4  # the transfer checks' bound, in verify and moser

# section -> key -> default, or the JSON type of a key without one (it reads
# None when absent); a float key accepts any number and reads a float
KEYS = {
    "grid": {"resolution": list},
    "map": {"kind": str, "A": list, "generator_modes": list, "displacement_modes": list,
            "eta_modes": list},
    "rho": {"modes": list, "center": False},
    "verify": {"t_values": list, "steps": int, "transfer_t": 0.02,
               "transfer_resolution": TRANSFER_RESOLUTION, "resolutions": list},
    "moser": {"eta0_modes": list, "eta1_modes": list, "steps": 256,
              "check_conjugated": False, "transfer_resolution": TRANSFER_RESOLUTION},
    "output": {"format": "json", "prefix": "solve"},
}
POSITIVE_KEYS = (("verify", "steps"), ("verify", "transfer_t"),  # each > 0
                 ("moser", "steps"))
CUSTOM_STRATEGY_KEYS = {"harmonic": list, "alpha_modes": list}
MAP_KINDS = {"linear": {"A"}, "custom": {"A", "displacement_modes", "eta_modes"},
             "warped_doubling": {"generator_modes"}}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean", list: "a list",
               str: "a string"}

__all__ = ["load_config", "required", "naming", "build_grid", "build_map", "build_rho",
           "build_strategy"]


def _check_keys(section: dict, allowed: set, name: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section {name!r}; "
            f"allowed: {sorted(allowed)}"
        )


def _value(value, spec, key: str):
    """value if it has the JSON type of spec (a type, or a default of it)."""
    kind = spec if isinstance(spec, type) else type(spec)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and isinstance(value, bool) == (kind is bool):
        return float(value) if kind is float else value
    raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")


def _check_finite(value, key: str) -> None:
    """Reject the NaN and Infinity that json reads, anywhere under key."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: {json.dumps(value)} is not a finite number")
    if isinstance(value, dict):
        for name, item in value.items():
            _check_finite(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for item in value:
            _check_finite(item, key)


def _typed(section, table: dict, name: str) -> dict:
    """The section's values checked against table, absent keys filled in."""
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    _check_keys(section, set(table), name)
    return {key: _value(section[key], spec, f"{name}.{key}") if key in section
            else None if isinstance(spec, type) else spec
            for key, spec in table.items()}


def load_config(path) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_finite(raw, "")
    _check_keys(raw, {"scenario_id", "strategy", *KEYS}, "top level")
    cfg = {name: _typed(raw.get(name, {}), table, name) for name, table in KEYS.items()}
    cfg["strategy"] = _strategy(raw.get("strategy", "canonical"))

    kind = cfg["map"]["kind"]
    if "map" in raw:
        if kind not in MAP_KINDS:
            raise ConfigError(f"map.kind must be one of {sorted(MAP_KINDS)}, got {kind!r}")
        _check_keys(raw["map"], {"kind"} | MAP_KINDS[kind], f"map of kind {kind!r}")
    cfg["scenario_id"] = (_value(raw["scenario_id"], str, "scenario_id")
                          if "scenario_id" in raw else kind or "run")
    if cfg["output"]["format"] not in ("json", "csv"):
        raise ConfigError(f"unknown output format {cfg['output']['format']!r}")
    if "/" in cfg["output"]["prefix"]:
        raise ConfigError(f"output.prefix must be a file name, got {cfg['output']['prefix']!r}")
    for section, key in POSITIVE_KEYS:
        if cfg[section][key] is not None and cfg[section][key] <= 0:
            raise ConfigError(f"{section}.{key} must be positive, got {cfg[section][key]}")
    for section in ("verify", "moser"):  # transfer targets are grid points
        with naming(f"{section}.transfer_resolution"):
            TorusGrid(cfg[section]["transfer_resolution"])
    verify = cfg["verify"]
    if verify["t_values"] is not None:
        t_values = [_value(t, float, "verify.t_values") for t in verify["t_values"]]
        try:
            verify["t_values"] = checked_t_values(t_values)
        except ValueError as exc:
            raise ConfigError(f"verify.t_values: {exc}") from exc
    return cfg


def _strategy(raw):
    if isinstance(raw, str):
        if raw not in ("canonical", "gradient"):
            raise ConfigError(f"unknown strategy {raw!r}")
        return raw
    if isinstance(raw, dict) and set(raw) == {"custom"}:
        custom = _typed(raw["custom"], CUSTOM_STRATEGY_KEYS, "strategy.custom")
        if custom["harmonic"] is not None:
            custom["harmonic"] = [_value(c, float, "strategy.custom.harmonic")
                                  for c in custom["harmonic"]]
        return {"custom": custom}
    raise ConfigError('strategy must be "canonical", "gradient" or {"custom": {...}}')


def required(cfg: dict, section: str, key: str):
    """cfg[section][key], which the calling command cannot run without."""
    if cfg[section][key] is None:
        raise ConfigError(f"config needs {section}.{key}")
    return cfg[section][key]


@contextmanager
def naming(key: str):
    """Re-raise a ValueError from building a config value as a ConfigError
    that names the value's key."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def build_grid(cfg: dict, resolution_override: int | None = None) -> TorusGrid:
    resolution = required(cfg, "grid", "resolution")
    key = "grid.resolution"
    if resolution_override is not None:
        resolution = [resolution_override] * len(resolution)
        key = "verify.resolutions"
    with naming(key):
        return TorusGrid(resolution)


def build_map(cfg: dict, grid: TorusGrid) -> TorusMap | ConjugatedMap:
    section = cfg["map"]
    if required(cfg, "map", "kind") == "warped_doubling":
        modes = required(cfg, "map", "generator_modes")
        with naming("map.generator_modes"):
            generator = ScalarField.from_modes(grid, modes)
        return make_warped_doubling(VectorFieldT([generator]))
    displacement = None
    if section["displacement_modes"] is not None:
        per_component = section["displacement_modes"]
        if len(per_component) != grid.dim:
            raise ConfigError(
                f"displacement_modes needs one mode list per component ({grid.dim})"
            )
        with naming("map.displacement_modes"):
            displacement = VectorFieldT(
                [ScalarField.from_modes(grid, modes) for modes in per_component]
            )
    density = None
    if section["eta_modes"]:
        with naming("map.eta_modes"):
            density = VolumeDensity.from_modes(grid, section["eta_modes"])
    linear = required(cfg, "map", "A")
    try:
        with naming("map.A"):  # the linear part is the one input still unchecked
            return TorusMap(grid, linear, displacement, density)
    except ConstructionError as exc:  # the certificate rejects the user's density
        raise ConfigError(f"map.eta_modes (Lebesgue when absent): {exc}") from exc


def build_rho(cfg: dict, grid: TorusGrid, omega: VolumeDensity) -> ScalarField:
    modes = required(cfg, "rho", "modes")
    with naming("rho.modes"):
        rho = ScalarField.from_modes(grid, modes)
    if cfg["rho"]["center"]:
        rho = remove_weighted_mean(rho, omega)
    return rho


def build_strategy(cfg: dict, grid: TorusGrid) -> SolutionStrategy:
    raw = cfg["strategy"]
    if isinstance(raw, str):
        return SolutionStrategy(raw)
    custom = raw["custom"]
    alpha = None
    if custom["alpha_modes"]:
        with naming("strategy.custom.alpha_modes"):
            alpha = ScalarField.from_modes(grid, custom["alpha_modes"])
    strategy = SolutionStrategy.custom(custom["harmonic"] or (), alpha)
    try:
        strategy.validate_for(grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return strategy
