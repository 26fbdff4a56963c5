"""Loading and validation of run configurations for the batch front end.

One JSON object per run, with sections {grid, map, rho, strategy, flow,
verify, moser, output} plus an optional top-level scenario_id.  Unknown keys
anywhere are rejected so typos cannot silently change a run.  Band-limited
inputs are specified as mode lists [k1(,k2), re, im], each entry adding
re*cos(2 pi k.x) + im*sin(2 pi k.x).
"""

from __future__ import annotations

import json

from .dynamics import TorusMap, make_linear, make_warped_doubling
from .errors import ConfigError
from .exactness import SolutionStrategy, remove_weighted_mean
from .fields import ScalarField, TorusGrid, VectorFieldT, VolumeDensity

_TOP_KEYS = {"scenario_id", "grid", "map", "rho", "strategy", "flow", "verify",
             "moser", "output"}
_SECTION_KEYS = {
    "grid": {"dim", "resolution"},
    "map": {"kind", "A", "generator_modes", "displacement_modes", "eta_modes"},
    "rho": {"modes", "center"},
    "flow": {"steps"},
    "verify": {"t_values", "steps", "transfer_t", "transfer_resolution", "resolutions"},
    "moser": {"eta0_modes", "eta1_modes", "steps", "check_conjugated",
              "pushforward_tol", "transfer_tol", "transfer_resolution"},
    "output": {"format", "prefix"},
}

__all__ = ["load_config", "build_grid", "build_map", "build_rho", "build_strategy"]


def _check_keys(section: dict, allowed: set, name: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section {name!r}; "
            f"allowed: {sorted(allowed)}"
        )


def load_config(path) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "top level")
    for name, allowed in _SECTION_KEYS.items():
        if name in cfg:
            if not isinstance(cfg[name], dict):
                raise ConfigError(f"section {name!r} must be an object")
            _check_keys(cfg[name], allowed, name)
    if "strategy" in cfg:
        _validate_strategy_shape(cfg["strategy"])
    return cfg


def _validate_strategy_shape(raw) -> None:
    if isinstance(raw, str):
        if raw not in ("canonical", "gradient"):
            raise ConfigError(f"unknown strategy {raw!r}")
        return
    if isinstance(raw, dict):
        if set(raw) != {"custom"} or not isinstance(raw["custom"], dict):
            raise ConfigError('strategy object must be {"custom": {...}}')
        _check_keys(raw["custom"], {"harmonic", "alpha_modes"}, "strategy.custom")
        return
    raise ConfigError("strategy must be a string or a custom object")


def _require(cfg: dict, section: str) -> dict:
    if section not in cfg:
        raise ConfigError(f"config is missing the required section {section!r}")
    return cfg[section]


def build_grid(cfg: dict, resolution_override: int | None = None) -> TorusGrid:
    section = _require(cfg, "grid")
    if "resolution" not in section:
        raise ConfigError("grid section needs a 'resolution' list")
    resolution = section["resolution"]
    if resolution_override is not None:
        resolution = [int(resolution_override)] * len(list(resolution))
    try:
        grid = TorusGrid(resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "dim" in section and int(section["dim"]) != grid.dim:
        raise ConfigError(
            f"grid dim {section['dim']} contradicts the resolution list (dim {grid.dim})"
        )
    return grid


def build_map(cfg: dict, grid: TorusGrid) -> TorusMap:
    section = _require(cfg, "map")
    kind = section.get("kind")
    if kind == "linear":
        if "A" not in section:
            raise ConfigError("linear map needs the integer matrix 'A'")
        return make_linear(section["A"], grid)
    if kind == "warped_doubling":
        modes = section.get("generator_modes")
        if modes is None:
            raise ConfigError("warped_doubling map needs 'generator_modes'")
        generator = VectorFieldT([ScalarField.from_modes(grid, modes)])
        return make_warped_doubling(generator)
    if kind == "custom":
        if "A" not in section:
            raise ConfigError("custom map needs the integer matrix 'A'")
        displacement = None
        if section.get("displacement_modes") is not None:
            per_component = section["displacement_modes"]
            if len(per_component) != grid.dim:
                raise ConfigError(
                    f"displacement_modes needs one mode list per component ({grid.dim})"
                )
            displacement = VectorFieldT(
                [ScalarField.from_modes(grid, modes) for modes in per_component]
            )
        density = None
        if section.get("eta_modes"):
            density = VolumeDensity.from_modes(grid, section["eta_modes"])
        return TorusMap(grid, section["A"], displacement, density)
    raise ConfigError(f"unknown map kind {kind!r}")


def build_rho(cfg: dict, grid: TorusGrid, omega: VolumeDensity) -> ScalarField:
    section = _require(cfg, "rho")
    if "modes" not in section:
        raise ConfigError("rho section needs a 'modes' list")
    rho = ScalarField.from_modes(grid, section["modes"])
    if section.get("center", False):
        rho = remove_weighted_mean(rho, omega)
    return rho


def build_strategy(cfg: dict, grid: TorusGrid) -> SolutionStrategy:
    raw = cfg.get("strategy", "canonical")
    if isinstance(raw, str):
        return SolutionStrategy(raw)
    custom = raw["custom"]
    alpha = None
    if custom.get("alpha_modes"):
        alpha = ScalarField.from_modes(grid, custom["alpha_modes"])
    strategy = SolutionStrategy.custom(custom.get("harmonic", ()), alpha)
    try:
        strategy.validate_for(grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return strategy
