"""The benchmark's own check of each op's outputs, and the numbers it keeps.

Each check reads back what the CLI wrote, and returns whether the op passed,
the worst ratio of a checked quantity to its bound (a ratio above 1 fails),
the numbers the op reported (kept in the run record for ``--compare``), and
a reason when it failed.  The solve residual is recomputed here from the
written X files with plain numpy, independently of the library.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TRANSFER_BOUND = 1e-4
ORDER_RANGE = (1.8, 2.3)
SOLVE_BOUND = 1e-8
MOSER_DEFAULT_TOLS = (1e-6, 1e-4)


class CheckFailed(Exception):
    pass


def file_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _order_ratio(order) -> float:
    """Distance of a fitted order from 2 over the distance from 2 to the
    edge of ORDER_RANGE on the same side; None (all errors at round-off)
    passes, as in the program."""
    if order is None:
        return 0.0
    edge = ORDER_RANGE[0] if order < 2.0 else ORDER_RANGE[1]
    return abs(order - 2.0) / abs(edge - 2.0)


def _finite(values, what):
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        raise CheckFailed(f"{what} has non-finite entries: {values}")


def _read_json(path: Path) -> dict:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    return json.loads(path.read_text())


def _check_verify(cfg, out):
    report = _read_json(out / "report.json")
    if report.get("scenario_id") != cfg["scenario_id"] or report.get("passed") is not True:
        raise CheckFailed(f"report not passed: {report.get('passed')!r}")
    numbers, ratios = {}, []
    for part in ("response", "derivative"):
        section = report[part]
        if section["t"] != cfg["verify"]["t_values"] or section["passed"] is not True:
            raise CheckFailed(f"{part} check not passed")
        _finite(section["error"], f"{part} errors")
        numbers[f"{part}.error"] = section["error"]
        numbers[f"{part}.fitted_order"] = section["fitted_order"]
        ratios.append(_order_ratio(section["fitted_order"]))
    transfer = report["transfer"]
    if len(cfg["grid"]["resolution"]) == 1:
        if transfer is None:
            raise CheckFailed("no transfer check on an expanding circle map")
        _finite([transfer["residual"]], "transfer residual")
        numbers["transfer.residual"] = transfer["residual"]
        ratios.append(transfer["residual"] / TRANSFER_BOUND)
    elif transfer is not None:
        raise CheckFailed("transfer check reported for a 2-d map")
    return numbers, max(ratios)


def _check_sweep(cfg, out):
    path = out / "sweep.csv"
    if not path.is_file():
        raise CheckFailed("missing output sweep.csv")
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    verify = cfg["verify"]
    expected = [(n, t) for n in verify["resolutions"] for t in verify["t_values"]]
    got = [(int(r["N"]), float(r["t"])) for r in rows]
    if got != expected or any(r["scenario_id"] != cfg["scenario_id"] for r in rows):
        raise CheckFailed(f"sweep rows {got} do not match {expected}")
    keys = ("response_error", "derivative_error", "transfer_residual", "fitted_order")
    numbers = {key: [float(r[key]) for r in rows] for key in keys}
    for key, values in numbers.items():
        _finite(values, key)
    ratios = [v / TRANSFER_BOUND for v in numbers["transfer_residual"]]
    ratios += [_order_ratio(v) for v in numbers["fitted_order"]]
    return numbers, max(ratios)


def _check_moser(cfg, out):
    report = _read_json(out / "moser_report.json")
    moser = cfg["moser"]
    push_tol = moser.get("pushforward_tol", MOSER_DEFAULT_TOLS[0])
    transfer_tol = moser.get("transfer_tol", MOSER_DEFAULT_TOLS[1])
    if report.get("passed") is not True or report.get("steps") != moser["steps"]:
        raise CheckFailed(f"moser report not passed: {report.get('passed')!r}")
    residual = report["pushforward_residual"]
    _finite([residual], "pushforward residual")
    numbers = {"pushforward_residual": residual}
    ratios = [residual / push_tol]
    if moser.get("check_conjugated"):
        transfer = report["transfer"]
        if transfer is None:
            raise CheckFailed("conjugated-map check missing from the report")
        _finite([transfer["residual"]], "transfer residual")
        numbers["transfer.residual"] = transfer["residual"]
        ratios.append(transfer["residual"] / transfer_tol)
    return numbers, max(ratios)


def _grid_modes(shape, modes) -> np.ndarray:
    axes = [np.arange(n) / n for n in shape]
    meshes = np.meshgrid(*axes, indexing="ij")
    out = np.zeros(shape)
    for *k, re, im in modes:
        phase = 2.0 * np.pi * sum(ki * m for ki, m in zip(k, meshes))
        out += re * np.cos(phase) + im * np.sin(phase)
    return out


def _derivative(values: np.ndarray, axis: int) -> np.ndarray:
    n = values.shape[axis]
    k = np.fft.fftfreq(n, d=1.0 / n)
    symbol = 2j * np.pi * k
    symbol[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    return np.fft.ifftn(np.fft.fftn(values) * symbol.reshape(shape)).real


def _read_field(path: Path, shape) -> np.ndarray:
    if path.suffix == ".json":
        obj = _read_json(path)
        if list(obj["resolution"]) != list(shape):
            raise CheckFailed(f"{path.name} has resolution {obj['resolution']}")
        return np.asarray(obj["values"], dtype=float).reshape(shape)
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (int(np.prod(shape)), len(shape) + 1):
        raise CheckFailed(f"{path.name} has shape {table.shape}")
    return table[:, -1].reshape(shape)


def solve_residual(cfg, out) -> tuple:
    """Relative sup residual of div(eta X) + rho eta from the written X
    files, and the sup norm of each X component."""
    shape = tuple(cfg["grid"]["resolution"])
    fmt = cfg["output"]["format"]
    prefix = cfg["output"]["prefix"]
    eta = 1.0 + _grid_modes(shape, cfg["map"].get("eta_modes") or [])
    rho = _grid_modes(shape, cfg["rho"]["modes"])
    if cfg["rho"].get("center"):
        rho = rho - (rho * eta).mean() / eta.mean()
    target = rho * eta
    X = [_read_field(out / f"{prefix}_X{i}.{fmt}", shape) for i in range(len(shape))]
    divergence = sum(_derivative(eta * x, i) for i, x in enumerate(X))
    residual = float(np.max(np.abs(divergence + target)) / np.max(np.abs(target)))
    return residual, [float(np.max(np.abs(x))) for x in X]


def _check_solve(cfg, out):
    fmt, prefix = cfg["output"]["format"], cfg["output"]["prefix"]
    dim = len(cfg["grid"]["resolution"])
    strategy = cfg["strategy"]
    extra = ["u"] if strategy == "gradient" else [f"theta{i}" for i in range(dim)]
    expected = {f"{prefix}_{name}.{fmt}" for name in extra + [f"X{i}" for i in range(dim)]}
    written = {p.name for p in out.iterdir()}
    if written != expected:
        raise CheckFailed(f"solve wrote {sorted(written)}, expected {sorted(expected)}")
    residual, sup = solve_residual(cfg, out)
    return {"residual": residual, "X.sup": sup}, residual / SOLVE_BOUND


CHECKS = {"verify": _check_verify, "sweep": _check_sweep, "moser": _check_moser,
          "solve": _check_solve}


def check_op(command: str, cfg: dict, out: Path) -> dict:
    """{'passed', 'ratio', 'numbers', 'reason'} for an op that exited 0."""
    try:
        numbers, ratio = CHECKS[command](cfg, out)
    except (CheckFailed, KeyError, ValueError, TypeError) as exc:
        return {"passed": False, "ratio": None, "numbers": {},
                "reason": f"{type(exc).__name__}: {exc}"}
    passed = ratio <= 1.0
    return {"passed": passed, "ratio": ratio, "numbers": numbers,
            "reason": None if passed else f"checked quantity at {ratio:.3g} x its bound"}
