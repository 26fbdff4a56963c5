"""Batch front end: solve / verify / moser / sweep pipelines driven by a
JSON config, emitting machine-readable results and plot-ready tables.

    conjresp <solve|verify|moser|sweep> --config cfg.json --out dir [--quiet]

Exit codes: 0 ok, 2 validation failure, 3 convergence failure,
4 verification failure.  Identical configs produce byte-identical outputs
(fixed step and term rules, no randomness).
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from .config import (PUSHFORWARD_TOL, TRANSFER_TOL, build_grid, build_map, build_rho,
                     build_strategy, load_config, naming, required)
from .dynamics import ConjugatedMap
from .errors import ConfigError, ConstructionError, ConvergenceError, QualityError
from .exactness import lie_derivative_density, solve_for_field, solve_potential
from .fields import ScalarField, VolumeDensity, save_field
from .flow import flow_maps, moser_transport, transported_density
from .verify import derivative_check, pushforward_density, response_check, transfer_check

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFICATION = 4

DENSITY_MATCH_TOL = 1e-12  # eta0 vs the map's density, for moser's conjugated check

__all__ = ["main"]


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _problem(cfg: dict, grid):
    """The map, its invariant density, rho and the strategy on one grid: the
    set-up shared by solve, verify and every sweep resolution."""
    torus_map = build_map(cfg, grid)
    omega = torus_map.density
    rho = build_rho(cfg, grid, omega)
    return torus_map, omega, rho, build_strategy(cfg, grid)


def _checks(cfg: dict, grid, transfer_ts):
    """Response and derivative reports of verify.t_values on one grid, and on
    an expanding circle map one {"t", "resolution", "residual"} transfer check
    of phi^t_* omega under phi^t o T o phi^{-t} per t in transfer_ts, else None."""
    t_values = required(cfg, "verify", "t_values")
    torus_map, omega, rho, strategy = _problem(cfg, grid)

    X = solve_for_field(rho, omega, strategy)
    # every check's flow maps in one batch; only expanding circle maps get transfer checks
    flow_maps(X, [*t_values, *(transfer_ts if torus_map.expanding else ())])
    response = response_check(omega, rho, X, t_values)
    derivative = derivative_check(torus_map, X, t_values)
    if not torus_map.expanding:
        return response, derivative, None
    resolution = cfg["verify"]["transfer_resolution"]
    transfers = []
    for t in transfer_ts:
        eta_t = pushforward_density(omega, X, t)
        deformed = ConjugatedMap(torus_map, *flow_maps(X, (t, -t)))
        residual = transfer_check(deformed, eta_t, resolution)
        transfers.append({"t": t, "resolution": resolution, "residual": residual})
    return response, derivative, transfers


def cmd_solve(cfg: dict, out: Path, quiet: bool) -> int:
    grid = build_grid(cfg)
    _, omega, rho, strategy = _problem(cfg, grid)
    prefix, fmt = cfg["output"]["prefix"], cfg["output"]["format"]

    potential, X = solve_potential(rho, omega, strategy)
    named = ([("u", potential)] if isinstance(potential, ScalarField)
             else [(f"theta{i}", c) for i, c in enumerate(potential.components)])
    for name, field in named + [(f"X{i}", c) for i, c in enumerate(X.components)]:
        save_field(field, out / f"{prefix}_{name}.{fmt}", fmt)

    target = rho * omega.eta
    residual = (lie_derivative_density(X, omega) + target).max_abs
    scale = max(target.max_abs, 1e-300)
    _say(quiet, f"strategy {strategy.kind}: max|div(eta X) + rho eta| = "
                f"{residual:.3e} (relative {residual / scale:.3e})")
    return EXIT_OK


def cmd_verify(cfg: dict, out: Path, quiet: bool) -> int:
    transfer_ts = [cfg["verify"]["transfer_t"]]
    response, derivative, transfers = _checks(cfg, build_grid(cfg), transfer_ts)

    transfer = None
    transfer_passed = True
    if transfers is not None:
        transfer = transfers[0]
        transfer_passed = transfer["residual"] <= TRANSFER_TOL
        transfer["passed"] = transfer_passed

    passed = response.passed and derivative.passed and transfer_passed
    report = {
        "scenario_id": cfg["scenario_id"],
        "response": response.to_json(),
        "derivative": derivative.to_json(),
        "transfer": transfer,
        "passed": bool(passed),
    }
    _write_json(out / "report.json", report)
    _say(quiet, f"response: {'pass' if response.passed else 'FAIL'}")
    _say(quiet, f"derivative: {'pass' if derivative.passed else 'FAIL'}")
    _say(quiet, "transfer: skipped (map is not an expanding circle map)" if transfer is None
         else f"transfer: {'pass' if transfer_passed else 'FAIL'}")
    if not passed:
        failing = [n for n, ok in (("response", response.passed),
                                   ("derivative", derivative.passed),
                                   ("transfer", transfer_passed)) if not ok]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_moser(cfg: dict, out: Path, quiet: bool) -> int:
    grid = build_grid(cfg)
    moser_cfg = cfg["moser"]
    with naming("moser.eta0_modes"):
        omega0 = (VolumeDensity.from_modes(grid, moser_cfg["eta0_modes"])
                  if moser_cfg["eta0_modes"] else VolumeDensity.lebesgue(grid))
    eta1_modes = required(cfg, "moser", "eta1_modes")
    with naming("moser.eta1_modes"):
        omega1 = VolumeDensity.from_modes(grid, eta1_modes)
    steps = moser_cfg["steps"]
    torus_map = None
    if moser_cfg["check_conjugated"]:
        torus_map = build_map(cfg, grid)
        if not torus_map.expanding:  # the transfer check sums over preimages
            raise ConfigError("moser.check_conjugated needs an expanding circle map; "
                              "the configured map is not one")
        # psi o T o psi^{-1} preserves psi_* eta0 = eta1 only if T preserves eta0
        mismatch = float(np.max(np.abs(omega0.eta.values - torus_map.density.eta.values)))
        if mismatch > DENSITY_MATCH_TOL:
            raise ConfigError(
                "check_conjugated needs eta0 to be the map's invariant density; "
                f"max|eta0 - map density| = {mismatch:.3e}"
            )

    transport = moser_transport(omega0, omega1, steps=steps)
    pushed = transported_density(omega0, transport.inverse_transport)
    residual = float(np.max(np.abs(pushed.eta.values - omega1.eta.values)))
    _say(quiet, f"pushforward residual max|psi_* eta0 - eta1| = {residual:.3e}")

    # (name, residual, tolerance) of each check made
    checks = [("pushforward", residual, PUSHFORWARD_TOL)]
    transfer = None
    if torus_map is not None:
        conjugated = ConjugatedMap(torus_map, transport.transport, transport.inverse_transport)
        resolution = moser_cfg["transfer_resolution"]
        transfer_residual = transfer_check(conjugated, omega1, resolution)
        checks.append(("conjugated-map transfer", transfer_residual, TRANSFER_TOL))
        transfer = {"resolution": resolution, "residual": transfer_residual,
                    "passed": transfer_residual <= TRANSFER_TOL}
        _say(quiet, f"conjugated-map transfer residual = {transfer_residual:.3e}")

    failing = [f"{name} residual {value:.3e} > {tol:.1e}" for name, value, tol in checks
               if not value <= tol]
    passed = not failing
    report = {
        "scenario_id": cfg["scenario_id"],
        "steps": steps,
        "substeps": transport.substeps,
        "submaps": transport.submaps,
        "pushforward_residual": residual,
        "pushforward_tol": PUSHFORWARD_TOL,
        "transfer": transfer,
        "passed": bool(passed),
    }
    _write_json(out / "moser_report.json", report)
    if not passed:
        print(f"transport check failed: {'; '.join(failing)}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_sweep(cfg: dict, out: Path, quiet: bool) -> int:
    grids = [build_grid(cfg, n) for n in cfg["verify"]["resolutions"] or [None]]

    rows = []
    for grid in grids:
        response, derivative, transfers = _checks(cfg, grid, cfg["verify"]["t_values"])
        fitted = response.fitted_order if response.fitted_order is not None else float("nan")
        residuals = ([record["residual"] for record in transfers] if transfers is not None
                     else [float("nan")] * len(response.t_values))
        for t, re_, de, tr in zip(response.t_values, response.errors, derivative.errors,
                                  residuals):
            rows.append([cfg["scenario_id"], grid.resolution[0],
                         *(f"{value:.17g}" for value in (t, re_, de, tr, fitted))])
    with open(out / "sweep.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")  # quotes only the cells that need it
        writer.writerow(["scenario_id", "N", "t", "response_error", "derivative_error",
                         "transfer_residual", "fitted_order"])
        writer.writerows(rows)
    _say(quiet, f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return EXIT_OK


_COMMANDS = {"solve": cmd_solve, "verify": cmd_verify, "moser": cmd_moser,
             "sweep": cmd_sweep}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjresp",
        description="Construct and verify conjugacy deformations of "
                    "measure-preserving torus maps.",
    )
    parser.add_argument("command", choices=_COMMANDS, help="the pipeline to run")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress prints")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out, created = Path(args.out), None
    try:
        cfg = load_config(args.config)
        try:
            # the topmost directory this run makes, removed again if it exits 2
            created = next((p for p in reversed((out, *out.parents)) if not p.exists()), None)
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        return _COMMANDS[args.command](cfg, out, args.quiet)
    except ValueError as exc:  # ConfigError, NormalizationError, PositivityError, ...
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, ConstructionError, QualityError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
