"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with -s to see them inline).

Scenario set: circle doubling with flat density, warped doubling with a
nonconstant certified density, and the cat map on the 2-torus, each with two
band-limited response profiles.
"""

import json
import time

import numpy as np
import pytest

from conjresp import (
    ScalarField,
    SolutionStrategy,
    TorusGrid,
    TorusMap,
    VectorFieldT,
    VolumeDensity,
    deformation_derivative,
    derivative_check,
    invariance_defect,
    lie_derivative_density,
    make_warped_doubling,
    moser_transport,
    pushforward_density,
    remove_weighted_mean,
    response_check,
    solve_for_field,
    solve_weighted_poisson,
    transfer_check,
    transported_density,
    divergence,
    gradient,
    ConjugatedMap,
)
from conjresp.cli import main as cli_main
from conjresp.flow import flow_maps


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def custom_strategy(dim: int) -> SolutionStrategy:
    return SolutionStrategy.custom((0.1,) if dim == 1 else (0.1, -0.05))


@pytest.fixture(scope="module")
def warped_map():
    grid = TorusGrid(256)
    generator = VectorFieldT([ScalarField.from_modes(grid, [[1, 0.0, 0.1]])])
    return make_warped_doubling(generator)


@pytest.fixture(scope="module")
def scenarios(warped_map):
    """(name, omega, [rho, rho']) triples at the acceptance resolutions."""
    t1 = TorusGrid(256)
    t2 = TorusGrid((128, 128))
    flat1 = VolumeDensity.lebesgue(t1)
    flat2 = VolumeDensity.lebesgue(t2)
    rho_cos = ScalarField.from_modes(t1, [[1, 1.0, 0.0]])
    rho_sin = ScalarField.from_modes(t1, [[2, 0.0, 1.0]])
    omega_w = warped_map.density
    return [
        ("doubling", flat1, [rho_cos, rho_sin]),
        ("warped-doubling", omega_w,
         [remove_weighted_mean(rho_cos, omega_w), remove_weighted_mean(rho_sin, omega_w)]),
        ("cat-map", flat2,
         [ScalarField.from_modes(t2, [[1, 0, 1.0, 0.0]]),
          ScalarField.from_modes(t2, [[1, 1, 0.0, 1.0]])]),
    ]


@pytest.fixture(scope="module")
def response_scenarios(warped_map):
    """The same scenario set at desk-scale response resolutions (the inputs
    are band-limited, so the checks are resolution-independent)."""
    t1 = TorusGrid(256)
    t2 = TorusGrid((64, 64))
    flat1 = VolumeDensity.lebesgue(t1)
    flat2 = VolumeDensity.lebesgue(t2)
    rho_cos = ScalarField.from_modes(t1, [[1, 1.0, 0.0]])
    rho_sin = ScalarField.from_modes(t1, [[2, 0.0, 1.0]])
    omega_w = warped_map.density
    return [
        ("doubling", flat1, [rho_cos, rho_sin], 16),
        ("warped-doubling", omega_w,
         [remove_weighted_mean(rho_cos, omega_w), remove_weighted_mean(rho_sin, omega_w)], 16),
        ("cat-map", flat2,
         [ScalarField.from_modes(t2, [[1, 0, 1.0, 0.0]]),
          ScalarField.from_modes(t2, [[1, 1, 0.0, 1.0]])], 10),
    ]


T_SWEEP = (1e-2, 5e-3, 2.5e-3)


@pytest.fixture(scope="module")
def canonical_doubling():
    grid = TorusGrid(256)
    omega = VolumeDensity.lebesgue(grid)
    rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
    return grid, omega, rho, solve_for_field(rho, omega)


def test_criterion_1_construction_identity(scenarios):
    strategies = [SolutionStrategy.canonical(), SolutionStrategy.gradient()]
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for name, omega, rhos in scenarios:
        dim = omega.grid.dim
        for rho in rhos:
            for strategy in strategies + [custom_strategy(dim)]:
                X = solve_for_field(rho, omega, strategy)
                target = rho * omega.eta
                residual = (lie_derivative_density(X, omega) + target).max_abs
                worst = max(worst, residual / target.max_abs)
                count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, "construction identity",
           ok, f"{count} solves, worst relative residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_analytic_oracle(canonical_doubling):
    grid, omega, rho, X = canonical_doubling
    x = grid.axis_points(0)
    x_err = float(np.max(np.abs(X.components[0].values + np.sin(2 * np.pi * x) / (2 * np.pi))))
    T = TorusMap(grid, [[2]])
    td = deformation_derivative(T, X)
    td_expected = np.sin(2 * np.pi * x) / np.pi - np.sin(4 * np.pi * x) / (2 * np.pi)
    td_err = float(np.max(np.abs(td.components[0].values - td_expected)))
    ok = x_err <= 1e-12 and td_err <= 1e-11
    report(2, "analytic oracle", ok, f"X error {x_err:.2e}, Tdot error {td_err:.2e}")


def test_criterion_3_first_order_response(response_scenarios):
    start = time.perf_counter()
    summaries = []
    ok = True
    for name, omega, rhos, steps in response_scenarios:
        for i, rho in enumerate(rhos):
            X = solve_for_field(rho, omega)
            rep = response_check(omega, rho, X, T_SWEEP, steps=steps)
            ok = ok and rep.passed and rep.errors[-1] <= 1e-4
            summaries.append(f"{name}/{i}: order {rep.fitted_order:.2f} "
                             f"e(t_min) {rep.errors[-1]:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(3, "first-order response", ok, "; ".join(summaries) + f"; {elapsed:.1f}s")


def test_criterion_4_deformation_derivative(canonical_doubling):
    grid, omega, rho, X = canonical_doubling
    T = TorusMap(grid, [[2]])
    rep = derivative_check(T, X, T_SWEEP, steps=16)
    t2 = TorusGrid((64, 64))
    rho2 = ScalarField.from_modes(t2, [[1, 0, 1.0, 0.0]])
    X2 = solve_for_field(rho2, VolumeDensity.lebesgue(t2))
    cat = TorusMap(t2, [[2, 1], [1, 1]])
    rep2 = derivative_check(cat, X2, T_SWEEP, steps=10)
    identity = TorusMap(grid, [[1]])
    td_identity = deformation_derivative(identity, X)
    identity_sup = max(c.max_abs for c in td_identity.components)
    ok = rep.passed and rep2.passed and identity_sup <= 1e-10
    report(4, "deformation derivative", ok,
           f"doubling order {rep.fitted_order:.2f}, cat order {rep2.fitted_order:.2f}, "
           f"identity |Tdot| {identity_sup:.1e}")


def test_criterion_5_deformed_invariance(canonical_doubling, warped_map):
    grid, omega, rho, X = canonical_doubling
    T = TorusMap(grid, [[2]])
    t = 0.02
    eta_t = pushforward_density(omega, X, t, steps=32)
    r_doubling = transfer_check(ConjugatedMap(T, *flow_maps(X, (t, -t), 32)), eta_t, 512)
    r_doubling_0 = transfer_check(T, omega, 512)

    omega_w = warped_map.density
    rho_w = remove_weighted_mean(rho, omega_w)
    X_w = solve_for_field(rho_w, omega_w)
    eta_w_t = pushforward_density(omega_w, X_w, t, steps=32)
    warped_t = ConjugatedMap(warped_map, *flow_maps(X_w, (t, -t), 32))
    r_warped = transfer_check(warped_t, eta_w_t, 512)
    r_warped_0 = transfer_check(warped_map, omega_w, 512)

    ok = (r_doubling <= 1e-4 and r_warped <= 1e-4
          and r_doubling_0 <= 1e-6 and r_warped_0 <= 1e-6)
    report(5, "deformed-map invariance", ok,
           f"t=0.02: doubling {r_doubling:.1e}, warped {r_warped:.1e}; "
           f"t=0: {r_doubling_0:.1e}, {r_warped_0:.1e}")


def test_criterion_6_solution_multiplicity(canonical_doubling):
    grid, omega, rho, X = canonical_doubling
    c = 0.1
    X_custom = solve_for_field(rho, omega, SolutionStrategy.custom((c,)))
    shift_err = float(np.max(np.abs(
        X_custom.components[0].values - (X.components[0].values + c / omega.eta.values))))

    T = TorusMap(grid, [[2]])
    V = X_custom - X
    _, defect_sup = invariance_defect(T, V)
    td_diff = deformation_derivative(T, X_custom) - deformation_derivative(T, X)
    td_diff_sup = max(comp.max_abs for comp in td_diff.components)

    rep_can = response_check(omega, rho, X, T_SWEEP, steps=16)
    rep_cus = response_check(omega, rho, X_custom, T_SWEEP, steps=16)

    # 2-torus: adding d(alpha) changes X but not the measured response.  The
    # d(alpha) field is ~40x larger in sup norm, so its quadratic
    # finite-difference constant calls for a proportionally smaller t sweep
    # (the constant is measured, not prescribed); the acceptance bar stays
    # the criterion-3 tolerance of 1e-4 at the smallest t.
    t2 = TorusGrid((64, 64))
    omega2 = VolumeDensity.lebesgue(t2)
    rho2 = ScalarField.from_modes(t2, [[1, 0, 1.0, 0.0]])
    alpha = ScalarField.from_modes(t2, [[0, 1, 0.0, 1.0]])
    X2 = solve_for_field(rho2, omega2)
    X2_alpha = solve_for_field(rho2, omega2, SolutionStrategy.custom((0.0, 0.0), alpha))
    change = max((a - b).max_abs for a, b in zip(X2_alpha.components, X2.components))
    alpha_sweep = (2e-3, 1e-3, 5e-4)
    rep_alpha = response_check(omega2, rho2, X2_alpha, alpha_sweep, steps=10)
    t_small = alpha_sweep[-1]

    def measured_response(field):
        plus = pushforward_density(omega2, field, t_small, steps=10).eta.values
        minus = pushforward_density(omega2, field, -t_small, steps=10).eta.values
        return (plus - minus) / (2.0 * t_small)

    response_shift = float(np.max(np.abs(
        measured_response(X2_alpha) - measured_response(X2))))

    ok = (shift_err <= 1e-12
          and abs(defect_sup - c) <= 1e-10
          and abs(td_diff_sup - c) <= 1e-10
          and rep_can.passed and rep_can.errors[-1] <= 1e-4
          and rep_cus.passed and rep_cus.errors[-1] <= 1e-4
          and change > 1.0
          and rep_alpha.passed and rep_alpha.errors[-1] <= 1e-4
          and response_shift <= 1e-4)
    report(6, "solution multiplicity and kernel", ok,
           f"X'=X+c/eta err {shift_err:.1e}, defect sup {defect_sup:.6f}, "
           f"|dTdot| {td_diff_sup:.6f}, d(alpha) changes X by {change:.2f} "
           f"but the measured response by {response_shift:.1e}, "
           f"responses pass: {rep_can.passed}/{rep_cus.passed}/{rep_alpha.passed}")


def test_criterion_7_weighted_poisson(warped_map):
    grid = TorusGrid(256)
    omega = VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])
    u_true = ScalarField.from_modes(grid, [[1, 0.0, 1.0]])
    g = divergence(VectorFieldT([omega.eta * u_true.derivative(0)]))
    u = solve_weighted_poisson(omega, g)
    u_err = float(np.max(np.abs(u.values - u_true.values)))

    rho = ScalarField.from_modes(grid, [[2, 1.0, 0.0]])  # zero mean against eta
    X = solve_for_field(rho, omega, SolutionStrategy.gradient())
    target = rho * omega.eta
    residual = (lie_derivative_density(X, omega) + target).max_abs / target.max_abs
    rep = response_check(omega, rho, X, T_SWEEP, steps=16)

    ok = u_err <= 1e-8 and residual <= 1e-8 and rep.passed and rep.errors[-1] <= 1e-4
    report(7, "weighted Poisson solver", ok,
           f"manufactured u error {u_err:.1e}, gradient residual {residual:.1e}, "
           f"response order {rep.fitted_order:.2f}")


def test_criterion_8_moser_transport():
    grid = TorusGrid(128)
    omega0 = VolumeDensity.lebesgue(grid)
    omega1 = VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])
    transport = moser_transport(omega0, omega1, steps=256)
    pushed = transported_density(omega0, transport.inverse_transport)
    push_residual = float(np.max(np.abs(pushed.eta.values - omega1.eta.values)))

    doubling = TorusMap(grid, [[2]])
    conjugated = ConjugatedMap(doubling, transport.transport, transport.inverse_transport)
    trans_residual = transfer_check(conjugated, omega1, 512)

    ok = push_residual <= 1e-6 and trans_residual <= 1e-4
    report(8, "volume transport", ok,
           f"pushforward residual {push_residual:.1e}, "
           f"conjugated transfer residual {trans_residual:.1e}")


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "scenario_id": "determinism",
        "grid": {"resolution": [64]},
        "map": {"kind": "linear", "A": [[2]]},
        "rho": {"modes": [[1, 1.0, 0.0]]},
        "strategy": "canonical",
        "verify": {"t_values": [1e-2, 5e-3, 2.5e-3], "steps": 16,
                   "transfer_resolution": 128},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli_main(["sweep", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 0
        outs.append((out / "sweep.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report(9, "determinism", ok,
           f"two sweep runs, {len(outs[0])} bytes, byte-identical: {outs[0] == outs[1]}")
