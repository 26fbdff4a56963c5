"""Pushforward densities, finite-difference order checks, transfer residuals.

Oracles: volume preservation for divergence-free fields, the first-order
expansion eta_t = eta + t rho eta + O(t^2) with a measured second-order
bound, and exact transfer sums for the undeformed doubling map.
"""

import numpy as np
import pytest

from conjresp import (
    ConjugatedMap,
    ExpansionError,
    ScalarField,
    SolutionStrategy,
    TorusGrid,
    TorusMap,
    VectorFieldT,
    VolumeDensity,
    derivative_check,
    make_warped_doubling,
    pushforward_density,
    response_check,
    solve_for_field,
    transfer_check,
)
from conjresp.flow import flow_maps


def canonical_setup(n=128):
    grid = TorusGrid(n)
    omega = VolumeDensity.lebesgue(grid)
    rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
    X = solve_for_field(rho, omega)
    return grid, omega, rho, X


class TestPushforward:
    def test_t_zero_is_unchanged(self):
        grid, omega, _, X = canonical_setup()
        eta = pushforward_density(omega, X, 0.0)
        assert np.max(np.abs(eta.eta.values - omega.eta.values)) == 0.0

    def test_divergence_free_2d(self):
        grid = TorusGrid((32, 32))
        psi = ScalarField.from_modes(grid, [[1, 1, 0.1, 0.0], [0, 1, 0.0, 0.05]])
        X = VectorFieldT([psi.derivative(1), -psi.derivative(0)])
        omega = VolumeDensity.lebesgue(grid)
        eta = pushforward_density(omega, X, 0.5)
        assert np.max(np.abs(eta.eta.values - 1.0)) <= 1e-8

    def test_first_order_model(self):
        # eta_t = 1 + t cos(2 pi x) + O(t^2), deviation bounded by 5 t^2
        grid, omega, rho, X = canonical_setup()
        x = grid.axis_points(0)
        for t in (1e-2, 5e-3):
            eta = pushforward_density(omega, X, t)
            deviation = np.max(np.abs(eta.eta.values - (1.0 + t * np.cos(2 * np.pi * x))))
            assert deviation <= 5 * t**2

    def test_mass_and_positivity(self):
        grid, omega, _, X = canonical_setup()
        for t in (0.1, -0.1, 0.5):
            eta = pushforward_density(omega, X, t)
            assert abs(eta.eta.mean - 1.0) <= 1e-8
            assert eta.eta.values.min() > 0.0


class TestResponseCheck:
    def test_zero_response(self):
        grid = TorusGrid(64)
        omega = VolumeDensity.lebesgue(grid)
        report = response_check(omega, ScalarField.constant(grid, 0.0),
                                VectorFieldT.zero(grid), [1e-2, 5e-3, 2.5e-3])
        assert report.passed and report.fitted_order is None
        assert max(report.errors) <= 1e-10

    def test_doubling_cosine_order_two(self):
        grid, omega, rho, X = canonical_setup()
        report = response_check(omega, rho, X, [1e-2, 5e-3, 2.5e-3])
        assert report.fitted_order == pytest.approx(2.0, abs=0.3)
        assert report.passed
        assert report.errors[-1] <= report.constant * (2.5e-3) ** 2 * 1.0000001

    def test_strategy_independence(self):
        grid, omega, rho, _ = canonical_setup()
        for strategy in (SolutionStrategy.canonical(), SolutionStrategy.gradient(),
                         SolutionStrategy.custom((0.1,))):
            X = solve_for_field(rho, omega, strategy)
            report = response_check(omega, rho, X, [1e-2, 5e-3, 2.5e-3])
            assert report.passed, strategy.kind

    def test_response_profile_is_strategy_invariant(self):
        # the measured (eta_t - eta)/t profiles of two strategies agree to O(t)
        grid, omega, rho, _ = canonical_setup()
        xc = solve_for_field(rho, omega, SolutionStrategy.canonical())
        xg = solve_for_field(rho, omega, SolutionStrategy.custom((0.2,)))
        for t in (2e-2, 1e-2):
            profiles = []
            for X in (xc, xg):
                eta_t = pushforward_density(omega, X, t)
                profiles.append((eta_t.eta.values - omega.eta.values) / t)
            assert np.max(np.abs(profiles[0] - profiles[1])) <= 2.0 * t

    def test_t_value_validation(self):
        grid, omega, rho, X = canonical_setup(64)
        with pytest.raises(ValueError):
            response_check(omega, rho, X, [])
        with pytest.raises(ValueError):
            response_check(omega, rho, X, [1e-3, 1e-2])
        with pytest.raises(ValueError):
            response_check(omega, rho, X, [-1e-2])

    def test_report_serialization(self):
        grid, omega, rho, X = canonical_setup(64)
        report = response_check(omega, rho, X, [1e-2, 5e-3, 2.5e-3])
        obj = report.to_json()
        assert set(obj) == {"t", "error", "fitted_order", "order_stderr", "constant", "passed"}
        assert obj["passed"] is True
        assert len(obj["t"]) == len(obj["error"]) == 3

    def test_order_stderr_is_the_least_squares_standard_error(self):
        # oracle: s^2 (A^T A)^-1 of the design matrix A = [log t, 1], with s^2
        # the residual variance on len(t) - 2 degrees of freedom
        grid, omega, rho, X = canonical_setup(64)
        t_values = [2e-2, 1e-2, 5e-3, 2.5e-3]
        report = response_check(omega, rho, X, t_values)
        A = np.stack([np.log(t_values), np.ones(4)], axis=1)
        y = np.log(report.errors)
        coefficients, residual = np.linalg.lstsq(A, y, rcond=None)[:2]
        variance = residual[0] / 2 * np.linalg.inv(A.T @ A)[0, 0]
        assert report.fitted_order == pytest.approx(coefficients[0], rel=1e-12)
        assert 0.0 < report.order_stderr == pytest.approx(np.sqrt(variance), rel=1e-6)
        # two points fit exactly, with no residual to estimate the error from
        assert response_check(omega, rho, X, t_values[:2]).order_stderr is None


class TestDerivativeCheck:
    def test_zero_field(self):
        grid = TorusGrid(64)
        T = TorusMap(grid, [[2]])
        report = derivative_check(T, VectorFieldT.zero(grid), [1e-2, 5e-3, 2.5e-3])
        assert report.passed and max(report.errors) <= 1e-12

    def test_doubling_order_two(self):
        grid, omega, rho, X = canonical_setup()
        T = TorusMap(grid, [[2]])
        report = derivative_check(T, X, [1e-2, 5e-3, 2.5e-3])
        assert report.fitted_order == pytest.approx(2.0, abs=0.3)
        assert report.passed

    def test_identity_map(self):
        grid, omega, rho, X = canonical_setup(64)
        T = TorusMap(grid, [[1]])
        report = derivative_check(T, X, [1e-2, 5e-3])
        assert report.passed
        assert max(report.errors) <= 1e-10

    def test_single_large_t_flagged(self):
        grid, omega, rho, X = canonical_setup(64)
        T = TorusMap(grid, [[2]])
        report = derivative_check(T, X, [0.5])
        assert report.fitted_order is None
        assert not report.passed


class TestTransferCheck:
    def test_doubling_exact_at_t_zero(self):
        grid = TorusGrid(64)
        T = TorusMap(grid, [[2]])
        residual = transfer_check(T, VolumeDensity.lebesgue(grid), 256)
        assert residual <= 1e-12

    def test_warped_doubling_is_exact(self):
        # preimages through the conjugacy h o D o h^{-1}: round-off only
        grid = TorusGrid(256)
        generator = VectorFieldT([ScalarField.from_modes(grid, [[1, 0.0, 0.1]])])
        T = make_warped_doubling(generator)
        assert transfer_check(T, T.density, 512) <= 1e-13

    def test_deformed_doubling(self):
        grid, omega, rho, X = canonical_setup(256)
        T = TorusMap(grid, [[2]])
        t = 0.02
        eta_t = pushforward_density(omega, X, t)
        residual = transfer_check(ConjugatedMap(T, *flow_maps(X, (t, -t))), eta_t, 512)
        assert residual <= 1e-4

    def test_wrong_density_is_detected(self):
        grid = TorusGrid(128)
        T = TorusMap(grid, [[2]])
        skewed = VolumeDensity.from_modes(grid, [[1, 0.3, 0.0]])
        assert transfer_check(T, skewed, 128) > 0.1

    def test_resolution_must_be_an_integer(self):
        grid = TorusGrid(64)
        T = TorusMap(grid, [[2]])
        with pytest.raises(ValueError, match="must be integers"):
            transfer_check(T, T.density, 512.7)
        assert transfer_check(T, T.density, np.int64(512)) == transfer_check(T, T.density, 512)

    def test_non_expanding_rejected(self):
        grid = TorusGrid(64)
        T = TorusMap(grid, [[1]])
        with pytest.raises(ExpansionError):
            transfer_check(T, VolumeDensity.lebesgue(grid), 64)
