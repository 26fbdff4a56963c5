"""Torus maps, warped doubling, deformed families and the deformation
derivative.

Oracles: hand evaluations for linear maps (-2 X(x) + X(2x) for the doubling
map), the inverse-function theorem for the warped invariant density, central
finite differences of the deformed family, and lift-endpoint degree counts.
"""

import numpy as np
import pytest

from conjresp import (
    DeformedMap,
    ExpansionError,
    ScalarField,
    TorusGrid,
    VectorFieldT,
    deformation_derivative,
    integrate_flow,
    invariance_defect,
    make_linear,
    make_warped_doubling,
    solve_for_field,
    wrap_difference,
    SolutionStrategy,
    TorusMap,
    VolumeDensity,
)
from conjresp.dynamics import EXPANSION_MARGIN


def canonical_field(grid):
    x = grid.axis_points(0)
    return VectorFieldT([ScalarField(grid, -np.sin(2 * np.pi * x) / (2 * np.pi))])


@pytest.fixture(scope="module")
def warped():
    grid = TorusGrid(256)
    generator = VectorFieldT([ScalarField.from_modes(grid, [[1, 0.0, 0.1]])])
    return make_warped_doubling(generator)


class TestMakeLinear:
    def test_doubling(self):
        T = make_linear([[2]], TorusGrid(32))
        assert abs(T([0.3])[0, 0] - 0.6) <= 1e-15
        assert T.degree == 2
        assert T.certified and T.certificate_residual == 0.0

    def test_cat_map(self):
        T = make_linear([[2, 1], [1, 1]], TorusGrid((16, 16)))
        got = T([[0.5, 0.5]])[0]
        assert np.allclose(got, [0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("resolution, matrix", [((16, 16), [[2, 1], [1, 1]]),
                                                    (16, [[1]])])
    def test_flat_integer_linear_map_is_certified_exactly(self, resolution, matrix):
        # the certificate follows from the inputs, however the map is built
        T = TorusMap(TorusGrid(resolution), matrix)
        assert T.certified and T.certificate_residual == 0.0

    def test_identity(self):
        T = make_linear([[1]], TorusGrid(16))
        pts = np.array([[0.12], [0.8]])
        assert np.array_equal(T(pts), pts)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            make_linear([[0]], TorusGrid(16))
        with pytest.raises(ValueError):
            make_linear([[1, 1], [1, 1]], TorusGrid((16, 16)))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            make_linear([[1.5]], TorusGrid(16))
        with pytest.raises(ValueError, match="integer matrix"):
            make_linear([["a"]], TorusGrid(16))


class TestWarpedDoubling:
    def test_zero_generator_is_plain_doubling(self):
        grid = TorusGrid(64)
        T = make_warped_doubling(VectorFieldT.zero(grid))
        assert T.displacement.sup_norm <= 1e-14
        assert np.max(np.abs(T.density.eta.values - 1.0)) <= 1e-13

    def test_density_positive_unit_mass(self, warped):
        eta = warped.density.eta
        assert eta.values.min() > 0.0
        assert abs(eta.mean - 1.0) <= 1e-10

    def test_density_matches_inverse_function_theorem(self, warped):
        # independent oracle: eta(y) = (h^{-1})'(y) = 1 / h'(h^{-1}(y))
        grid = warped.grid
        generator = VectorFieldT([ScalarField.from_modes(grid, [[1, 0.0, 0.1]])])
        pts = grid.points()
        back = integrate_flow(generator, -1.0, pts, steps=256)
        fwd = integrate_flow(generator, 1.0, back.points, steps=256)
        oracle = 1.0 / fwd.jacobians[:, 0, 0]
        assert np.max(np.abs(warped.density.eta.values.ravel() - oracle)) <= 1e-9

    def test_certificate(self, warped):
        assert warped.certified
        assert warped.certificate_residual <= 1e-6

    def test_weakly_expanding_map_is_uncertified_not_rejected(self):
        # margin 0.0061 < EXPANSION_MARGIN: one predicate skips the certificate
        # and refuses preimages, instead of the certificate calling preimages
        grid = TorusGrid(64)
        T = make_warped_doubling(VectorFieldT([ScalarField.from_modes(grid, [[1, 0.064, 0.0]])]))
        assert 0.0 < T.expansion_margin() < EXPANSION_MARGIN
        assert not T.expanding and not T.certified and T.certificate_residual is None
        with pytest.raises(ExpansionError):
            T.preimages_with_derivative(np.array([0.5]))

    def test_conjugacy_identity(self, warped):
        # T(h(x)) = h(2x): both sides computable independently
        grid = warped.grid
        generator = VectorFieldT([ScalarField.from_modes(grid, [[1, 0.0, 0.1]])])
        rng = np.random.default_rng(3)
        pts = rng.random((40, 1))
        h_pts = integrate_flow(generator, 1.0, pts, steps=256).points
        lhs = warped(h_pts)
        rhs = integrate_flow(generator, 1.0, (2.0 * pts) % 1.0, steps=256).points
        assert np.max(np.abs(wrap_difference(lhs - rhs))) <= 1e-9


class TestDeformationDerivative:
    def test_identity_map_gives_zero(self):
        grid = TorusGrid(64)
        T = make_linear([[1]], grid)
        X = canonical_field(grid)
        td = deformation_derivative(T, X)
        assert td.components[0].max_abs <= 1e-12

    def test_doubling_oracle(self):
        # -2 X(x) + X(2x) with X = -sin(2 pi x)/(2 pi):
        # sin(2 pi x)/pi - sin(4 pi x)/(2 pi)
        grid = TorusGrid(64)
        T = make_linear([[2]], grid)
        td = deformation_derivative(T, canonical_field(grid))
        x = grid.axis_points(0)
        expected = np.sin(2 * np.pi * x) / np.pi - np.sin(4 * np.pi * x) / (2 * np.pi)
        assert np.max(np.abs(td.components[0].values - expected)) <= 1e-11

    def test_zero_field(self):
        grid = TorusGrid(32)
        td = deformation_derivative(make_linear([[2]], grid), VectorFieldT.zero(grid))
        assert td.components[0].max_abs == 0.0

    def test_two_torus(self):
        grid = TorusGrid((32, 32))
        T = make_linear([[2, 1], [1, 1]], grid)
        rho = ScalarField.from_modes(grid, [[1, 0, 1.0, 0.0]])
        X = solve_for_field(rho, VolumeDensity.lebesgue(grid))
        td = deformation_derivative(T, X)
        # oracle: evaluate -A X(x) + X(A x) directly at a few points
        rng = np.random.default_rng(5)
        idx = rng.integers(0, grid.size, size=10)
        pts = grid.points()[idx]
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        expected = -X.sample(pts) @ A.T + X.sample((pts @ A.T) % 1.0)
        assert np.max(np.abs(td.values_matrix()[idx] - expected)) <= 1e-11


class TestTorusMapJacobian:
    def test_two_torus_jacobian_is_read_off_the_grid(self):
        grid = TorusGrid((16, 32))
        g = VectorFieldT([ScalarField.from_modes(grid, [[1, 2, 0.01, 0.02]]),
                          ScalarField.from_modes(grid, [[0, 1, 0.0, 0.03], [2, -1, 0.01, 0.0]])])
        A = np.array([[2, 1], [1, 1]])
        T = TorusMap(grid, A, g)
        want = np.empty((grid.size, 2, 2))
        for i in range(2):
            for j in range(2):
                want[:, i, j] = A[i, j] + g.components[i].derivative(j).values.ravel()
        assert np.array_equal(T.jacobian(grid.points()), want)
        # off the grid it is the interpolant, which agrees at shifted grid points
        assert np.max(np.abs(T.jacobian(grid.points() + 1.0) - want)) <= 1e-13


class TestDeformedMap:
    def test_t_zero_is_base(self, warped):
        # the flow maps of t = 0 are the zero displacement: lifts and
        # preimages are the base map's bit for bit, and so is the call on
        # [0, 1); off it the call reduces the point first, so only rounding
        inside = np.array([[0.0], [0.3], [0.5], [0.77], [0.999]])
        outside = np.array([[-0.4], [-1e-3], [1.0], [1.3], [2.75]])
        y = np.linspace(0.0, 1.0, 17, endpoint=False)
        for T in (make_linear([[2]], TorusGrid(64)), warped):
            D = DeformedMap(T, canonical_field(T.grid), 0.0)
            for pts in (inside, outside):
                assert np.array_equal(D.lift(pts), T.lift(pts))
            assert np.array_equal(D(inside), T(inside))
            assert np.max(np.abs(wrap_difference(D(outside) - T(outside)))) <= 1e-15
            pre, deriv = D.preimages_with_derivative(y)
            base_pre, base_deriv = T.preimages_with_derivative(y)
            assert np.array_equal(pre, base_pre)
            assert np.array_equal(deriv, base_deriv)

    def test_finite_difference_matches_derivative(self):
        grid = TorusGrid(64)
        T = make_linear([[2]], grid)
        X = canonical_field(grid)
        td = deformation_derivative(T, X).values_matrix()
        pts = grid.points()
        t = 1e-3
        plus = DeformedMap(T, X, t, steps=16)(pts)
        minus = DeformedMap(T, X, -t, steps=16)(pts)
        diff = wrap_difference(plus - minus) / (2 * t)
        assert np.max(np.abs(diff - td)) <= 1e-5

    def test_degree_preserved(self):
        grid = TorusGrid(64)
        T = make_linear([[2]], grid)
        X = canonical_field(grid)
        D = DeformedMap(T, X, 0.05, steps=64)
        ends = D.lift(np.array([[0.0], [1.0]]))
        assert abs((ends[1, 0] - ends[0, 0]) - 2.0) <= 1e-9

    def test_conjugacy_consistency(self):
        # T_t o phi^t = phi^t o T pointwise
        grid = TorusGrid(64)
        T = make_linear([[2]], grid)
        X = canonical_field(grid)
        t = 0.2
        D = DeformedMap(T, X, t, steps=64)
        rng = np.random.default_rng(6)
        pts = rng.random((30, 1))
        lhs = D(integrate_flow(X, t, pts, steps=64).points)
        rhs = integrate_flow(X, t, T(pts), steps=64).points
        assert np.max(np.abs(wrap_difference(lhs - rhs))) <= 1e-8

    def test_first_order_law(self):
        # ||(T_t - T)/t - Tdot|| decays linearly on a geometric t sequence
        grid = TorusGrid(64)
        T = make_linear([[2]], grid)
        X = canonical_field(grid)
        td = deformation_derivative(T, X).values_matrix()
        pts = grid.points()
        base = T(pts)
        errors = []
        for t in (4e-2, 2e-2, 1e-2, 5e-3):
            fwd = DeformedMap(T, X, t, steps=16)(pts)
            err = np.max(np.abs(wrap_difference(fwd - base) / t - td))
            errors.append(err)
        order = np.polyfit(np.log([4e-2, 2e-2, 1e-2, 5e-3]), np.log(errors), 1)[0]
        assert 0.8 <= order <= 1.2

    def test_preimages_match_eval(self, warped):
        X = canonical_field(warped.grid)
        D = DeformedMap(warped, X, 0.02, steps=32)
        y = np.linspace(0.0, 1.0, 17, endpoint=False)
        pre, deriv = D.preimages_with_derivative(y)
        assert pre.shape == (2, 17)
        back = D(pre.reshape(-1, 1)).reshape(2, 17)
        assert np.max(np.abs(wrap_difference(back - y[None, :]))) <= 1e-9
        # derivative against a central difference of the deformed lift
        eps = 1e-6
        up = D.lift((pre + eps).reshape(-1, 1)).reshape(2, 17)
        down = D.lift((pre - eps).reshape(-1, 1)).reshape(2, 17)
        fd = (up - down) / (2 * eps)
        assert np.max(np.abs(fd - deriv)) <= 1e-5


class TestKernelLaw:
    def test_derivative_difference_is_invariance_defect(self):
        # Tdot(X) - Tdot(Y) = -(DT(V) - V o T) with V = X - Y, identically
        grid = TorusGrid(64)
        T = make_linear([[2]], grid)
        omega = VolumeDensity.lebesgue(grid)
        rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
        X = solve_for_field(rho, omega, SolutionStrategy.canonical())
        Y = solve_for_field(rho, omega, SolutionStrategy.custom((0.1,)))
        V = X - Y
        lhs = deformation_derivative(T, X) - deformation_derivative(T, Y)
        DTV = T.jacobian(T.grid.points())[:, 0, 0] * V.components[0].values.ravel()
        VoT = V.sample(T(grid.points()))[:, 0]
        rhs = -(DTV - VoT)
        assert np.max(np.abs(lhs.components[0].values.ravel() - rhs)) <= 1e-9


class TestInvarianceDefect:
    def test_zero_field(self):
        grid = TorusGrid(32)
        field, sup = invariance_defect(make_linear([[2]], grid), VectorFieldT.zero(grid))
        assert sup == 0.0 and field.max_abs == 0.0

    def test_doubling_constant_field(self):
        # DT = 2: defect of the constant c is |2c - c| = |c| everywhere
        grid = TorusGrid(32)
        c = 0.37
        field, sup = invariance_defect(
            make_linear([[2]], grid), VectorFieldT([ScalarField.constant(grid, c)])
        )
        assert abs(sup - c) <= 1e-14
        assert np.max(np.abs(field.values - c)) <= 1e-14

    def test_identity_map_any_field(self):
        grid = TorusGrid(64)
        x = grid.axis_points(0)
        V = VectorFieldT([ScalarField(grid, 0.3 + 0.2 * np.sin(2 * np.pi * x))])
        _, sup = invariance_defect(make_linear([[1]], grid), V)
        assert sup <= 1e-12


class TestPreimages:
    def test_doubling_branches(self):
        grid = TorusGrid(64)
        T = make_linear([[2]], grid)
        y = np.array([0.3, 0.9])
        pre, deriv = T.preimages_with_derivative(y)
        assert np.allclose(sorted(pre[:, 0]), [0.15, 0.65], atol=1e-12)
        assert np.allclose(deriv, 2.0)

    def test_preimages_are_reduced_to_the_unit_interval(self, warped):
        # a target at a branch end has a preimage at z = 1.0 on the lift
        # (the warped map's second branch at y = 0), reported as 0.0
        y = np.array([0.0, 1.0 - 1e-17, -1e-17])
        for T in (make_linear([[2]], TorusGrid(64)), warped):
            pre, deriv = T.preimages_with_derivative(y)
            assert np.all((pre >= 0.0) & (pre < 1.0))
            images = T(pre.reshape(-1, 1))[:, 0].reshape(pre.shape)
            assert np.max(np.abs(wrap_difference(images - y))) <= 1e-12
            jac = T.jacobian(pre.reshape(-1, 1))[:, 0, 0].reshape(pre.shape)
            assert np.array_equal(deriv, jac)

    def test_non_expanding_rejected(self):
        grid = TorusGrid(32)
        T = make_linear([[1]], grid)
        with pytest.raises(ExpansionError):
            T.preimages_with_derivative(np.array([0.5]))

    def test_orientation_reversing_expanding(self):
        grid = TorusGrid(64)
        T = make_linear([[-2]], grid)
        y = np.array([0.25])
        pre, deriv = T.preimages_with_derivative(y)
        assert np.max(np.abs(wrap_difference(T(pre.reshape(-1, 1))[:, 0] - 0.25))) <= 1e-12
        assert np.allclose(deriv, -2.0)
