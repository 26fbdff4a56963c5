"""Exactness solve, closed-form freedom, contraction inversion, and the
Poisson solvers.

Oracles: symbolic antidifferentiation and mode-wise division by hand for the
canonical solves, a manufactured solution for the weighted Poisson equation,
and the Lie-derivative residual div(eta X) + rho eta = 0 for everything
end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjresp import (
    ConvergenceError,
    NormalizationError,
    ScalarField,
    SolutionStrategy,
    TorusGrid,
    VectorFieldT,
    VolumeDensity,
    add_closed_form,
    contract,
    contract_inverse,
    divergence,
    exterior_derivative,
    gradient,
    lie_derivative_density,
    remove_weighted_mean,
    solve_exactness,
    solve_for_field,
    solve_laplace,
    solve_weighted_poisson,
)
from conjresp.fields import flux_of_form, form_of_flux


def random_band_limited(grid, seed, max_mode=4):
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(4):
        k = [int(rng.integers(-max_mode, max_mode + 1)) for _ in range(grid.dim)]
        modes.append(k + [float(rng.normal()), float(rng.normal())])
    return ScalarField.from_modes(grid, modes)


def random_density(grid, seed, strength=0.3):
    rng = np.random.default_rng(seed)
    if grid.dim == 1:
        modes = [[1, strength * rng.random(), strength * rng.random()],
                 [2, strength * rng.random(), 0.0]]
    else:
        modes = [[1, 0, strength * rng.random(), 0.0],
                 [0, 1, 0.0, strength * rng.random()]]
    return VolumeDensity.from_modes(grid, modes)


class TestSolveLaplace:
    def test_single_mode_by_hand(self):
        # f = -cos(2 pi x): divide by -4 pi^2 gives u = cos(2 pi x)/(4 pi^2)
        grid = TorusGrid(64)
        f = ScalarField.from_modes(grid, [[1, -1.0, 0.0]])
        u = solve_laplace(f)
        x = grid.axis_points(0)
        assert np.max(np.abs(u.values - np.cos(2 * np.pi * x) / (4 * np.pi**2))) <= 1e-14

    def test_zero(self):
        grid = TorusGrid(16)
        assert solve_laplace(ScalarField.constant(grid, 0.0)).max_abs == 0.0

    def test_two_modes_2d(self):
        grid = TorusGrid((32, 32))
        f = ScalarField.from_modes(grid, [[1, 0, 0.0, 1.0], [0, 1, 0.0, 1.0]])
        u = solve_laplace(f)
        x, y = grid.meshes()
        expected = -(np.sin(2 * np.pi * x) + np.sin(2 * np.pi * y)) / (4 * np.pi**2)
        assert np.max(np.abs(u.values - expected)) <= 1e-14

    def test_rejects_nonzero_mean(self):
        grid = TorusGrid(16)
        with pytest.raises(NormalizationError) as err:
            solve_laplace(ScalarField.constant(grid, 0.1))
        assert err.value.mean == pytest.approx(0.1)

    @pytest.mark.parametrize("seed", range(3))
    def test_residual(self, seed):
        grid = TorusGrid((32, 32))
        f = random_band_limited(grid, seed)
        f = f - f.mean
        u = solve_laplace(f)
        lap = divergence(gradient(u))
        assert np.max(np.abs(lap.values - f.values)) <= 1e-12 * max(1.0, f.max_abs)


class TestSolveExactness:
    def test_circle_antiderivative_oracle(self):
        # theta' = -cos(2 pi x)  =>  theta = -sin(2 pi x)/(2 pi), zero mean
        grid = TorusGrid(64)
        rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
        theta = solve_exactness(rho, VolumeDensity.lebesgue(grid))
        x = grid.axis_points(0)
        assert np.max(np.abs(theta.components[0].values + np.sin(2 * np.pi * x) / (2 * np.pi))) <= 1e-13
        residual = exterior_derivative(theta) + rho
        assert residual.max_abs <= 1e-13

    def test_zero_response(self):
        grid = TorusGrid(16)
        theta = solve_exactness(ScalarField.constant(grid, 0.0), VolumeDensity.lebesgue(grid))
        assert all(c.max_abs == 0.0 for c in theta.components)

    def test_two_torus_oracle(self):
        # u = cos(2 pi x)/(4 pi^2), theta = -sin(2 pi x)/(2 pi) dy
        grid = TorusGrid((64, 64))
        rho = ScalarField.from_modes(grid, [[1, 0, 1.0, 0.0]])
        theta = solve_exactness(rho, VolumeDensity.lebesgue(grid))
        x, _ = grid.meshes()
        a, b = form_of_flux(theta)
        assert a.max_abs <= 1e-14
        assert np.max(np.abs(b.values + np.sin(2 * np.pi * x) / (2 * np.pi))) <= 1e-12
        residual = exterior_derivative(theta) + rho
        assert residual.max_abs <= 1e-12

    def test_mean_zero_gate(self):
        grid = TorusGrid(32)
        rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]]) + 0.1
        with pytest.raises(NormalizationError) as err:
            solve_exactness(rho, VolumeDensity.lebesgue(grid))
        assert err.value.mean == pytest.approx(0.1)

    def test_weighted_mean_gate_and_centering(self):
        grid = TorusGrid(64)
        omega = random_density(grid, 8)
        rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
        # generically integral rho d(omega) != 0 for a warped density
        assert abs((rho * omega.eta).mean) > 1e-10
        with pytest.raises(NormalizationError):
            solve_exactness(rho, omega)
        centered = remove_weighted_mean(rho, omega)
        theta = solve_exactness(centered, omega)
        target = centered * omega.eta
        assert (exterior_derivative(theta) + target).max_abs <= 1e-10 * max(1.0, target.max_abs)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("resolution", [(64,), (32, 32)])
    def test_exactness_residual_property(self, seed, resolution):
        grid = TorusGrid(resolution)
        omega = random_density(grid, seed + 40)
        rho = remove_weighted_mean(random_band_limited(grid, seed), omega)
        theta = solve_exactness(rho, omega)
        target = rho * omega.eta
        residual = exterior_derivative(theta) + target
        assert residual.max_abs <= 1e-10 * max(1.0, target.max_abs)


class TestClosedForms:
    def test_noop_strategies(self):
        grid = TorusGrid(32)
        theta = solve_exactness(ScalarField.from_modes(grid, [[2, 0.3, 0.1]]),
                                VolumeDensity.lebesgue(grid))
        same = add_closed_form(theta, SolutionStrategy.custom((0.0,)))
        assert np.max(np.abs(same.components[0].values - theta.components[0].values)) == 0.0

    def test_circle_constant_is_closed(self):
        grid = TorusGrid(32)
        theta = add_closed_form(VectorFieldT.zero(grid), SolutionStrategy.custom((1.0,)))
        assert np.max(np.abs(theta.components[0].values - 1.0)) == 0.0
        assert exterior_derivative(theta).max_abs <= 1e-14

    def test_alpha_addition_is_closed(self):
        # alpha = sin(2 pi y): d(alpha) = 2 pi cos(2 pi y) dy
        grid = TorusGrid((32, 32))
        alpha = ScalarField.from_modes(grid, [[0, 1, 0.0, 1.0]])
        theta = add_closed_form(VectorFieldT.zero(grid),
                                SolutionStrategy.custom((0.0, 0.0), alpha))
        _, y = grid.meshes()
        a, b = form_of_flux(theta)
        assert a.max_abs <= 1e-13
        assert np.max(np.abs(b.values - 2 * np.pi * np.cos(2 * np.pi * y))) <= 1e-12
        assert exterior_derivative(theta).max_abs <= 1e-12

    def test_harmonic_coefficients_are_those_of_dx_and_dy(self):
        # theta = 0.3 dx - 0.2 dy has the constant flux (-0.2, -0.3)
        grid = TorusGrid((16, 16))
        theta = add_closed_form(VectorFieldT.zero(grid), SolutionStrategy.custom((0.3, -0.2)))
        assert [c.values.tolist() for c in theta.components] == [
            np.full(grid.shape, -0.2).tolist(), np.full(grid.shape, -0.3).tolist()]
        assert [c.values.tolist() for c in form_of_flux(theta)] == [
            np.full(grid.shape, 0.3).tolist(), np.full(grid.shape, -0.2).tolist()]

    def test_derivative_unchanged(self):
        grid = TorusGrid((32, 32))
        omega = VolumeDensity.lebesgue(grid)
        rho = ScalarField.from_modes(grid, [[1, 1, 0.4, 0.2]])
        theta = solve_exactness(rho, omega)
        alpha = ScalarField.from_modes(grid, [[2, 0, 0.3, 0.0]])
        shifted = add_closed_form(theta, SolutionStrategy.custom((0.2, -0.1), alpha))
        before = exterior_derivative(theta)
        after = exterior_derivative(shifted)
        assert np.max(np.abs(before.values - after.values)) <= 1e-12

    def test_dimension_validation(self):
        grid = TorusGrid(32)
        with pytest.raises(ValueError):
            SolutionStrategy.custom((1.0, 2.0)).validate_for(grid)
        alpha = ScalarField.constant(grid, 0.0)
        with pytest.raises(ValueError):
            SolutionStrategy.custom((1.0,), alpha).validate_for(grid)


class TestContraction:
    def test_circle_division(self):
        grid = TorusGrid(64)
        x = grid.axis_points(0)
        theta = flux_of_form((ScalarField(grid, -np.sin(2 * np.pi * x) / (2 * np.pi)),))
        X = contract_inverse(theta, VolumeDensity.lebesgue(grid))
        assert np.max(np.abs(X.components[0].values - theta.components[0].values)) == 0.0

    def test_zero(self):
        grid = TorusGrid(16)
        X = contract_inverse(VectorFieldT.zero(grid), VolumeDensity.lebesgue(grid))
        assert all(c.max_abs == 0.0 for c in X.components)

    def test_two_torus_component_swap(self):
        grid = TorusGrid((32, 32))
        x, _ = grid.meshes()
        b = ScalarField(grid, -np.sin(2 * np.pi * x) / (2 * np.pi))
        # theta = b dy, whose flux is (b, -0)
        theta = flux_of_form((ScalarField.constant(grid, 0.0), b))
        X = contract_inverse(theta, VolumeDensity.lebesgue(grid))
        assert np.max(np.abs(X.components[0].values - b.values)) == 0.0
        assert X.components[1].max_abs == 0.0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("resolution", [(32,), (16, 16)])
    def test_round_trip(self, seed, resolution):
        grid = TorusGrid(resolution)
        omega = random_density(grid, seed)
        parts = [random_band_limited(grid, seed + i) for i in range(grid.dim)]
        theta = flux_of_form(parts)
        back = contract(contract_inverse(theta, omega), omega)
        for got, want in zip(back.components, theta.components):
            assert np.max(np.abs(got.values - want.values)) <= 1e-12 * max(1.0, want.max_abs)
        for got, want in zip(form_of_flux(theta), parts):
            assert np.array_equal(got.values, want.values)


class TestLieDerivative:
    def test_zero_field(self):
        grid = TorusGrid(16)
        out = lie_derivative_density(VectorFieldT.zero(grid), VolumeDensity.lebesgue(grid))
        assert out.max_abs == 0.0

    def test_circle_oracle(self):
        grid = TorusGrid(64)
        x = grid.axis_points(0)
        X = VectorFieldT([ScalarField(grid, -np.sin(2 * np.pi * x) / (2 * np.pi))])
        out = lie_derivative_density(X, VolumeDensity.lebesgue(grid))
        assert np.max(np.abs(out.values + np.cos(2 * np.pi * x))) <= 1e-13

    def test_stream_function_is_divergence_free(self):
        grid = TorusGrid((64, 64))
        psi = random_band_limited(grid, 12, max_mode=5)
        X = VectorFieldT([psi.derivative(1), -psi.derivative(0)])
        out = lie_derivative_density(X, VolumeDensity.lebesgue(grid))
        assert out.max_abs <= 1e-11


class TestWeightedPoisson:
    def test_reduces_to_laplace_for_flat_density(self):
        grid = TorusGrid(64)
        g = ScalarField.from_modes(grid, [[1, -1.0, 0.0]])
        u = solve_weighted_poisson(VolumeDensity.lebesgue(grid), g)
        assert np.max(np.abs(u.values - solve_laplace(g).values)) <= 1e-12

    def test_zero(self):
        grid = TorusGrid(16)
        u = solve_weighted_poisson(VolumeDensity.lebesgue(grid), ScalarField.constant(grid, 0.0))
        assert u.max_abs == 0.0

    def test_manufactured_solution(self):
        # eta = 1 + 0.5 cos(2 pi x), u_true = sin(2 pi x); build g = div(eta grad u)
        grid = TorusGrid(256)
        omega = VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])
        u_true = ScalarField.from_modes(grid, [[1, 0.0, 1.0]])
        g = divergence(VectorFieldT([omega.eta * u_true.derivative(0)]))
        u = solve_weighted_poisson(omega, g)
        assert np.max(np.abs(u.values - u_true.values)) <= 1e-8

    def test_manufactured_solution_2d(self):
        grid = TorusGrid((32, 32))
        omega = VolumeDensity.from_modes(grid, [[1, 0, 0.4, 0.0], [0, 1, 0.0, 0.2]])
        u_true = ScalarField.from_modes(grid, [[1, 1, 0.5, 0.3], [2, 0, 0.0, 0.2]])
        u_true = u_true - u_true.mean
        flux = VectorFieldT([omega.eta * u_true.derivative(i) for i in range(2)])
        g = divergence(flux)
        u = solve_weighted_poisson(omega, g)
        assert np.max(np.abs(u.values - u_true.values)) <= 1e-8

    def test_convergence_error_carries_residual(self):
        grid = TorusGrid(32)
        omega = VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])
        g = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
        with pytest.raises(ConvergenceError) as err:
            solve_weighted_poisson(omega, g, tol=1e-30)
        assert 0.0 < err.value.residual < 1e-10  # stalls at the round-off floor
        assert err.value.iterations >= 1

    def test_rejects_bad_inputs(self):
        grid = TorusGrid(16)
        omega = VolumeDensity.lebesgue(grid)
        with pytest.raises(NormalizationError):
            solve_weighted_poisson(omega, ScalarField.constant(grid, 0.2))
        with pytest.raises(ValueError):
            solve_weighted_poisson(omega, ScalarField.constant(grid, 0.0), tol=0.0)


class TestSolveForField:
    def test_canonical_oracle(self):
        grid = TorusGrid(64)
        rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
        X = solve_for_field(rho, VolumeDensity.lebesgue(grid))
        x = grid.axis_points(0)
        assert np.max(np.abs(X.components[0].values + np.sin(2 * np.pi * x) / (2 * np.pi))) <= 1e-13

    def test_zero(self):
        grid = TorusGrid(16)
        X = solve_for_field(ScalarField.constant(grid, 0.0), VolumeDensity.lebesgue(grid))
        assert all(c.max_abs == 0.0 for c in X.components)

    def test_gradient_equals_canonical_on_flat_circle(self):
        grid = TorusGrid(64)
        rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
        omega = VolumeDensity.lebesgue(grid)
        xc = solve_for_field(rho, omega, SolutionStrategy.canonical())
        xg = solve_for_field(rho, omega, SolutionStrategy.gradient())
        assert np.max(np.abs(xc.components[0].values - xg.components[0].values)) <= 1e-10

    @pytest.mark.parametrize("kind", ["canonical", "gradient", "custom"])
    @pytest.mark.parametrize("resolution", [(64,), (32, 32)])
    def test_end_to_end_response_identity(self, kind, resolution):
        grid = TorusGrid(resolution)
        omega = random_density(grid, 5)
        rho = remove_weighted_mean(random_band_limited(grid, 6, max_mode=3), omega)
        if kind == "custom":
            strategy = SolutionStrategy.custom((0.1,) * grid.dim)
        else:
            strategy = SolutionStrategy(kind)
        X = solve_for_field(rho, omega, strategy)
        target = rho * omega.eta
        residual = lie_derivative_density(X, omega) + target
        assert residual.max_abs <= 1e-8 * max(1.0, target.max_abs)

    def test_strategy_difference_is_weighted_divergence_free(self):
        grid = TorusGrid(64)
        omega = random_density(grid, 21)
        rho = remove_weighted_mean(random_band_limited(grid, 22, max_mode=3), omega)
        xc = solve_for_field(rho, omega, SolutionStrategy.canonical())
        xg = solve_for_field(rho, omega, SolutionStrategy.gradient())
        diff = xc - xg
        assert lie_derivative_density(diff, omega).max_abs <= 1e-8


def mode_lists(dim, kmax, size, nonzero=False):
    """Hypothesis lists of 1..size mode entries [k..., re, im], |k_i| <= kmax
    and amplitudes in [-1, 1] in steps of 1e-3; with ``nonzero`` no entry
    has k = 0."""
    wavevectors = st.lists(st.integers(-kmax, kmax), min_size=dim, max_size=dim)
    if nonzero:
        wavevectors = wavevectors.filter(any)
    amplitude = st.integers(-1000, 1000).map(lambda i: i / 1000)
    entry = st.tuples(wavevectors, amplitude, amplitude).map(lambda e: [*e[0], e[1], e[2]])
    return st.lists(entry, min_size=1, max_size=size)


def scaled(modes, factor):
    """``modes`` with every amplitude times ``factor``."""
    return [[*k, re * factor, im * factor] for *k, re, im in modes]


@st.composite
def form_problems(draw):
    """A grid, a density with min eta >= 0.2, a centred band-limited rho
    with no constant mode and a strategy of each kind: a custom one with
    harmonic coefficients and, on the 2-torus, an optional alpha."""
    grid = TorusGrid(draw(st.sampled_from([(64,), (16, 16), (32, 16)])))
    # 1 + modes whose amplitudes sum to at most 0.8 stays >= 0.2
    density = draw(mode_lists(grid.dim, 3, 3, nonzero=True))
    total = sum(abs(re) + abs(im) for *_, re, im in density)
    scale = draw(st.floats(0.0, 0.8)) / max(total, 1.0)
    omega = VolumeDensity.from_modes(grid, scaled(density, scale))
    modes = draw(mode_lists(grid.dim, 4, 4, nonzero=True))
    rho = remove_weighted_mean(ScalarField.from_modes(grid, modes), omega)
    kind = draw(st.sampled_from(["canonical", "gradient", "custom"]))
    if kind != "custom":
        return grid, omega, rho, SolutionStrategy(kind)
    harmonic = draw(st.lists(st.floats(-0.5, 0.5), min_size=grid.dim, max_size=grid.dim))
    alpha_modes = draw(st.one_of(st.none(), mode_lists(2, 3, 2))) if grid.dim == 2 else None
    alpha = None if alpha_modes is None else ScalarField.from_modes(grid, scaled(alpha_modes, 0.1))
    return grid, omega, rho, SolutionStrategy.custom(harmonic, alpha)


class TestFormProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(problem=form_problems())
    def test_closed_forms_keep_d_and_every_strategy_solves_the_response(self, problem):
        # the bounds of TestClosedForms (1e-12 on d theta), TestSolveExactness
        # (1e-10 relative, canonical and custom) and TestSolveForField (1e-8
        # relative, the gradient strategy's CG)
        grid, omega, rho, strategy = problem
        assert float(omega.eta.values.min()) >= 0.2
        theta = solve_exactness(rho, omega)
        shifted = add_closed_form(theta, strategy)
        assert (exterior_derivative(shifted) - exterior_derivative(theta)).max_abs <= 1e-12
        X = solve_for_field(rho, omega, strategy)
        target = rho * omega.eta
        bound = 1e-8 if strategy.kind == "gradient" else 1e-10
        residual = (lie_derivative_density(X, omega) + target).max_abs
        assert residual <= bound * max(1.0, target.max_abs)
