"""Flow integration, variational Jacobians, and volume transport.

Oracles: a closed-form solution of dx/dt = -sin(2 pi x)/(2 pi) (with its
exact linearization), self-convergence against a very fine reference run,
the classical h^4 convergence order, Liouville's formula, and composition
identities (group law, inverse round trip).  The grid-resident flow maps are
checked against the point integrator `integrate_flow` and against a fine RK4
build of their grid system; batched builds against single builds and the
stage transforms against numpy's n-d ones, bit for bit, and `integrate_flow`
against the point RK4 with its own Jacobian recurrence, bit for bit.  The
grid Moser maps are checked against that point RK4 of the Moser field, their
batched factors against each factor built alone, bit for bit, and each
factor against the stretch bound.
"""

import functools
import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjresp import (
    ConvergenceError,
    FlowEvaluation,
    QualityError,
    ScalarField,
    TorusGrid,
    VectorFieldT,
    VolumeDensity,
    divergence,
    flow_map,
    moser_transport,
    pushforward_density,
    solve_for_field,
    transported_density,
    wrap_difference,
)
from conjresp import flow, response_check
from conjresp.config import build_grid, build_map, build_rho, build_strategy, load_config
from conjresp.fields import sample_coefficients
from conjresp.flow import FieldStack, FlowMap, integrate_flow


def single_mode_field(grid):
    """X = -sin(2 pi x)/(2 pi), the canonical solution for rho = cos(2 pi x)."""
    x = grid.axis_points(0)
    return VectorFieldT([ScalarField(grid, -np.sin(2 * np.pi * x) / (2 * np.pi))])


def central_difference_jacobian(flow, pts, h=1e-5):
    """(M, n, n) central differences of the flowed lifts; column j differences
    along the j-th coordinate direction, so entry (i, j) is d phi_i / d x_j."""
    n = pts.shape[1]
    jac = np.empty((pts.shape[0], n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        jac[:, :, j] = (flow(pts + step) - flow(pts - step)) / (2 * h)
    return jac


def assert_full_jacobian(jacobians, reference, tol=1e-8):
    # the flows below shear, so a transposed Jacobian (same determinant) fails
    assert np.max(np.abs(reference - reference.transpose(0, 2, 1))) >= 100 * tol
    assert np.max(np.abs(jacobians - reference)) <= tol


def closed_form(x0, t):
    """Exact flow of dx/dt = -sin(2 pi x)/(2 pi) for x0 in (0, 1/2)."""
    return np.arctan(np.tan(np.pi * x0) * np.exp(-t)) / np.pi


def closed_form_jacobian(x0, t):
    tan = np.tan(np.pi * x0)
    return np.exp(-t) / np.cos(np.pi * x0) ** 2 / (1.0 + np.exp(-2 * t) * tan**2)


class TestIntegrateFlow:
    def test_zero_field_is_identity(self):
        grid = TorusGrid(32)
        pts = np.array([[0.1], [0.7], [0.95]])
        ev = integrate_flow(VectorFieldT.zero(grid), 0.8, pts, steps=4)
        assert np.max(np.abs(ev.points - pts)) == 0.0
        assert np.max(np.abs(ev.jacobians - np.eye(1))) == 0.0

    def test_constant_field_translates(self):
        grid = TorusGrid(32)
        X = VectorFieldT([ScalarField.constant(grid, 0.3)])
        ev = integrate_flow(X, 2.0, [0.9], steps=8)
        assert abs(ev.points[0, 0] - (0.9 + 0.6) % 1.0) <= 1e-13
        assert abs(ev.jacobians[0, 0, 0] - 1.0) <= 1e-13
        assert abs(ev.lifts[0, 0] - 1.5) <= 1e-13

    def test_t_zero_is_exact_identity(self):
        grid = TorusGrid(32)
        pts = np.array([[0.123]])
        ev = integrate_flow(single_mode_field(grid), 0.0, pts, steps=16)
        assert ev.steps == 0
        assert np.array_equal(ev.points, pts)
        assert np.array_equal(ev.jacobians[0], np.eye(1))

    def test_closed_form_oracle(self):
        grid = TorusGrid(64)
        X = single_mode_field(grid)
        x0, t = 0.25, 0.1
        ev = integrate_flow(X, t, [x0], steps=64)
        assert abs(ev.points[0, 0] - closed_form(x0, t)) <= 1e-12
        assert abs(ev.jacobians[0, 0, 0] - closed_form_jacobian(x0, t)) <= 1e-12

    def test_reference_self_convergence(self):
        grid = TorusGrid(64)
        X = single_mode_field(grid)
        x0, t = 0.25, 0.1
        reference = integrate_flow(X, t, [x0], steps=10_000).points[0, 0]
        assert abs(integrate_flow(X, t, [x0], steps=64).points[0, 0] - reference) <= 1e-10
        errors = [
            abs(integrate_flow(X, t, [x0], steps=s).points[0, 0] - reference)
            for s in (4, 8, 16)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            ratio = coarse / fine
            assert 16 * 0.8 <= ratio <= 16 * 1.2

    def test_fourth_order_on_a_cloud(self):
        grid = TorusGrid(64)
        X = single_mode_field(grid)
        rng = np.random.default_rng(4)
        pts = rng.random((50, 1))
        reference = integrate_flow(X, 0.5, pts, steps=4096).points
        errors = []
        for s in (8, 16, 32):
            got = integrate_flow(X, 0.5, pts, steps=s).points
            errors.append(np.max(np.abs(wrap_difference(got - reference))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 8.0 <= coarse / fine <= 32.0

    def test_full_jacobian_matrix_2d(self):
        grid = TorusGrid((32, 32))
        X = VectorFieldT([
            ScalarField.from_modes(grid, [[0, 1, 0.0, 0.1], [1, 1, 0.05, 0.0]]),
            ScalarField.from_modes(grid, [[1, 0, 0.08, 0.0], [0, 2, 0.0, -0.03]]),
        ])
        pts = np.random.default_rng(16).random((20, 2))
        ev = integrate_flow(X, 0.7, pts, steps=64)
        reference = central_difference_jacobian(
            lambda p: integrate_flow(X, 0.7, p, steps=64, jacobian=False).lifts, pts)
        assert_full_jacobian(ev.jacobians, reference)

    def test_jacobian_orientation_guard(self):
        with pytest.raises(QualityError):
            FlowEvaluation(np.array([[0.0]]), np.array([[[-1.0]]]), 1.0, 4)


# grid -> (largest |k_i| of a field mode, largest |t| * mode amplitude): the
# flow map must be resolved on the grid for the 1e-9 comparison to hold
FLOW_MAP_GRIDS = {(64,): (2, 0.02), (256,): (4, 0.02), (16, 16): (1, 0.005),
                  (32, 16): (1, 0.005), (64, 64): (2, 0.02)}


def band_limited_field(grid, rng, kmax, amplitude):
    """Two random modes per component, with |k_i| <= kmax and amplitudes up
    to the given one."""
    return VectorFieldT([
        ScalarField.from_modes(grid, [[*rng.integers(-kmax, kmax + 1, size=grid.dim),
                                       *rng.uniform(-amplitude, amplitude, 2)]
                                      for _ in range(2)])
        for _ in range(grid.dim)])


def grid_values(X):
    """X and its gradient DX at the grid points, (n,) + grid.shape and (n, n)
    + grid.shape, entry (i, j) holding d X_i / d x_j."""
    n = X.grid.dim
    return (np.stack([c.values for c in X.components]),
            np.stack([[c.derivative(j).values for j in range(n)] for c in X.components]))


def series_alone(X, s):
    """D and G (row by row) of the factor phi^s of X as one (n + n^2,) +
    grid.shape array: the series of `flow_map` summed for s alone, the terms
    of `flow._series_terms` weighted by the running product s^k / k!, up to
    the first term within SERIES_TOL on D and on G."""
    grid, n = X.grid, X.grid.dim
    velocity, shear = grid_values(X)
    bounds = flow.SERIES_TOL * np.array([np.abs(velocity).max(), np.abs(shear).max()])
    weight, total = 1.0, 0.0
    for k, term in enumerate(flow._series_terms(grid, velocity, shear), 1):
        weight *= s / k
        total = total + weight * term
        sizes = np.array([np.abs(term[:n]).max(), np.abs(term[n:]).max()])
        if np.all(abs(weight) * sizes <= abs(s) * bounds):
            return total


def assert_factor(factor, state):
    """A factor's `FieldStack` holds the D and G of ``state``, bit for bit."""
    n = factor.grid.dim
    assert np.array_equal(factor.values, state[:n])
    assert np.array_equal(factor.gradients, state[n:].reshape(factor.gradients.shape))


def count_series_runs(monkeypatch):
    """The grid resolution of each run of `flow._series_terms` from now on."""
    runs, terms = [], flow._series_terms

    def counting(grid, velocity, shear):
        runs.append(grid.resolution)
        return terms(grid, velocity, shear)

    monkeypatch.setattr(flow, "_series_terms", counting)
    return runs


# the times of the bit-identity property, 0 and both signs of three |t|
SIGNED_TIMES = [0.0, 0.05, -0.05, 0.3, -0.3, 1.0, -1.0]


class TestFlowMap:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(resolution=st.sampled_from(sorted(FLOW_MAP_GRIDS)),
           t=st.sampled_from([-1.0, -0.3, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_matches_point_integration(self, resolution, t, seed):
        grid = TorusGrid(resolution)
        rng = np.random.default_rng(seed)
        kmax, reach = FLOW_MAP_GRIDS[resolution]
        X = band_limited_field(grid, rng, kmax, reach / abs(t))
        phi = flow_map(X, t)
        on_grid = phi(grid.points())
        sampled_rows = rng.choice(grid.size, size=min(grid.size, 64), replace=False)
        scattered = rng.uniform(-1.0, 2.0, (32, grid.dim))
        for got, pts, rows in ((on_grid, grid.points(), sampled_rows),
                               (phi(scattered), scattered, slice(None))):
            want = integrate_flow(X, t, pts[rows], steps=128)
            assert np.max(np.abs(got.lifts[rows] - want.lifts)) <= 1e-9
            assert np.max(np.abs(wrap_difference(got.points[rows] - want.points))) <= 1e-9
            assert np.max(np.abs(got.jacobians[rows] - want.jacobians)) <= 1e-9
        back = flow_map(X, -t)(on_grid.lifts, jacobian=False)
        assert np.max(np.abs(back.lifts - grid.points())) <= 1e-9

    @pytest.mark.parametrize("resolution, t", zip(sorted(FLOW_MAP_GRIDS), [1.0, -1.0] * 3))
    def test_matches_the_rk4_build_of_its_grid_system(self, resolution, t):
        # the series is the exact solution of the grid system that RK4 steps,
        # so a 1024-substep RK4 build of the same factor agrees to rounding:
        # over 6 seeds and t in {+-0.3, +-1} on each grid, D within 4.1e-16
        # and G within 2.8e-15
        grid, n = TorusGrid(resolution), len(resolution)
        kmax, reach = FLOW_MAP_GRIDS[resolution]
        X = band_limited_field(grid, np.random.default_rng(11), kmax, reach)
        phi = flow_map(X, t)
        velocity, shear = grid_values(X)
        want = flow._flow_factor(grid, lambda s: (velocity, shear), (t / phi.submaps,), 1024)[0]
        assert np.max(np.abs(phi.factors[0].values - want[:n])) <= 1e-15
        assert np.max(np.abs(phi.factors[0].gradients.reshape(want[n:].shape)
                             - want[n:])) <= 5e-15

    def test_gradient_is_the_series_of_g_not_the_derivative_of_d(self, tmp_path):
        # a torus-verify op (bench seed 2111, op 59) on which taking G as the
        # spectral gradient of D, instead of summing G's own series, moves G
        # by 4.3e-8; the series of (D, G) agrees with a 1024-substep RK4
        # build of the grid system to 2.4e-17 (D) and 4.2e-16 (G), and so
        # does the response error
        cfg = {"grid": {"resolution": [64, 64]},
               "map": {"kind": "custom", "A": [[2, 1], [1, 1]],
                       "eta_modes": [[1, -2, 0.069919, 0.348905]]},
               "rho": {"modes": [[1, 1, 0.242233, 0.163833], [-2, 2, -0.26912, 0.124886],
                                 [3, -4, 0.041999, 0.254434]], "center": True},
               "strategy": {"custom": {"alpha_modes": [[-3, 2, -0.010555, 0.010909],
                                                       [3, 3, -0.010127, 0.012055]]}},
               "verify": {"t_values": [0.01]}}
        path = tmp_path / "op59.json"
        path.write_text(json.dumps(cfg))
        cfg = load_config(path)
        grid = build_grid(cfg)
        omega = build_map(cfg, grid).density
        rho = build_rho(cfg, grid, omega)
        X = solve_for_field(rho, omega, build_strategy(cfg, grid))
        velocity, shear = grid_values(X)
        rk4 = flow._flow_factor(grid, lambda s: (velocity, shear), (0.01, -0.01), 1024)
        series = flow.flow_maps(X, (0.01, -0.01))
        for phi, want in zip(series, rk4):
            assert phi.submaps == 1
            assert np.max(np.abs(phi.factors[0].values - want[:2])) <= 1e-16
            assert np.max(np.abs(phi.factors[0].gradients.reshape(want[2:].shape)
                                 - want[2:])) <= 1e-15
        fine = [FlowMap((flow._factor(grid, state),), t, 1024) for state, t in zip(rk4, (1, -1))]
        want = (transported_density(omega, fine[1]).eta.values
                - transported_density(omega, fine[0]).eta.values) / 0.02
        got = response_check(omega, rho, X, [0.01]).errors[0]
        assert got == pytest.approx(np.max(np.abs(want - (rho * omega.eta).values)), rel=1e-12)

    def test_factors_keep_each_series_within_its_reach(self):
        # reach 0.5 pi sup|X| N = 256 in one factor, where the series diverges;
        # its 22 factors reach 11.6 each, against a stretch rule of 4
        grid = TorusGrid(256)
        omega = VolumeDensity.lebesgue(grid)
        X = solve_for_field(ScalarField.from_modes(grid, [[1, 4.0, 0.0]]), omega)
        speed = math.pi * X.sup_norm * 256
        assert speed * 0.5 / flow.SERIES_REACH > 21
        phi = flow_map(X, 0.5)
        assert (phi.submaps, phi.steps) == (22, 22)
        got = phi(grid.points())
        want = integrate_flow(X, 0.5, grid.points(), steps=1024)
        assert np.max(np.abs(got.lifts - want.lifts)) <= 1e-8
        assert np.max(np.abs(got.jacobians - want.jacobians)) <= 1e-8

    def test_a_series_past_its_term_cap_raises(self, monkeypatch):
        X = single_mode_field(TorusGrid(32))
        monkeypatch.setattr(flow, "SERIES_TERMS", 3)
        with pytest.raises(ConvergenceError,
                           match=r"t = 0\.1 did not converge: .* s = 0\.1, .* after 3 terms") as err:
            flow_map(X, 0.1)
        assert err.value.iterations == 3 and err.value.residual > flow.SERIES_TOL
        assert not flow._FLOW_MAPS[X]  # nothing is kept of a failed build

    def test_t_zero_is_exact_identity(self):
        grid = TorusGrid((16, 16))
        pts = np.random.default_rng(3).random((5, 2))
        ev = flow_map(band_limited_field(grid, np.random.default_rng(4), 1, 0.1), 0.0)(pts)
        assert ev.steps == 0
        assert np.array_equal(ev.lifts, pts)
        assert np.array_equal(ev.jacobians, np.tile(np.eye(2), (5, 1, 1)))

    def test_built_once_per_field_and_t_while_the_field_lives(self, monkeypatch):
        grid = TorusGrid(32)
        X = single_mode_field(grid)
        runs = count_series_runs(monkeypatch)
        phi = flow_map(X, 0.1)
        assert flow_map(X, 0.1) is phi
        assert flow_map(X, np.float64(0.1)) is phi
        assert flow_map(X, -0.1) is not phi
        assert runs == [(32,)]  # one run of series terms built both
        assert flow_map(single_mode_field(grid), 0.1) is not phi
        field = weakref.ref(X)
        del X
        gc.collect()
        assert field() is None  # the memo holds no field alive, the map included

    # (grid, t, amplitude, submaps): amplitude 0.05 at |k_i| <= 2 and |t| = 1
    # stretches and reaches enough to split phi^t into several factors
    PAIRED_BUILDS = [((256,), 0.3, 0.02, 1), ((128,), -1.0, 0.05, 3),
                     ((32, 16), 0.2, 0.02, 1), ((24, 24), -1.0, 0.05, 3)]

    @pytest.mark.parametrize("resolution, t, amplitude, submaps", PAIRED_BUILDS)
    def test_paired_build_is_the_two_single_builds_bit_for_bit(
            self, resolution, t, amplitude, submaps):
        grid = TorusGrid(resolution)
        X = band_limited_field(grid, np.random.default_rng(7), 2, amplitude)
        phi, back = flow_map(X, t), flow_map(X, -t)
        assert (phi.submaps, back.submaps) == (submaps, submaps)
        assert (phi.steps, back.steps) == (submaps, submaps)
        for m in (phi, back):
            assert len({id(factor) for factor in m.factors}) == 1
            assert_factor(m.factors[0], series_alone(X, m.time / m.submaps))

    # (grid, times): 0 and duplicates in any order and sign; |t| = 0.6 and 1
    # split into 2 and 3 factors
    BATCHED_BUILDS = [
        ((128,), [0.6, -0.05, 0.0, 0.3, -0.6, 0.05, -0.0, 0.3, -1.0]),
        ((24, 24), [0.6, -0.05, 0.0, 0.3, -0.6, 0.05, -0.0, 0.3]),
    ]

    @pytest.mark.parametrize("resolution, times", BATCHED_BUILDS)
    def test_batched_build_is_each_single_build_bit_for_bit(self, monkeypatch, resolution,
                                                            times):
        grid = TorusGrid(resolution)
        X = band_limited_field(grid, np.random.default_rng(7), 2, 0.05)
        runs = count_series_runs(monkeypatch)
        maps = flow.flow_maps(X, times)
        assert len(runs) == 1  # one run of series terms serves every map
        assert [m.time for m in maps] == [abs(t) if t == 0.0 else t for t in times]
        assert len({m.submaps for m in maps if m.time}) >= 2
        assert all(m is flow_map(X, t) for m, t in zip(maps, times))
        assert len(runs) == 1  # memoized: no build after the batch
        for m in maps:
            if m.time == 0.0:
                assert (m.steps, m.submaps) == (0, 1)
                assert not m.factors[0].values.any() and not m.factors[0].gradients.any()
                continue
            assert_factor(m.factors[0], series_alone(X, m.time / m.submaps))

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(resolution=st.sampled_from([(64,), (16, 16)]),
           times=st.lists(st.sampled_from(SIGNED_TIMES), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_each_map_is_the_same_whatever_was_built_with_it(self, resolution, times, seed):
        # one field as two objects with separate memos: every time at once,
        # then the drawn times in the drawn order
        grid = TorusGrid(resolution)
        every = flow.flow_maps(band_limited_field(grid, np.random.default_rng(seed), 2, 0.05),
                               SIGNED_TIMES)
        X = band_limited_field(grid, np.random.default_rng(seed), 2, 0.05)
        for got, want in zip(flow.flow_maps(X, times), [every[SIGNED_TIMES.index(t)] for t in times]):
            assert (got.time, got.steps, got.submaps) == (want.time, want.steps, want.submaps)
            assert np.array_equal(got.factors[0].values, want.factors[0].values)
            assert np.array_equal(got.factors[0].gradients, want.factors[0].gradients)

    @pytest.mark.parametrize("resolution", [(64,), (16, 16), (32, 16)])
    def test_stage_transforms_are_numpys_n_d_transforms_bit_for_bit(self, monkeypatch,
                                                                     resolution):
        # np.fft.rfftn / irfftn are the oracle: the same transforms with
        # numpy's own argument handling, on a stage's (batch, n, n) + grid stack
        grid, n = TorusGrid(resolution), len(resolution)
        axes = tuple(range(3, n + 3))
        G = np.random.default_rng(2).standard_normal((3, n, n) + grid.shape)
        coefficients = np.fft.rfftn(G, axes=axes)
        assert np.array_equal(flow._rfftn(G, axes), coefficients)
        assert np.array_equal(flow._irfftn(coefficients, grid.shape, axes),
                              np.fft.irfftn(coefficients, s=grid.shape, axes=axes))
        velocity, shear = grid_values(band_limited_field(grid, np.random.default_rng(9), 2, 0.05))
        field = lambda s: (velocity, shear)  # noqa: E731

        def built():
            return (flow._flow_factor(grid, field, (0.2, -0.2, 0.05), 8),
                    *itertools.islice(flow._series_terms(grid, velocity, shear), 4))

        got = built()
        monkeypatch.setattr(flow, "_rfftn", lambda a, axes: np.fft.rfftn(a, axes=axes))
        monkeypatch.setattr(flow, "_irfftn",
                            lambda a, shape, axes: np.fft.irfftn(a, s=shape, axes=axes))
        for mine, numpys in zip(got, built()):
            assert np.array_equal(mine, numpys)

    def test_the_opposite_time_is_built_with_the_map(self, monkeypatch):
        X = single_mode_field(TorusGrid(32))
        phi = flow_map(X, 0.1)

        def unbuilt(*args):
            raise AssertionError("phi^-t was built again")

        monkeypatch.setattr(flow, "_series_terms", unbuilt)
        back = flow_map(X, -0.1)
        assert back.time == -0.1 and phi.time == 0.1
        assert back.steps == phi.steps and back.submaps == phi.submaps
        assert flow_map(X, -0.1) is back
        assert np.max(np.abs(back(phi(TorusGrid(32).points()).lifts).lifts - TorusGrid(32).points())) <= 1e-12

    @pytest.mark.parametrize("t", [0.0, -0.0])
    def test_t_zero_is_the_zero_map(self, t):
        grid = TorusGrid((16, 8))
        phi = flow_map(band_limited_field(grid, np.random.default_rng(8), 1, 0.1), t)
        assert (phi.time, phi.steps, phi.submaps) == (0.0, 0, 1)
        assert not phi.factors[0].values.any() and not phi.factors[0].gradients.any()

    def test_shared_arrays_are_read_only(self):
        grid = TorusGrid((16, 16))
        phi = flow_map(band_limited_field(grid, np.random.default_rng(5), 1, 0.1), 0.2)
        phi(np.random.default_rng(6).random((3, 2)))  # builds the coefficient stack
        factor = phi.factors[0]
        for array in (factor.values, factor.gradients, factor.coefficients):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0


class TestFieldStack:
    @pytest.mark.parametrize("resolution", [32, (16, 8)])
    def test_reads_the_grid_off_and_interpolates_elsewhere(self, resolution):
        # bit for bit at the grid points; their integer shifts are
        # interpolated, which agrees there to rounding
        grid = TorusGrid(resolution)
        n = grid.dim
        X = band_limited_field(grid, np.random.default_rng(7), 2, 0.3)
        want_values = np.stack([c.values.ravel() for c in X.components], axis=1)
        want_grads = np.stack([[c.derivative(j).values.ravel() for j in range(n)]
                               for c in X.components]).transpose(2, 0, 1)
        phi = flow_map(X, 0.2)
        for stack, values, grads in (
                (FieldStack.of(X.components), want_values, want_grads),
                (phi.factors[0], phi.factors[0].values.reshape(n, -1).T,
                 phi.factors[0].gradients.reshape(n, n, -1).transpose(2, 0, 1))):
            got_values, got_grads = stack(grid.points())
            assert np.array_equal(got_values, values) and np.array_equal(got_grads, grads)
            only_values, none = stack(grid.points(), gradients=False)
            assert np.array_equal(only_values, values) and none is None
            none, only_grads = stack(grid.points(), values=False)
            assert np.array_equal(only_grads, grads) and none is None
            for shift in (1.0, -2.0):
                got_values, got_grads = stack(grid.points() + shift)
                assert np.max(np.abs(got_values - values)) <= 1e-13
                assert np.max(np.abs(got_grads - grads)) <= 1e-13
                only_values = stack(grid.points() + shift, gradients=False)[0]
                assert np.max(np.abs(only_values - values)) <= 1e-13
                none, only_grads = stack(grid.points() + shift, values=False)
                assert none is None and np.max(np.abs(only_grads - grads)) <= 1e-13

    @pytest.mark.parametrize("resolution", [32, (16, 8)])
    def test_gradients_alone_interpolate_only_the_gradient_rows(self, monkeypatch, resolution):
        grid = TorusGrid(resolution)
        stack = FieldStack.of(band_limited_field(grid, np.random.default_rng(3), 2, 0.3).components)
        pts = np.random.default_rng(4).uniform(-1.0, 2.0, (7, grid.dim))
        rows = []

        def recording(grid, coefficients, points):
            rows.append(coefficients.shape[0])
            return sample_coefficients(grid, coefficients, points)

        monkeypatch.setattr(flow, "sample_coefficients", recording)
        for kwargs in ({}, {"gradients": False}, {"values": False}):
            stack(pts, **kwargs)
        n = grid.dim
        assert rows == [n + n * n, n, n * n]


def reference_point_flow(evaluator, s0, s1, points, steps, with_jacobian):
    """Lifts and Jacobians of the point RK4 as written before the shared
    stepper: the Jacobians by their own recurrence k_i = m_i (J + c h k_{i-1})
    on the points' stages, ``evaluator(s, p)`` giving velocities v_i and
    their Jacobians m_i."""
    p = np.array(points, dtype=float)
    m, n = p.shape
    J = np.tile(np.eye(n), (m, 1, 1)) if with_jacobian else None
    h = (s1 - s0) / steps
    for i in range(steps):
        s = s0 + i * h
        v1, m1 = evaluator(s, p)
        v2, m2 = evaluator(s + 0.5 * h, p + 0.5 * h * v1)
        v3, m3 = evaluator(s + 0.5 * h, p + 0.5 * h * v2)
        v4, m4 = evaluator(s + h, p + h * v3)
        if with_jacobian:
            k1 = m1 @ J
            k2 = m2 @ (J + 0.5 * h * k1)
            k3 = m3 @ (J + 0.5 * h * k2)
            k4 = m4 @ (J + h * k3)
            J = J + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = p + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    return p, J


def assert_same_flow(got, lifts, jacobians):
    assert np.array_equal(got.lifts, lifts)
    if jacobians is None:
        assert got.jacobians is None
    else:
        assert np.array_equal(got.jacobians, jacobians)


# (grid, points): the first stage reads the field off the grid at the grid
# points and interpolates it anywhere else
STEPPER_CASES = [(64, "grid"), (64, "scattered"), ((32, 16), "grid"), ((32, 16), "scattered")]


def stepper_points(grid, kind):
    if kind == "grid":
        return grid.points()
    return np.random.default_rng(10).uniform(-1.0, 2.0, (24, grid.dim))


class TestSharedStepper:
    """The point flow on the shared RK4 stepper against the point RK4 with
    its separate Jacobian recurrence, bit for bit, and the grid Moser maps
    against that point RK4 of the Moser field."""

    @pytest.mark.parametrize("resolution, kind", STEPPER_CASES)
    @pytest.mark.parametrize("t", [0.7, -0.7])
    @pytest.mark.parametrize("jacobian", [True, False])
    def test_integrate_flow(self, resolution, kind, t, jacobian):
        grid = TorusGrid(resolution)
        X = band_limited_field(grid, np.random.default_rng(9), 2, 0.1)
        pts = stepper_points(grid, kind)
        stack = FieldStack.of(X.components)
        want = reference_point_flow(lambda s, p: stack(p, jacobian), 0.0, t, pts, 32, jacobian)
        assert_same_flow(integrate_flow(X, t, pts, steps=32, jacobian=jacobian), *want)

    @pytest.mark.parametrize("jacobian", [True, False])
    def test_integrate_flow_at_t_zero_takes_no_step(self, jacobian):
        grid = TorusGrid((32, 16))
        X = band_limited_field(grid, np.random.default_rng(9), 2, 0.1)
        pts = stepper_points(grid, "scattered")
        for steps in (None, 0, 8):
            ev = integrate_flow(X, 0.0, pts, steps=steps, jacobian=jacobian)
            assert ev.steps == 0 and ev.time == 0.0
            assert_same_flow(ev, pts, np.tile(np.eye(2), (24, 1, 1)) if jacobian else None)
            assert ev.lifts is not pts

    MOSER_DENSITIES = {
        64: ([[1, 0.2, 0.1]], [[1, -0.1, 0.25], [2, 0.05, 0.0]]),
        (32, 16): ([[1, 0, 0.2, 0.1], [1, 1, 0.0, 0.1]],
                   [[0, 1, 0.15, -0.1], [2, 1, 0.05, 0.0]]),
    }

    @pytest.mark.parametrize("resolution, kind", STEPPER_CASES)
    @pytest.mark.parametrize("direction", ["transport", "inverse_transport"])
    @pytest.mark.parametrize("jacobian", [True, False])
    def test_moser_transport(self, resolution, kind, direction, jacobian):
        # the grid maps at 16 steps against the point RK4 of the same field at 1024
        transport, lifts, jacobians = moser_oracle(resolution, kind, direction)
        got = getattr(transport, direction)(stepper_points(transport.grid, kind),
                                            jacobian=jacobian)
        assert np.max(np.abs(got.lifts - lifts)) <= 2e-8
        if jacobian:
            assert np.max(np.abs(got.jacobians - jacobians)) <= 2e-6
        else:
            assert got.jacobians is None


@functools.cache
def moser_oracle(resolution, kind, direction):
    """The Moser transport of `TestSharedStepper.MOSER_DENSITIES` at 16 steps,
    with the lifts and Jacobians of its ``direction`` at the stepper points
    by the point RK4 in 1024 steps, X_s = flux / eta_s and its Jacobian
    sampled at the points by the quotient rule."""
    grid = TorusGrid(resolution)
    n = grid.dim
    omega0, omega1 = (VolumeDensity.from_modes(grid, modes)
                      for modes in TestSharedStepper.MOSER_DENSITIES[resolution])
    transport = moser_transport(omega0, omega1, steps=16)
    stack = FieldStack.of(list(transport.theta.flux().components) + [omega0.eta, omega1.eta])

    def field(s, p):
        values, grads = stack(p)
        es = (1.0 - s) * values[:, n] + s * values[:, n + 1]
        vel = values[:, :n] / es[:, None]
        des = (1.0 - s) * grads[:, n] + s * grads[:, n + 1]
        return vel, (grads[:, :n] - vel[:, :, None] * des[:, None, :]) / es[:, None, None]

    s0, s1 = (0.0, 1.0) if direction == "transport" else (1.0, 0.0)
    return (transport, *reference_point_flow(field, s0, s1, stepper_points(grid, kind), 1024,
                                             True))


class TestTransportedDensity:
    """A density the grid under-resolves fails its tail gate; the message
    carries the spectral tail/peak (largest |c_k| with |k| >= N/4 over the
    largest |c_k|) so it does not read as a transport defect.  A resolved
    density that fails the mass gate names the flow instead."""

    @staticmethod
    def transported(n):
        grid = TorusGrid(n)
        omega = VolumeDensity.lebesgue(grid)
        X = solve_for_field(ScalarField.from_modes(grid, [[1, 4.0, 0.0]]), omega)
        return pushforward_density(omega, X, 0.5)

    def test_under_resolved_mass_loss_names_the_tail(self):
        with pytest.raises(QualityError, match=r"is under-resolved .*spectral tail/peak 1\.3e-02"
                                               r".*under-resolve.*raise N"):
            self.transported(64)

    def test_under_resolved_2d_density_names_the_tail(self):
        grid = TorusGrid((32, 32))
        omega = VolumeDensity.lebesgue(grid)
        X = solve_for_field(ScalarField.from_modes(grid, [[1, 1, 3.0, 0.0]]), omega)
        with pytest.raises(QualityError, match=r"is under-resolved .*spectral tail/peak 2\.7e-02"
                                               r".*under-resolve.*raise N"):
            pushforward_density(omega, X, 0.5)

    def test_long_flow_mass_loss_names_the_flow_time(self):
        grid = TorusGrid(64)
        omega = VolumeDensity.lebesgue(grid)
        X = solve_for_field(ScalarField.from_modes(grid, [[1, 1.0, 0.0]]), omega)
        with pytest.raises(QualityError, match="lost mass.*1000") as raised:
            pushforward_density(omega, X, 1000.0)
        assert "raise N" not in str(raised.value)

    def test_resolved_density_passes(self):
        coefficients = np.abs(self.transported(128).eta.coefficients)
        tail = coefficients[32:97].max() / coefficients.max()  # |k| >= 32
        assert 1.5e-4 <= tail <= 1.7e-4


class TestInverseFlow:
    @pytest.mark.parametrize("t", [0.2, 1.0])
    def test_round_trip(self, t):
        grid = TorusGrid(64)
        X = single_mode_field(grid)
        rng = np.random.default_rng(8)
        pts = rng.random((100, 1))
        fwd = integrate_flow(X, t, pts, steps=64)
        back = integrate_flow(X, -t, fwd.points, steps=64)
        assert np.max(np.abs(wrap_difference(back.points - pts))) <= 1e-9

    def test_jacobian_chain_rule(self):
        grid = TorusGrid(64)
        X = single_mode_field(grid)
        rng = np.random.default_rng(9)
        pts = rng.random((50, 1))
        fwd = integrate_flow(X, 0.2, pts, steps=64)
        back = integrate_flow(X, -0.2, fwd.points, steps=64)
        product = back.jacobians[:, 0, 0] * fwd.jacobians[:, 0, 0]
        assert np.max(np.abs(product - 1.0)) <= 1e-8


class TestFlowProperties:
    def test_group_law(self):
        grid = TorusGrid(64)
        X = single_mode_field(grid)
        rng = np.random.default_rng(10)
        pts = rng.random((40, 1))
        s, t = 0.3, 0.45
        combined = integrate_flow(X, s + t, pts, steps=96).points
        staged = integrate_flow(X, s, integrate_flow(X, t, pts, steps=64).points, steps=64).points
        assert np.max(np.abs(wrap_difference(combined - staged))) <= 1e-8

    def test_divergence_free_preserves_volume(self):
        grid = TorusGrid((32, 32))
        psi = ScalarField.from_modes(grid, [[1, 1, 0.1, 0.0], [2, -1, 0.0, 0.05]])
        X = VectorFieldT([psi.derivative(1), -psi.derivative(0)])
        assert divergence(X).max_abs <= 1e-11
        rng = np.random.default_rng(11)
        pts = rng.random((30, 2))
        ev = integrate_flow(X, 0.5, pts, steps=128)
        assert np.max(np.abs(ev.determinants() - 1.0)) <= 1e-8

    def test_liouville_formula(self):
        # d/dt log det Dphi^t = div X at phi^t(x), probed by central differences
        grid = TorusGrid(64)
        x = grid.axis_points(0)
        X = VectorFieldT([ScalarField(grid, 0.2 * np.sin(2 * np.pi * x) + 0.1 * np.cos(4 * np.pi * x))])
        div = divergence(X)
        rng = np.random.default_rng(12)
        pts = rng.random((20, 1))
        t, dt = 0.3, 1e-3
        mid = integrate_flow(X, t, pts, steps=128)
        plus = integrate_flow(X, t + dt, pts, steps=128)
        minus = integrate_flow(X, t - dt, pts, steps=128)
        lhs = (np.log(plus.determinants()) - np.log(minus.determinants())) / (2 * dt)
        rhs = div.sample(mid.points)
        assert np.max(np.abs(lhs - rhs)) <= 1e-5


class TestMoserTransport:
    def test_identical_densities_give_identity(self):
        grid = TorusGrid(64)
        omega = VolumeDensity.from_modes(grid, [[1, 0.3, 0.0]])
        transport = moser_transport(omega, omega, steps=16)
        assert all(c.max_abs == 0.0 for c in transport.theta.components)
        rng = np.random.default_rng(13)
        pts = rng.random((20, 1))
        ev = transport(pts)
        assert np.max(np.abs(wrap_difference(ev.points - pts))) <= 1e-14

    def test_pushforward_reaches_target(self):
        grid = TorusGrid(128)
        omega0 = VolumeDensity.lebesgue(grid)
        omega1 = VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])
        transport = moser_transport(omega0, omega1, steps=256)
        pushed = transported_density(omega0, transport.inverse_transport)
        assert np.max(np.abs(pushed.eta.values - omega1.eta.values)) <= 1e-6

    def test_transport_round_trip(self):
        grid = TorusGrid(128)
        omega0 = VolumeDensity.lebesgue(grid)
        omega1 = VolumeDensity.from_modes(grid, [[1, 0.4, 0.2]])
        transport = moser_transport(omega0, omega1, steps=128)
        rng = np.random.default_rng(14)
        pts = rng.random((30, 1))
        fwd = transport.transport(pts)
        back = transport.inverse_transport(fwd.points)
        assert np.max(np.abs(wrap_difference(back.points - pts))) <= 1e-9

    def test_mirror_symmetric_pair(self):
        # eta0(x) = eta1(-x): the transport conjugated by the reflection is
        # its own inverse
        grid = TorusGrid(128)
        omega0 = VolumeDensity.from_modes(grid, [[1, 0.25, 0.15]])
        omega1 = VolumeDensity.from_modes(grid, [[1, 0.25, -0.15]])
        transport = moser_transport(omega0, omega1, steps=256)
        rng = np.random.default_rng(15)
        pts = rng.random((25, 1))
        reflected_push = (-transport.transport((-pts) % 1.0).points) % 1.0
        back = transport.inverse_transport(pts).points
        assert np.max(np.abs(wrap_difference(reflected_push - back))) <= 1e-6

    @pytest.mark.parametrize("resolution, modes0, modes1", [
        ((48, 48), [[1, 2, -0.280811, -0.04292]], [[-2, -2, -0.147534, 0.218544]]),
        (128, None, [[3, -0.407072, 0.56784]]),
        (64, [[1, 0.2, 0.1]], [[1, -0.1, 0.25], [2, 0.05, 0.0]]),
    ])
    def test_every_factor_honours_the_submap_stretch(self, resolution, modes0, modes1):
        # a factor over an interval where the integral of ||grad X_s||_inf is
        # at most c has ||G||_inf = ||DPhi - I||_inf <= e^c - 1 (Gronwall)
        grid = TorusGrid(resolution)
        omega0 = VolumeDensity.from_modes(grid, modes0) if modes0 else VolumeDensity.lebesgue(grid)
        transport = moser_transport(omega0, VolumeDensity.from_modes(grid, modes1), steps=16)
        assert transport.submaps > 1 and transport.substeps % transport.submaps == 0
        for phi in (transport.forward, transport.inverse):
            assert (phi.submaps, phi.steps) == (transport.submaps, transport.substeps)
            assert len({id(factor) for factor in phi.factors}) == phi.submaps
            for factor in phi.factors:
                stretch = np.abs(factor.gradients).sum(axis=1).max()
                assert stretch <= math.expm1(flow.MOSER_SUBMAP_STRETCH)

    def test_batched_factors_are_each_factor_alone_bit_for_bit(self):
        # the factors of one direction take one batched `_flow_factor`
        # integration, at their own starts and with X_s per batch entry
        grid = TorusGrid((32, 16))
        omega0, omega1 = (VolumeDensity.from_modes(grid, modes)
                          for modes in TestSharedStepper.MOSER_DENSITIES[(32, 16)])
        transport = moser_transport(omega0, omega1, steps=16)
        m = transport.submaps
        assert m > 1
        ends = np.arange(m + 1) / m

        def field(s):
            velocity, shear = transport._grid_field(s)
            return -velocity, -shear

        # phi_{0->1} runs its factors from s = 0 up, phi_{1->0} from s = 1 down
        for factors, time, starts in ((transport.forward.factors, 1.0, ends[1:]),
                                      (transport.inverse.factors[::-1], -1.0, ends[:-1])):
            for factor, start in zip(factors, starts):
                assert_factor(factor, flow._flow_factor(grid, field, [-time / m],
                                                        transport.substeps // m, start)[0])

    def test_steps_are_a_lower_bound_raised_for_stability(self):
        # 8 factors, each of at least 4 substeps (the stability floor)
        grid = TorusGrid(64)
        omega0 = VolumeDensity.lebesgue(grid)
        omega1 = VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])
        for steps, substeps in ((1, 32), (4, 32), (64, 64)):
            transport = moser_transport(omega0, omega1, steps=steps)
            assert (transport.steps, transport.substeps, transport.submaps) == (steps, substeps, 8)
            pushed = transported_density(omega0, transport.inverse_transport)
            assert transport.inverse.steps == substeps
            assert np.max(np.abs(pushed.eta.values - omega1.eta.values)) <= 1e-8

    def test_rejects_mismatched_grids(self):
        with pytest.raises(ValueError):
            moser_transport(
                VolumeDensity.lebesgue(TorusGrid(32)),
                VolumeDensity.lebesgue(TorusGrid(64)),
            )

    def test_two_torus_transport(self):
        grid = TorusGrid((32, 32))
        omega0 = VolumeDensity.lebesgue(grid)
        omega1 = VolumeDensity.from_modes(grid, [[1, 0, 0.3, 0.0], [0, 1, 0.0, 0.2]])
        transport = moser_transport(omega0, omega1, steps=128)
        pushed = transported_density(omega0, transport.inverse_transport)
        assert np.max(np.abs(pushed.eta.values - omega1.eta.values)) <= 1e-6

    def test_two_torus_full_jacobian_matrix(self):
        grid = TorusGrid((32, 32))
        omega0 = VolumeDensity.from_modes(grid, [[1, 0, 0.2, 0.1], [1, 1, 0.0, 0.1]])
        omega1 = VolumeDensity.from_modes(grid, [[0, 1, 0.15, -0.1], [2, 1, 0.05, 0.0]])
        transport = moser_transport(omega0, omega1, steps=32)
        pts = np.random.default_rng(17).random((20, 2))
        reference = central_difference_jacobian(
            lambda p: transport.transport(p, jacobian=False).lifts, pts)
        assert_full_jacobian(transport.transport(pts).jacobians, reference)
