"""Flow integration, variational Jacobians, and volume transport.

Oracles: a closed-form solution of dx/dt = -sin(2 pi x)/(2 pi) (with its
exact linearization), self-convergence against a very fine reference run,
the classical h^4 convergence order, Liouville's formula, and composition
identities (group law, inverse round trip).  The grid-resident flow maps are
checked against the point integrator `integrate_flow` and against a fine RK4
build of their grid system; batched builds against single builds, bit for
bit, the stage derivatives against numpy's n-d spectral derivatives, to
rounding, their differentiation matrices against the FFT derivative, and
`integrate_flow` against the point RK4 with its own Jacobian recurrence, bit
for bit.  The grid Moser maps are checked against that point RK4 of the
Moser field and each factor against a fine RK4 build of its grid system
(`rk4_oracle`); their batched factors (both directions in one batch)
against each factor and each direction built alone, bit for bit; each
factor against the stretch bound; their factor-by-factor pushforward
against the composed one.
"""

import functools
import gc
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjresp import (
    ConvergenceError,
    FlowEvaluation,
    MoserFlow,
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
from rk4_oracle import flow_factor, moser_factors
from test_dynamics import counting_samples


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


class TestDeterminants:
    def test_closed_form_matches_lu_to_rounding(self):
        rng = np.random.default_rng(21)
        near_identity = np.eye(2) + 0.1 * rng.standard_normal((500, 2, 2))
        shear = np.tile(np.eye(2), (500, 1, 1))
        shear[:, 0, 1] = rng.uniform(-20.0, 20.0, 500)
        J = np.concatenate([near_identity,
                            (np.eye(2) + 0.1 * rng.standard_normal((500, 2, 2))) @ shear])
        got = FlowEvaluation(np.zeros((1000, 2)), J, 1.0, 1).determinants()
        scale = np.abs(J[:, 0, 0] * J[:, 1, 1]) + np.abs(J[:, 0, 1] * J[:, 1, 0])
        assert np.all(np.abs(got - np.linalg.det(J)) <= 4 * np.finfo(float).eps * scale)

    def test_one_d_determinant_is_the_entry(self):
        J = np.random.default_rng(22).uniform(0.1, 3.0, (100, 1, 1))
        got = FlowEvaluation(np.zeros((100, 1)), J, 1.0, 1).determinants()
        assert np.array_equal(got, J[:, 0, 0])

    @pytest.mark.parametrize("J, smallest", [
        ([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [0.75, 1.0]]], "-0.5"),
        ([[[2.0, 4.0], [1.0, 2.0]]], "0"),
        ([[[1.5]], [[-0.25]]], "-0.25")])
    def test_non_positive_determinant_is_refused_naming_the_smallest(self, J, smallest):
        J = np.array(J)
        with pytest.raises(QualityError, match=f"smallest determinant {smallest}$") as raised:
            FlowEvaluation(np.zeros(J.shape[:2]), J, 1.0, 1)
        assert raised.value.defect == float(smallest)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_nan_determinant_is_refused_as_such(self, n):
        J = np.tile(np.eye(n), (4, 1, 1))
        J[2, 0, n - 1] = np.nan
        with pytest.raises(QualityError, match="a NaN determinant at point 2 of 4$") as raised:
            FlowEvaluation(np.zeros((4, n)), J, 1.0, 1)
        assert np.isnan(raised.value.defect)


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


# prints the digest of `_advection`'s bits on a random batch of each grid
# and on its first entry alone, as the Moser and the flow-map series run it
ADVECTION_ALL = """
import hashlib, json, sys
import numpy as np
from conjresp import TorusGrid, flow
digests = {}
for resolution in json.loads(sys.argv[1]):
    grid = TorusGrid(resolution)
    n = grid.dim
    rng = np.random.default_rng(sum(grid.shape))
    G, velocity = (rng.standard_normal(shape + grid.shape) for shape in ((3, n, n), (n, 3, 1, 1)))
    got = [flow._advection(G, velocity), flow._advection(G[0], velocity[:, 0])]
    digests[str(resolution)] = hashlib.sha256(b"".join(a.tobytes() for a in got)).hexdigest()
print(json.dumps(digests))
"""


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
        want = flow_factor(grid, lambda s: (velocity, shear), (t / phi.submaps,), 1024)[0]
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
        rk4 = flow_factor(grid, lambda s: (velocity, shear), (0.01, -0.01), 1024)
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
    def test_stage_derivatives_are_the_n_d_spectral_derivatives(self, resolution):
        # with v = e_j the advection (v . grad) G is d G / d x_j alone; the
        # oracle is np.fft.rfftn / irfftn with the derivative symbol cut to
        # the last axis' wavenumbers 0..N/2.  The per-axis transforms differ
        # from it by rounding: at most 4e-16 of max|dG| here, 1e-14 allowed
        grid, n = TorusGrid(resolution), len(resolution)
        axes = tuple(range(3, n + 3))
        G = np.random.default_rng(2).standard_normal((3, n, n) + grid.shape)
        coefficients = np.fft.rfftn(G, axes=axes)
        cut = (..., slice(resolution[-1] // 2 + 1))
        for j in range(n):
            velocity = np.zeros((n, 1, 1) + grid.shape)
            velocity[j] = 1.0
            got = flow._advection(G, velocity)
            want = np.fft.irfftn(coefficients * grid.derivative_symbol(j)[cut], s=grid.shape,
                                 axes=axes).reshape(got.shape)
            bound = 1e-14 * np.abs(want).max()
            assert np.max(np.abs(got - want)) <= bound
            if j < n - 1:
                # an n-d derivative that kept the Nyquist mode of a leading
                # axis (there, unlike on a real transform's own axis, it
                # does not drop out) is far outside the bound
                kept = 2j * np.pi * np.fft.fftfreq(resolution[j], 1.0 / resolution[j])
                kept = np.fft.irfftn(coefficients * kept.reshape((-1,) + (1,) * (n - j - 1))[cut],
                                     s=grid.shape, axes=axes).reshape(got.shape)
                assert np.max(np.abs(got - kept)) > 1e3 * bound

    @pytest.mark.parametrize("shape", [(8, 8, 8), (8, 10, 12)], ids=["8^3", "8x10x12"])
    def test_advection_differentiates_every_axis_of_three_grid_axes(self, shape):
        # `_advection` takes arrays, so three grid axes need no 3-d grid: a
        # (3, 3) batch against sum_j v_j times the FFT derivative along grid
        # axis j, the Nyquist mode zeroed; at most 4e-16 of max|want| here,
        # 1e-14 allowed.  A product on the wrong axis is off by O(max|want|)
        rng = np.random.default_rng(sum(shape))
        G = rng.standard_normal((3, 3) + shape)
        velocity = rng.standard_normal((3,) + shape)
        want = np.zeros_like(G)
        for j, size in enumerate(shape):
            symbol = TorusGrid(size).derivative_symbol(0).reshape((size,) + (1,) * (2 - j))
            spectrum = np.fft.fft(G, axis=j + 2) * symbol
            want += velocity[j] * np.fft.ifft(spectrum, axis=j + 2).real
        got = flow._advection(G, velocity)
        assert got.shape == G.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("size", [8, 16, 48, 64, 256, 512])
    def test_derivative_matrix_is_the_fft_derivative_of_the_identity(self, size):
        # column k is the derivative of the k-th unit vector by a real FFT
        # and its inverse, the Nyquist mode zeroed: at most 4.5e-16 of
        # max|D| over these sizes, 1e-15 allowed
        symbol = TorusGrid(size).derivative_symbol(0)[:size // 2 + 1, None]
        want = np.fft.irfft(np.fft.rfft(np.eye(size), axis=0) * symbol, size, axis=0)
        got = flow._derivative_matrix(size)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.abs(want).max()
        assert np.array_equal(got, -got.T) and not got.diagonal().any()

    def test_derivative_matrix_is_read_only_and_shared_by_equal_axes(self, monkeypatch):
        made, matrix = [], flow._derivative_matrix

        def recording(size):
            made.append(matrix(size))
            return made[-1]

        monkeypatch.setattr(flow, "_derivative_matrix", recording)
        for shape in ((48, 48), (48, 16)):
            flow._advection(np.zeros((2, 2) + shape), np.zeros((2, 1, 1) + shape))
        assert [m.shape[0] for m in made] == [48, 48, 48, 16]
        assert made[0] is made[1] is made[2]
        with pytest.raises(ValueError, match="read-only"):
            made[0][0, 1] = 0.0

    def test_stage_derivative_bits_do_not_depend_on_the_blas_thread_count(self):
        # the 2-d shapes of the Moser and torus flow maps, and the 1-d ones
        # of the circle flow maps
        shapes = [[48, 48], [64, 64], [128, 128], [256, 128], [128], [256], [512]]
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(flow.__file__).parents[1]))
            done = subprocess.run([sys.executable, "-c", ADVECTION_ALL, json.dumps(shapes)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(json.loads(done.stdout))
        assert sorted(digests[0]) == sorted(map(str, shapes))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("resolution", [(128,), (256,), (512,), (32, 16), (48, 48), (64, 64)],
                             ids=lambda resolution: "x".join(map(str, resolution)))
    def test_the_sign_folded_last_axis_product_is_the_transposed_one_bit_for_bit(self, resolution):
        # G @ D^T = -(G @ D), D being antisymmetric: with the minus sign in
        # the coefficient the advection has the bits of a product with a
        # contiguous copy of D^T, so the Moser factors kept theirs
        grid, n = TorusGrid(resolution), len(resolution)
        rng = np.random.default_rng(sum(resolution))
        G = rng.standard_normal((3, n, n) + grid.shape)
        velocity = rng.standard_normal((n, 3, 1, 1) + grid.shape)
        transposed = np.ascontiguousarray(flow._derivative_matrix(resolution[-1]).T)
        want = (G @ transposed) * velocity[-1]
        if n == 2:
            want += (flow._derivative_matrix(resolution[0]) @ G) * velocity[0]
        assert flow._advection(G, velocity).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("resolution", [32, (16, 8)])
    def test_a_call_transforms_only_the_rows_it_reads(self, monkeypatch, resolution):
        grid = TorusGrid(resolution)
        n = grid.dim
        X = band_limited_field(grid, np.random.default_rng(8), 2, 0.3)
        factor = flow_map(X, 0.2).factors[0]
        pts = np.random.default_rng(9).uniform(-1.0, 2.0, (7, n))
        rows = np.concatenate([factor.values, factor.gradients.reshape((-1,) + grid.shape)])
        whole = np.fft.fftn(rows, axes=tuple(range(1, n + 1))) / grid.size
        full = sample_coefficients(grid, whole, pts)
        fftn, transformed = np.fft.fftn, []

        def recording(a, *args, **kwargs):
            transformed.append(a.shape[0])
            return fftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", recording)
        values, none = factor(pts, gradients=False)
        assert transformed == [n] and none is None
        both = factor(pts)
        assert transformed == [n, n * n]
        factor(pts)
        factor(pts, values=False)
        assert transformed == [n, n * n]
        assert np.array_equal(values, full[:, :n]) and np.array_equal(both[0], full[:, :n])
        assert np.array_equal(both[1], full[:, n:].reshape(-1, n, n))
        assert np.array_equal(factor.coefficients, whole)


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
    transport = moser_transport(omega0, omega1)
    stack = FieldStack.of(list(transport.theta.components) + [omega0.eta, omega1.eta])

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

    def test_non_finite_density_is_named(self):
        # an inverse transport with a NaN determinant at one grid point; a
        # FlowEvaluation refuses to hold one, so this evaluation is a stand-in
        grid = TorusGrid(64)

        def inverse(points, jacobian=True):
            determinants = np.ones(len(points))
            determinants[7] = np.nan
            return SimpleNamespace(points=np.array(points, dtype=float), time=1.0, steps=2,
                                   determinants=lambda: determinants)

        with pytest.raises(QualityError, match=r"has non-finite values after a flow of \|t\| = 1"):
            transported_density(VolumeDensity.lebesgue(grid), inverse)

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
        transport = moser_transport(omega, omega)
        assert all(c.max_abs == 0.0 for c in transport.theta.components)
        rng = np.random.default_rng(13)
        pts = rng.random((20, 1))
        ev = transport(pts)
        assert np.max(np.abs(wrap_difference(ev.points - pts))) <= 1e-14

    def test_pushforward_reaches_target(self):
        grid = TorusGrid(128)
        omega0 = VolumeDensity.lebesgue(grid)
        omega1 = VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])
        transport = moser_transport(omega0, omega1)
        pushed = transport.pushforward(omega0)
        assert np.max(np.abs(pushed.eta.values - omega1.eta.values)) <= 1e-6

    def test_transport_round_trip(self):
        grid = TorusGrid(128)
        omega0 = VolumeDensity.lebesgue(grid)
        omega1 = VolumeDensity.from_modes(grid, [[1, 0.4, 0.2]])
        transport = moser_transport(omega0, omega1)
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
        transport = moser_transport(omega0, omega1)
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
        transport = moser_transport(omega0, VolumeDensity.from_modes(grid, modes1))
        assert transport.submaps > 1
        for phi in (transport.forward, transport.inverse):
            assert (phi.submaps, phi.steps) == (transport.submaps, transport.submaps)
            assert len({id(factor) for factor in phi.factors}) == phi.submaps
            for factor in phi.factors:
                stretch = np.abs(factor.gradients).sum(axis=1).max()
                assert stretch <= math.expm1(flow.MOSER_SUBMAP_STRETCH)

    def test_batched_factors_are_each_factor_alone_bit_for_bit(self):
        # the factors of one direction take one batched `_moser_factors` run,
        # each at its own start and ending on its own tolerance
        grid = TorusGrid((32, 16))
        omega0, omega1 = (VolumeDensity.from_modes(grid, modes)
                          for modes in TestSharedStepper.MOSER_DENSITIES[(32, 16)])
        transport = moser_transport(omega0, omega1)
        m = transport.submaps
        assert m > 1
        ends = np.arange(m + 1) / m
        # phi_{0->1} runs its factors from s = 0 up, phi_{1->0} from s = 1 down
        for factors, time, starts in ((transport.forward.factors, 1.0, ends[1:]),
                                      (transport.inverse.factors[::-1], -1.0, ends[:-1])):
            for factor, start in zip(factors, starts):
                assert_factor(factor, flow._moser_factors(grid, transport._values,
                                                          transport._gradients, [start],
                                                          [-time / m])[0])

    # (resolution, eta0 modes or None for Lebesgue, eta1 modes): Moser maps
    # of several factors, on the moser-transport benchmark's grids
    SPLIT_TRANSPORTS = [
        (128, None, [[3, -0.407072, 0.56784]]),
        ((48, 48), [[1, 2, -0.280811, -0.04292]], [[-2, -2, -0.147534, 0.218544]]),
        ((32, 16), *TestSharedStepper.MOSER_DENSITIES[(32, 16)]),
    ]

    @staticmethod
    def split_transport(resolution, modes0, modes1):
        grid = TorusGrid(resolution)
        omega0 = VolumeDensity.from_modes(grid, modes0) if modes0 else VolumeDensity.lebesgue(grid)
        return moser_transport(omega0, VolumeDensity.from_modes(grid, modes1))

    @pytest.mark.parametrize("case", SPLIT_TRANSPORTS, ids=["128", "48x48", "32x16"])
    def test_both_directions_in_one_batch_are_each_direction_alone_bit_for_bit(
            self, monkeypatch, case):
        batches, build = [], flow._moser_factors

        def counting(grid, values, gradients, starts, times):
            batches.append(len(times))
            return build(grid, values, gradients, starts, times)

        monkeypatch.setattr(flow, "_moser_factors", counting)
        transport = self.split_transport(*case)
        m = transport.submaps
        assert m > 1
        forward, inverse = transport.maps((1.0, -1.0))
        assert (forward.time, inverse.time) == (1.0, -1.0)
        assert transport.forward is forward and transport.inverse is inverse
        assert transport.maps((-1.0, 1.0)) == [inverse, forward]
        assert batches == [2 * m]  # one run of terms, no build after it
        for name, phi in (("forward", forward), ("inverse", inverse)):
            alone = getattr(self.split_transport(*case), name)
            assert (alone.steps, alone.submaps) == (phi.steps, phi.submaps)
            for factor, single in zip(phi.factors, alone.factors):
                assert np.array_equal(factor.values, single.values)
                assert np.array_equal(factor.gradients, single.gradients)
        assert batches == [2 * m, m, m]
        with pytest.raises(KeyError):
            transport.maps((0.5,))

    # the factor indices checked per case, None for all: the oracle takes
    # about 1.1 s per 48^2 factor and 0.2 s per 32x16 one, so the 2-d maps
    # check the first factor of each direction, the ones ending at s = 0 and 1
    @pytest.mark.parametrize("case, indices", zip(SPLIT_TRANSPORTS, [None, (0,), (0,)]),
                             ids=["128", "48x48", "32x16"])
    def test_every_factor_is_its_rk4_build(self, case, indices):
        # the series is the exact solution of the grid system that RK4 steps,
        # so 1024 substeps per factor agree to rounding: D within 4.6e-17 and
        # G within 6.7e-16 on these maps
        transport = self.split_transport(*case)
        n = transport.grid.dim
        want = moser_factors(transport, 1024, indices)
        for t, phi in ((1.0, transport.forward), (-1.0, transport.inverse)):
            factors = [phi.factors[i] for i in indices or range(phi.submaps)]
            assert len(factors) == len(want[t])
            for factor, state in zip(factors, want[t]):
                assert np.max(np.abs(factor.values - state[:n])) <= 2e-16
                assert np.max(np.abs(factor.gradients.reshape(state[n:].shape)
                                     - state[n:])) <= 2e-15

    def test_a_series_past_its_term_cap_raises(self, monkeypatch):
        transport = self.split_transport(*self.SPLIT_TRANSPORTS[2])
        m = transport.submaps
        monkeypatch.setattr(flow, "SERIES_TERMS", 3)
        # the inverse's factors come first in the batch, from s = 0 up
        with pytest.raises(ConvergenceError, match=rf"the Moser map at t = -1 did not converge: "
                           rf"the series of its factor from s = 0 to s = {1 / m:g} .* after 3 "
                           "terms") as err:
            transport.maps((-1.0, 1.0))
        assert err.value.iterations == 3 and err.value.residual > flow.SERIES_TOL
        assert transport._maps == {1.0: None, -1.0: None}  # nothing is kept of a failed build

    def test_submaps_is_the_one_step_number(self):
        # the series sets the accuracy: 8 factors, one Taylor step each, and
        # no step count to pass in or to read back beside submaps
        assert list(inspect.signature(moser_transport).parameters) == ["omega0", "omega1"]
        assert list(inspect.signature(MoserFlow).parameters) == ["theta", "omega0", "omega1"]
        grid = TorusGrid(64)
        omega0 = VolumeDensity.lebesgue(grid)
        omega1 = VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])
        transport = moser_transport(omega0, omega1)
        assert transport.submaps == 8
        assert not hasattr(transport, "steps") and not hasattr(transport, "substeps")
        pushed = transport.pushforward(omega0)
        assert transport.forward.steps == transport.inverse.steps == 8
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
        transport = moser_transport(omega0, omega1)
        pushed = transport.pushforward(omega0)
        assert np.max(np.abs(pushed.eta.values - omega1.eta.values)) <= 1e-6

    def test_two_torus_full_jacobian_matrix(self):
        grid = TorusGrid((32, 32))
        omega0 = VolumeDensity.from_modes(grid, [[1, 0, 0.2, 0.1], [1, 1, 0.0, 0.1]])
        omega1 = VolumeDensity.from_modes(grid, [[0, 1, 0.15, -0.1], [2, 1, 0.05, 0.0]])
        transport = moser_transport(omega0, omega1)
        pts = np.random.default_rng(17).random((20, 2))
        reference = central_difference_jacobian(
            lambda p: transport.transport(p, jacobian=False).lifts, pts)
        assert_full_jacobian(transport.transport(pts).jacobians, reference)


class TestMoserPushforward:
    """`MoserFlow.pushforward` pushes a density through the inverse's factors
    one at a time, last-applied first, against the composed pushforward
    `transported_density(omega0, psi.inverse_transport)` as its oracle."""

    CASES = TestMoserTransport.SPLIT_TRANSPORTS

    @pytest.mark.parametrize("case", CASES, ids=["128", "48x48", "32x16"])
    def test_agrees_with_the_composed_pushforward_and_reaches_the_target(self, case):
        # against the oracle at most 4.5e-11 (128), 2.1e-8 (48x48) and
        # 2.3e-8 (32x16), 1e-7 allowed: both interpolate, at other points
        transport = TestMoserTransport.split_transport(*case)
        assert transport.submaps >= 4
        pushed = transport.pushforward(transport.omega0).eta.values
        oracle = transported_density(transport.omega0, transport.inverse_transport).eta.values
        assert np.max(np.abs(pushed - oracle)) <= 1e-7
        assert np.max(np.abs(pushed - transport.omega1.eta.values)) <= 1e-6

    @pytest.mark.parametrize("case", CASES, ids=["128", "48x48", "32x16"])
    def test_interpolates_one_row_per_factor(self, monkeypatch, case):
        transport = TestMoserTransport.split_transport(*case)
        calls = counting_samples(monkeypatch)
        transport.pushforward(transport.omega0)
        assert calls and len(calls) <= transport.submaps and set(calls) == {1}

    @pytest.mark.parametrize("case", CASES, ids=["128", "48x48", "32x16"])
    def test_the_factors_first_applied_first_miss_the_target(self, case):
        # the factors do not commute: in the wrong order the pushforward
        # misses eta1 by 9.5e-3 to 8.9e-2
        transport = TestMoserTransport.split_transport(*case)
        inverse = transport.inverse
        transport._maps[-1.0] = FlowMap(inverse.factors[::-1], inverse.time, inverse.steps)
        pushed = transport.pushforward(transport.omega0).eta.values
        assert np.max(np.abs(pushed - transport.omega1.eta.values)) > 1e-3

    def test_under_resolved_density_names_the_tail(self):
        grid = TorusGrid(32)
        transport = moser_transport(VolumeDensity.lebesgue(grid),
                                    VolumeDensity.from_modes(grid, [[8, 0.3, 0.0]]))
        with pytest.raises(QualityError, match=r"is under-resolved .*spectral tail/peak 1\.5e-01"
                                               r".*under-resolve.*raise N"):
            transport.pushforward(transport.omega0)

    def test_mass_loss_names_the_flow(self):
        # the grid system keeps the mass to rounding, so the inverse's
        # Jacobians are put 0.1% off their displacements' gradients
        transport = TestMoserTransport.split_transport(*self.CASES[1])
        inverse = transport.inverse
        skewed = [FieldStack(f.grid, f.values, 1.001 * f.gradients) for f in inverse.factors]
        transport._maps[-1.0] = FlowMap(skewed, inverse.time, inverse.steps)
        with pytest.raises(QualityError, match=rf"lost mass.*\|t\| = 1 in {inverse.steps} steps"
                           ) as raised:
            transport.pushforward(transport.omega0)
        assert "raise N" not in str(raised.value)

    def test_rejects_a_density_on_another_grid(self):
        transport = TestMoserTransport.split_transport(*self.CASES[2])
        with pytest.raises(ValueError, match="different grids"):
            transport.pushforward(VolumeDensity.lebesgue(TorusGrid(32)))
