"""Flow integration, variational Jacobians, and volume transport.

Oracles: a closed-form solution of dx/dt = -sin(2 pi x)/(2 pi) (with its
exact linearization), self-convergence against a very fine reference run,
the classical h^4 convergence order, Liouville's formula, and composition
identities (group law, inverse round trip).  The grid-resident flow maps are
checked against the point integrator `integrate_flow`, batched builds
against single builds and the stage transforms against numpy's n-d ones, bit
for bit, and the point flows against the point RK4 with its own Jacobian
recurrence, bit for bit.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjresp import (
    FlowEvaluation,
    QualityError,
    ScalarField,
    TorusGrid,
    VectorFieldT,
    VolumeDensity,
    default_steps,
    divergence,
    flow_map,
    integrate_flow,
    moser_transport,
    pushforward_density,
    solve_for_field,
    transported_density,
    wrap_difference,
)
from conjresp import flow
from conjresp.fields import sample_coefficients
from conjresp.flow import FieldStack


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
        ev = integrate_flow(single_mode_field(grid), 0.0, pts)
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

    def test_default_steps_scales(self):
        grid = TorusGrid(32)
        X = single_mode_field(grid)
        assert default_steps(X, 0.1) == 64
        big = VectorFieldT([ScalarField.constant(grid, 4.0)])
        assert default_steps(big, 1.0) == 256

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


class TestFlowMap:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(resolution=st.sampled_from(sorted(FLOW_MAP_GRIDS)),
           t=st.sampled_from([-1.0, -0.3, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_matches_point_integration(self, resolution, t, seed):
        grid = TorusGrid(resolution)
        rng = np.random.default_rng(seed)
        kmax, reach = FLOW_MAP_GRIDS[resolution]
        X = band_limited_field(grid, rng, kmax, reach / abs(t))
        phi = flow_map(X, t, steps=128)
        on_grid = phi(grid.points())
        sampled_rows = rng.choice(grid.size, size=min(grid.size, 64), replace=False)
        scattered = rng.uniform(-1.0, 2.0, (32, grid.dim))
        for got, pts, rows in ((on_grid, grid.points(), sampled_rows),
                               (phi(scattered), scattered, slice(None))):
            want = integrate_flow(X, t, pts[rows], steps=128)
            assert np.max(np.abs(got.lifts[rows] - want.lifts)) <= 1e-9
            assert np.max(np.abs(wrap_difference(got.points[rows] - want.points))) <= 1e-9
            assert np.max(np.abs(got.jacobians[rows] - want.jacobians)) <= 1e-9
        back = flow_map(X, -t, steps=128)(on_grid.lifts, jacobian=False)
        assert np.max(np.abs(back.lifts - grid.points())) <= 1e-9

    def test_steps_are_a_lower_bound_raised_for_stability(self):
        # h * pi * |X| * N = 4 at the default 64 steps: RK4 on the advection
        # term is unstable there and the displacement blows up
        grid = TorusGrid(256)
        omega = VolumeDensity.lebesgue(grid)
        X = solve_for_field(ScalarField.from_modes(grid, [[1, 4.0, 0.0]]), omega)
        assert default_steps(X, 0.5) == 64
        got = flow_map(X, 0.5)(grid.points())
        want = integrate_flow(X, 0.5, grid.points(), steps=1024)
        assert got.steps > 64
        assert np.max(np.abs(got.lifts - want.lifts)) <= 1e-8
        assert np.max(np.abs(got.jacobians - want.jacobians)) <= 1e-8

    def test_t_zero_is_exact_identity(self):
        grid = TorusGrid((16, 16))
        pts = np.random.default_rng(3).random((5, 2))
        ev = flow_map(band_limited_field(grid, np.random.default_rng(4), 1, 0.1), 0.0)(pts)
        assert ev.steps == 0
        assert np.array_equal(ev.lifts, pts)
        assert np.array_equal(ev.jacobians, np.tile(np.eye(2), (5, 1, 1)))

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            flow_map(single_mode_field(TorusGrid(32)), 0.1, steps=0)

    def test_built_once_per_field_t_and_steps_while_the_field_lives(self):
        grid = TorusGrid(32)
        X = single_mode_field(grid)
        phi = flow_map(X, 0.1, steps=8)
        assert flow_map(X, 0.1, steps=8) is phi
        assert flow_map(X, np.float64(0.1), steps=8) is phi
        assert flow_map(X, -0.1, steps=8) is not phi
        assert flow_map(X, 0.1, steps=16) is not phi
        assert flow_map(single_mode_field(grid), 0.1, steps=8) is not phi
        field = weakref.ref(X)
        del X
        gc.collect()
        assert field() is None  # the memo holds no field alive, the map included

    # (grid, t, steps, amplitude, submaps): amplitude 0.05 at |k_i| <= 2 and
    # |t| = 1 stretches enough to split phi^t into several factors
    PAIRED_BUILDS = [((256,), 0.3, 4, 0.02, 1), ((128,), -1.0, None, 0.05, 2),
                     ((32, 16), 0.2, 4, 0.02, 1), ((24, 24), -1.0, 16, 0.05, 3)]

    @pytest.mark.parametrize("resolution, t, steps, amplitude, submaps", PAIRED_BUILDS)
    def test_paired_build_is_the_two_single_builds_bit_for_bit(
            self, resolution, t, steps, amplitude, submaps):
        grid, n = TorusGrid(resolution), len(resolution)
        X = band_limited_field(grid, np.random.default_rng(7), 2, amplitude)
        phi, back = flow_map(X, t, steps), flow_map(X, -t, steps)
        assert (phi.submaps, back.submaps) == (submaps, submaps)
        assert phi.steps == back.steps
        velocity = np.stack([c.values for c in X.components])
        shear = np.stack([[c.derivative(j).values for j in range(n)] for c in X.components])
        for m in (phi, back):
            alone = flow._flow_factor(grid, velocity, shear, (m.time / m.submaps,),
                                      m.steps // m.submaps)[0]
            assert np.array_equal(m.factor.values, alone[:n])
            assert np.array_equal(m.factor.gradients, alone[n:].reshape((n, n) + grid.shape))

    # (grid, steps, times, sorted [(batch entries, substeps)] of the integrations):
    # 0 and duplicates in any order and sign; 1-d |t| = 1 splits into 2
    # factors at half the substeps, and 2-d |t| = 0.6 into 2 factors whose
    # stability count equals that of |t| = 0.3 in one
    BATCHED_BUILDS = [
        ((128,), 256, [0.6, -0.05, 0.0, 0.3, -0.6, 0.05, -0.0, 0.3, -1.0], [(2, 128), (6, 256)]),
        ((24, 24), 16, [0.6, -0.05, 0.0, 0.3, -0.6, 0.05, -0.0, 0.3], [(2, 16), (4, 18)]),
    ]

    @pytest.mark.parametrize("resolution, steps, times, integrations", BATCHED_BUILDS)
    def test_batched_build_is_each_single_build_bit_for_bit(
            self, monkeypatch, resolution, steps, times, integrations):
        grid, n = TorusGrid(resolution), len(resolution)
        X = band_limited_field(grid, np.random.default_rng(7), 2, 0.05)
        build, calls = flow._flow_factor, []

        def counting(grid, velocity, shear, factor_times, substeps):
            calls.append((len(factor_times), substeps))
            return build(grid, velocity, shear, factor_times, substeps)

        monkeypatch.setattr(flow, "_flow_factor", counting)
        maps = flow.flow_maps(X, times, steps)
        assert sorted(calls) == integrations
        assert [m.time for m in maps] == [abs(t) if t == 0.0 else t for t in times]
        assert len({m.submaps for m in maps if m.time}) == 2
        assert all(m is flow_map(X, t, steps) for m, t in zip(maps, times))
        assert len(calls) == len(integrations)  # memoized: no build after the batch
        monkeypatch.setattr(flow, "_flow_factor", build)
        velocity = np.stack([c.values for c in X.components])
        shear = np.stack([[c.derivative(j).values for j in range(n)] for c in X.components])
        for m in maps:
            if m.time == 0.0:
                assert (m.steps, m.submaps) == (0, 1)
                assert not m.factor.values.any() and not m.factor.gradients.any()
                continue
            alone = flow._flow_factor(grid, velocity, shear, (m.time / m.submaps,),
                                      m.steps // m.submaps)[0]
            assert np.array_equal(m.factor.values, alone[:n])
            assert np.array_equal(m.factor.gradients, alone[n:].reshape((n, n) + grid.shape))

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
        X = band_limited_field(grid, np.random.default_rng(9), 2, 0.05)
        velocity = np.stack([c.values for c in X.components])
        shear = np.stack([[c.derivative(j).values for j in range(n)] for c in X.components])
        got = flow._flow_factor(grid, velocity, shear, (0.2, -0.2, 0.05), 8)
        monkeypatch.setattr(flow, "_rfftn", lambda a, axes: np.fft.rfftn(a, axes=axes))
        monkeypatch.setattr(flow, "_irfftn",
                            lambda a, shape, axes: np.fft.irfftn(a, s=shape, axes=axes))
        assert np.array_equal(got, flow._flow_factor(grid, velocity, shear, (0.2, -0.2, 0.05), 8))

    def test_the_opposite_time_is_built_with_the_map(self, monkeypatch):
        X = single_mode_field(TorusGrid(32))
        phi = flow_map(X, 0.1, steps=8)

        def unbuilt(*args):
            raise AssertionError("phi^-t was built again")

        monkeypatch.setattr(flow, "_flow_factor", unbuilt)
        back = flow_map(X, -0.1, steps=8)
        assert back.time == -0.1 and phi.time == 0.1
        assert back.steps == phi.steps and back.submaps == phi.submaps
        assert flow_map(X, -0.1, steps=8) is back
        assert np.max(np.abs(back(phi(TorusGrid(32).points()).lifts).lifts - TorusGrid(32).points())) <= 1e-12

    @pytest.mark.parametrize("t", [0.0, -0.0])
    def test_t_zero_is_the_zero_map(self, t):
        grid = TorusGrid((16, 8))
        phi = flow_map(band_limited_field(grid, np.random.default_rng(8), 1, 0.1), t)
        assert (phi.time, phi.steps, phi.submaps) == (0.0, 0, 1)
        assert not phi.factor.values.any() and not phi.factor.gradients.any()

    def test_shared_arrays_are_read_only(self):
        grid = TorusGrid((16, 16))
        phi = flow_map(band_limited_field(grid, np.random.default_rng(5), 1, 0.1), 0.2)
        phi(np.random.default_rng(6).random((3, 2)))  # builds the coefficient stack
        for array in (phi.factor.values, phi.factor.gradients, phi.factor.coefficients):
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
                (phi.factor, phi.factor.values.reshape(n, -1).T,
                 phi.factor.gradients.reshape(n, n, -1).transpose(2, 0, 1))):
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
    """The point flows on the shared RK4 stepper against the point RK4 with
    its separate Jacobian recurrence, bit for bit."""

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
        grid = TorusGrid(resolution)
        modes0, modes1 = self.MOSER_DENSITIES[resolution]
        transport = moser_transport(VolumeDensity.from_modes(grid, modes0),
                                    VolumeDensity.from_modes(grid, modes1), steps=16)
        pts = stepper_points(grid, kind)
        s0, s1 = (0.0, 1.0) if direction == "transport" else (1.0, 0.0)
        want = reference_point_flow(lambda s, p: transport._field(s, p, jacobian),
                                    s0, s1, pts, 16, jacobian)
        assert_same_flow(getattr(transport, direction)(pts, jacobian=jacobian), *want)


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
