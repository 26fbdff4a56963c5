"""Torus maps, warped doubling, deformed families and the deformation
derivative.

Oracles: hand evaluations for linear maps (-2 X(x) + X(2x) for the doubling
map), the inverse-function theorem for the warped invariant density, central
finite differences of the deformed family, and lift-endpoint degree counts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conjresp
from conjresp import (
    ConjugatedMap,
    ConstructionError,
    ExpansionError,
    FlowEvaluation,
    QualityError,
    ScalarField,
    TorusGrid,
    VectorFieldT,
    deformation_derivative,
    invariance_defect,
    make_warped_doubling,
    solve_for_field,
    wrap_difference,
    SolutionStrategy,
    TorusMap,
    VolumeDensity,
    flow_map,
)
from conjresp import flow
from conjresp.dynamics import EXPANSION_MARGIN, NEWTON_ITERATIONS, _branch_newton
from conjresp.fields import mod1
from conjresp.flow import FlowMap, flow_maps, integrate_flow, transported_density


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
        T = TorusMap(TorusGrid(32), [[2]])
        assert abs(T([0.3])[0, 0] - 0.6) <= 1e-15
        assert T.degree == 2
        assert T.certified and T.certificate_residual == 0.0

    def test_cat_map(self):
        T = TorusMap(TorusGrid((16, 16)), [[2, 1], [1, 1]])
        got = T([[0.5, 0.5]])[0]
        assert np.allclose(got, [0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("resolution, matrix", [((16, 16), [[2, 1], [1, 1]]),
                                                    (16, [[1]])])
    def test_flat_integer_linear_map_is_certified_exactly(self, resolution, matrix):
        # the certificate follows from the inputs, however the map is built
        T = TorusMap(TorusGrid(resolution), matrix)
        assert T.certified and T.certificate_residual == 0.0

    def test_identity(self):
        T = TorusMap(TorusGrid(16), [[1]])
        pts = np.array([[0.12], [0.8]])
        assert np.array_equal(T(pts), pts)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            TorusMap(TorusGrid(16), [[0]])
        with pytest.raises(ValueError):
            TorusMap(TorusGrid((16, 16)), [[1, 1], [1, 1]])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            TorusMap(TorusGrid(16), [[1.5]])
        with pytest.raises(ValueError, match="integer matrix"):
            TorusMap(TorusGrid(16), [["a"]])


def hand_warped_doubling(generator):
    """Oracle: the warped doubling map's conjugation written out by hand.
    g = h(2 h^{-1}(x)) - 2x and eta = Dh^{-1}(x) / mean, at the grid points x,
    with h^{+-1} applied as one call of the flow map of the generator at time
    +-1, the Jacobian taken from that call."""
    grid = generator.grid

    def h(sign, points):
        step = flow_map(generator, sign)(points)
        return step.lifts, step.jacobians[:, 0, 0]

    backward, eta = h(-1.0, grid.points())
    g = h(1.0, 2.0 * backward)[0][:, 0] - 2.0 * grid.points()[:, 0]
    return g, eta / eta.mean()


def rk4_conjugacy(generator, steps):
    """[h, h^{-1}] of the warped doubling map as one factor each, by ``steps``
    RK4 substeps of the flow maps' grid system (`flow._flow_factor`)."""
    grid = generator.grid
    velocity = np.stack([c.values for c in generator.components])
    shear = np.stack([[c.derivative(0).values] for c in generator.components])
    states = flow._flow_factor(grid, lambda s: (velocity, shear), (1.0, -1.0), steps)
    return [FlowMap((flow._factor(grid, state),), t, steps) for state, t in zip(states, (1, -1))]


def conjugated_doubling(forward, inverse):
    """g and eta of the doubling map conjugated by a transport pair h, h^{-1},
    at the grid points, as the warped construction evaluates them."""
    grid = forward.grid
    x = grid.points()
    g = ConjugatedMap(TorusMap(grid, [[2]]), forward, inverse).lift(x)[:, 0] - 2.0 * x[:, 0]
    return g, transported_density(VolumeDensity.lebesgue(grid), inverse).eta.values.ravel()


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

    def test_failed_certificate_names_resolution(self):
        # a resolved density (its tail gate passes) whose transfer residual at
        # N = 256 is 5.6e-6: the program built that density, so the cause is N
        modes = [[3, 0.0331 * math.cos(1.277), 0.0331 * math.sin(1.277)]]
        grid = TorusGrid(256)
        with pytest.raises(ConstructionError) as exc:
            make_warped_doubling(VectorFieldT([ScalarField.from_modes(grid, modes)]))
        message = str(exc.value)
        assert "N = 256" in message and "raise N" in message
        assert f"{exc.value.residual:.3e}" in message and exc.value.residual > 1e-6
        assert "not invariant" not in message
        T = make_warped_doubling(VectorFieldT([ScalarField.from_modes(TorusGrid(512), modes)]))
        assert T.certified and T.certificate_residual <= 1e-10

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

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(resolution=st.sampled_from([128, 256]), amplitude=st.floats(0.0, 0.05),
           phase=st.floats(0.0, 2 * np.pi))
    def test_one_factor_generators_match_the_hand_construction(self, resolution, amplitude,
                                                               phase):
        # |grad X| <= 2 pi 0.05 < SUBMAP_STRETCH, so the reach alone sets the
        # factors of h and h^{-1} (1 to 4 each), and the conjugated map's lift
        # is the hand construction's
        generator = VectorFieldT([ScalarField.from_modes(
            TorusGrid(resolution), [[1, amplitude * np.cos(phase), amplitude * np.sin(phase)]])])
        T = make_warped_doubling(generator)
        g, eta = hand_warped_doubling(generator)
        assert np.array_equal(T.displacement.components[0].values, g)
        assert np.max(np.abs(T.density.eta.values - eta)) <= 1e-15

    @pytest.mark.parametrize("resolution", [128, 256])
    @pytest.mark.parametrize("mode", [[1, 0.0, 0.1], [2, 0.03, 0.02]])
    def test_stretching_generators_match_the_hand_construction(self, resolution, mode):
        # [1, 0, 0.1] stretches past SUBMAP_STRETCH (4 and 7 factors here);
        # the map reads its factors without Jacobians, the oracle with them
        generator = VectorFieldT([ScalarField.from_modes(TorusGrid(resolution), [mode])])
        T = make_warped_doubling(generator)
        g, eta = hand_warped_doubling(generator)
        assert np.max(np.abs(T.displacement.components[0].values - g)) <= 1e-15
        assert np.max(np.abs(T.density.eta.values - eta)) <= 1e-15

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(1, 3), amplitude=st.floats(0.02, 0.05),
           phase=st.floats(0.0, 2 * np.pi))
    def test_conjugacy_is_as_accurate_as_one_rk4_factor(self, k, amplitude, phase):
        # against a 2048-step RK4 one-factor reference, the flow maps' h is as
        # accurate as a 128-step RK4 one-factor build
        generator = VectorFieldT([ScalarField.from_modes(
            TorusGrid(256), [[k, amplitude * np.cos(phase), amplitude * np.sin(phase)]])])
        forward, inverse = flow_maps(generator, (1.0, -1.0))
        reference = conjugated_doubling(*rk4_conjugacy(generator, 2048))
        one_factor = conjugated_doubling(*rk4_conjugacy(generator, 128))
        for got, single, want in zip(conjugated_doubling(forward, inverse), one_factor,
                                     reference):
            assert np.max(np.abs(got - want)) <= 1.5 * np.max(np.abs(single - want))

    def test_the_conjugacy_is_the_generators_time_one_flow_maps(self, monkeypatch):
        # h^{+-1} are flow_maps(generator, (1, -1)), kept while the generator
        # lives: asking for them after the construction builds nothing
        generator = VectorFieldT([ScalarField.from_modes(TorusGrid(256), [[1, 0.0, 0.05]])])
        make_warped_doubling(generator)

        def series_terms(*args):
            raise AssertionError("the warp's flow maps were built again")

        monkeypatch.setattr(flow, "_series_terms", series_terms)
        forward, inverse = flow.flow_maps(generator, (1.0, -1.0))
        assert (forward.time, inverse.time) == (1.0, -1.0)

    @pytest.mark.parametrize("resolution, tail", [(64, "4.7e-02"), (128, "2.2e-03")])
    def test_under_resolved_density_is_refused_naming_its_tail(self, resolution, tail):
        # at N = 64 the lift derivative also changes sign: without the density's
        # gates the map would be built, uncertified
        generator = VectorFieldT([ScalarField.from_modes(TorusGrid(resolution),
                                                         [[4, 0.04, 0.0]])])
        with pytest.raises(QualityError, match=rf"under-resolved.*tail/peak {tail}.*raise N"):
            make_warped_doubling(generator)


class TestReductionIntoUnitInterval:
    EDGES = np.array([-1e-17, -1e-300, -0.0, 1.0, 2 - 2**-52])

    def test_edge_inputs(self):
        reduced = mod1(self.EDGES)
        assert np.array_equal(reduced, [0.0, 0.0, 0.0, 0.0, 1 - 2**-52])
        assert not np.signbit(reduced).any()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(-1e6, 1e6))
    def test_lands_in_the_unit_interval(self, x):
        assert 0.0 <= mod1(np.array([x]))[0] < 1.0

    def test_maps_and_transports_reduce_into_the_unit_interval(self):
        # x % 1.0 alone rounds -1e-17 up to 1.0
        grid = TorusGrid(64)
        assert np.array_equal(TorusMap(grid, [[2]])([[-1e-17]]), [[0.0]])
        assert np.array_equal(FlowEvaluation(np.array([[-1e-17]]), None, 0.0, 0).points,
                              [[0.0]])

        def transport(shift):
            return lambda pts, jacobian=True: FlowEvaluation(pts + shift, None, 0.0, 0)

        conjugated = ConjugatedMap(TorusMap(grid, [[1]]), transport(-1e-17), transport(0.0))
        assert np.array_equal(conjugated([[0.0]]), [[0.0]])


class TestDeformationDerivative:
    def test_identity_map_gives_zero(self):
        grid = TorusGrid(64)
        T = TorusMap(grid, [[1]])
        X = canonical_field(grid)
        td = deformation_derivative(T, X)
        assert td.components[0].max_abs <= 1e-12

    def test_doubling_oracle(self):
        # -2 X(x) + X(2x) with X = -sin(2 pi x)/(2 pi):
        # sin(2 pi x)/pi - sin(4 pi x)/(2 pi)
        grid = TorusGrid(64)
        T = TorusMap(grid, [[2]])
        td = deformation_derivative(T, canonical_field(grid))
        x = grid.axis_points(0)
        expected = np.sin(2 * np.pi * x) / np.pi - np.sin(4 * np.pi * x) / (2 * np.pi)
        assert np.max(np.abs(td.components[0].values - expected)) <= 1e-11

    def test_zero_field(self):
        grid = TorusGrid(32)
        td = deformation_derivative(TorusMap(grid, [[2]]), VectorFieldT.zero(grid))
        assert td.components[0].max_abs == 0.0

    def test_two_torus(self):
        grid = TorusGrid((32, 32))
        T = TorusMap(grid, [[2, 1], [1, 1]])
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
    def test_name_is_a_stub_naming_the_replacement(self):
        # T_t is ConjugatedMap(T, *flow_maps(X, (t, -t))); the old name
        # keeps only the three methods the benchmark's tracer wraps
        from conjresp.dynamics import DeformedMap
        with pytest.raises(TypeError, match=r"ConjugatedMap\(T, \*flow_maps"):
            DeformedMap(TorusMap(TorusGrid(64), [[2]]), canonical_field(TorusGrid(64)), 0.1)
        assert {"__call__", "lift", "preimages_with_derivative"} <= set(vars(DeformedMap))
        assert not hasattr(conjresp, "DeformedMap")

    def test_t_zero_is_base(self, warped):
        # the flow maps of t = 0 are the zero displacement: lifts and
        # preimages are the base map's bit for bit, and so is the call on
        # [0, 1); off it the call reduces the point first, so only rounding
        inside = np.array([[0.0], [0.3], [0.5], [0.77], [0.999]])
        outside = np.array([[-0.4], [-1e-3], [1.0], [1.3], [2.75]])
        y = np.linspace(0.0, 1.0, 17, endpoint=False)
        for T in (TorusMap(TorusGrid(64), [[2]]), warped):
            D = ConjugatedMap(T, *flow_maps(canonical_field(T.grid), (0.0, -0.0)))
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
        T = TorusMap(grid, [[2]])
        X = canonical_field(grid)
        td = deformation_derivative(T, X).values_matrix()
        pts = grid.points()
        t = 1e-3
        plus = ConjugatedMap(T, *flow_maps(X, (t, -t)))(pts)
        minus = ConjugatedMap(T, *flow_maps(X, (-t, t)))(pts)
        diff = wrap_difference(plus - minus) / (2 * t)
        assert np.max(np.abs(diff - td)) <= 1e-5

    def test_degree_preserved(self):
        grid = TorusGrid(64)
        T = TorusMap(grid, [[2]])
        X = canonical_field(grid)
        D = ConjugatedMap(T, *flow_maps(X, (0.05, -0.05)))
        ends = D.lift(np.array([[0.0], [1.0]]))
        assert abs((ends[1, 0] - ends[0, 0]) - 2.0) <= 1e-9

    def test_conjugacy_consistency(self):
        # T_t o phi^t = phi^t o T pointwise
        grid = TorusGrid(64)
        T = TorusMap(grid, [[2]])
        X = canonical_field(grid)
        t = 0.2
        D = ConjugatedMap(T, *flow_maps(X, (t, -t)))
        rng = np.random.default_rng(6)
        pts = rng.random((30, 1))
        lhs = D(integrate_flow(X, t, pts, steps=64).points)
        rhs = integrate_flow(X, t, T(pts), steps=64).points
        assert np.max(np.abs(wrap_difference(lhs - rhs))) <= 1e-8

    def test_first_order_law(self):
        # ||(T_t - T)/t - Tdot|| decays linearly on a geometric t sequence
        grid = TorusGrid(64)
        T = TorusMap(grid, [[2]])
        X = canonical_field(grid)
        td = deformation_derivative(T, X).values_matrix()
        pts = grid.points()
        base = T(pts)
        errors = []
        for t in (4e-2, 2e-2, 1e-2, 5e-3):
            fwd = ConjugatedMap(T, *flow_maps(X, (t, -t)))(pts)
            err = np.max(np.abs(wrap_difference(fwd - base) / t - td))
            errors.append(err)
        order = np.polyfit(np.log([4e-2, 2e-2, 1e-2, 5e-3]), np.log(errors), 1)[0]
        assert 0.8 <= order <= 1.2

    def test_preimages_match_eval(self, warped):
        X = canonical_field(warped.grid)
        D = ConjugatedMap(warped, *flow_maps(X, (0.02, -0.02)))
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
        T = TorusMap(grid, [[2]])
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
        field, sup = invariance_defect(TorusMap(grid, [[2]]), VectorFieldT.zero(grid))
        assert sup == 0.0 and field.max_abs == 0.0

    def test_doubling_constant_field(self):
        # DT = 2: defect of the constant c is |2c - c| = |c| everywhere
        grid = TorusGrid(32)
        c = 0.37
        field, sup = invariance_defect(
            TorusMap(grid, [[2]]), VectorFieldT([ScalarField.constant(grid, c)])
        )
        assert abs(sup - c) <= 1e-14
        assert np.max(np.abs(field.values - c)) <= 1e-14

    def test_identity_map_any_field(self):
        grid = TorusGrid(64)
        x = grid.axis_points(0)
        V = VectorFieldT([ScalarField(grid, 0.3 + 0.2 * np.sin(2 * np.pi * x))])
        _, sup = invariance_defect(TorusMap(grid, [[1]]), V)
        assert sup <= 1e-12


class TestPreimages:
    def test_doubling_branches(self):
        grid = TorusGrid(64)
        T = TorusMap(grid, [[2]])
        y = np.array([0.3, 0.9])
        pre, deriv = T.preimages_with_derivative(y)
        assert np.allclose(sorted(pre[:, 0]), [0.15, 0.65], atol=1e-12)
        assert np.allclose(deriv, 2.0)

    def test_preimages_are_reduced_to_the_unit_interval(self, warped):
        # a target at a branch end has a preimage at z = 1.0 on the lift
        # (the warped map's second branch at y = 0), reported as 0.0
        y = np.array([0.0, 1.0 - 1e-17, -1e-17])
        for T in (TorusMap(TorusGrid(64), [[2]]), warped):
            pre, deriv = T.preimages_with_derivative(y)
            assert np.all((pre >= 0.0) & (pre < 1.0))
            images = T(pre.reshape(-1, 1))[:, 0].reshape(pre.shape)
            assert np.max(np.abs(wrap_difference(images - y))) <= 1e-12
            jac = T.jacobian(pre.reshape(-1, 1))[:, 0, 0].reshape(pre.shape)
            assert np.array_equal(deriv, jac)

    def test_non_expanding_rejected(self):
        grid = TorusGrid(32)
        T = TorusMap(grid, [[1]])
        with pytest.raises(ExpansionError):
            T.preimages_with_derivative(np.array([0.5]))

    def test_orientation_reversing_expanding(self):
        grid = TorusGrid(64)
        T = TorusMap(grid, [[-2]])
        y = np.array([0.25])
        pre, deriv = T.preimages_with_derivative(y)
        assert np.max(np.abs(wrap_difference(T(pre.reshape(-1, 1))[:, 0] - 0.25))) <= 1e-12
        assert np.allclose(deriv, -2.0)


def bisection_preimages(T, y):
    """The independent oracle of the Newton preimages: 60 bisection steps on
    each monotone branch of T's lift over [0, 1], shape (|degree|, M), roots
    on the lift (a root at a branch end may be 1.0)."""
    lift = lambda z: T.lift(z.reshape(-1, 1))[:, 0]
    f0, f1 = lift(np.array([0.0, 1.0]))
    y = np.asarray(y, dtype=float) % 1.0
    targets = (y + np.ceil(min(f0, f1) - y)) + np.arange(abs(T.degree))[:, None]
    lo, hi = np.zeros_like(targets), np.ones_like(targets)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        right = (lift(mid.ravel()).reshape(mid.shape) - targets) * np.sign(f1 - f0) < 0.0
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def counting_lift_evaluations(T):
    """Make T count its Newton evaluations of (F, F'); returns the counter."""
    calls = []
    evaluate = T._lift_with_derivative
    T._lift_with_derivative = lambda z: calls.append(z.size) or evaluate(z)
    return calls


class TestNewtonPreimages:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(amplitude=st.floats(0.0, 0.05), phase=st.floats(0.0, 2 * np.pi),
           seed=st.integers(0, 2**32 - 1))
    def test_warped_preimages_solve_the_lift_and_match_bisection(self, amplitude, phase, seed):
        grid = TorusGrid(128)
        generator = VectorFieldT([ScalarField.from_modes(
            grid, [[1, amplitude * np.cos(phase), amplitude * np.sin(phase)]])])
        T = make_warped_doubling(generator)
        f0 = float(T.lift(np.array([0.0]))[0, 0])
        y = np.concatenate([np.random.default_rng(seed).uniform(-1.0, 2.0, 200),
                            [0.0, 1.0 - 1e-17, -1e-17, f0 % 1.0, (f0 + 0.5) % 1.0]])
        calls = counting_lift_evaluations(T)
        pre, deriv = T.preimages_with_derivative(y)
        assert pre.shape == deriv.shape == (2, y.size)
        assert np.all((pre >= 0.0) & (pre < 1.0))
        lifts = T.lift(pre.reshape(-1, 1))[:, 0].reshape(pre.shape)
        assert np.max(np.abs(wrap_difference(lifts - y))) <= 1e-13
        assert np.max(np.abs(wrap_difference(pre - bisection_preimages(T, y)))) <= 1e-13
        assert np.array_equal(deriv, T.jacobian(pre.reshape(-1, 1))[:, 0, 0].reshape(pre.shape))
        # quadratic convergence from the chord: a few evaluations, far below the cap
        assert 1 <= len(calls) <= 8 < NEWTON_ITERATIONS

    @pytest.mark.parametrize("matrix", [[[2]], [[-2]], [[3]]])
    def test_linear_maps_take_one_evaluation(self, matrix):
        T = TorusMap(TorusGrid(64), matrix)
        y = np.random.default_rng(11).uniform(0.0, 1.0, 50)
        calls = counting_lift_evaluations(T)
        pre, deriv = T.preimages_with_derivative(y)
        assert calls == [y.size * abs(matrix[0][0])]
        assert np.max(np.abs(wrap_difference(pre - bisection_preimages(T, y)))) <= 1e-13
        assert np.all(deriv == matrix[0][0])

    @pytest.mark.parametrize("degree", [2, -2, 3])
    def test_steep_branches_need_and_get_the_safeguard(self, degree):
        # F = degree z + 0.99 (B - z) sign(degree), with B the lift of the circle
        # homeomorphism tan(pi B) = 14 tan(pi z): at |degree| 2, |F'| runs from
        # 1.08 to 15, and unguarded Newton from the chord runs to the cap
        def lift_with_derivative(z):
            w = z - np.round(z)
            b = np.round(z) + np.arctan(14.0 * np.tan(np.pi * w)) / np.pi
            db = 14.0 / (np.cos(np.pi * w) ** 2 + (14.0 * np.sin(np.pi * w)) ** 2)
            sign = np.sign(degree)
            calls.append(z.size)
            return degree * z + 0.99 * sign * (b - z), degree + 0.99 * sign * (db - 1.0)

        calls = []
        y = np.random.default_rng(12).uniform(0.0, 1.0, 500)
        z = _branch_newton(lift_with_derivative, np.array([0.0, float(degree)]), abs(degree), y)
        assert len(calls) <= 12
        assert np.all((z >= 0.0) & (z <= 1.0))
        lifts = lift_with_derivative(z.ravel())[0].reshape(z.shape)
        assert np.max(np.abs(wrap_difference(lifts - y))) <= 1e-13

    def test_a_root_at_the_branch_end_one_is_reported_as_zero(self):
        # the reversed doubling map's lift -2z takes the target -2 at z = 1
        T = TorusMap(TorusGrid(64), [[-2]])
        assert bisection_preimages(T, [0.0])[0, 0] == pytest.approx(1.0, abs=1e-15)
        pre, _ = T.preimages_with_derivative(np.array([0.0]))
        assert pre[:, 0].tolist() == [0.0, 0.5]
