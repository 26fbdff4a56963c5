"""Flow maps of periodic vector fields, with Jacobians, plus volume transport.

One integrator, `_rk4`: the classical fourth-order one-step scheme with fixed
uniform substeps (so runs are bit-reproducible), passing each stage its time.
It steps two state layouts:

* `flow_map` is grid-resident: it flows the periodic displacement D of
  phi^s = id + D, and its gradient G, on the field's grid, by the transport
  equation dD/dtau = X + (X . grad) D and its gradient, with spectral
  derivatives, and never samples X off the grid; phi^t is the power
  (phi^s)^m, with m = 1 unless the flow stretches too much in time t to be
  resolved on the grid.  Jacobians are I + G.  phi^t and phi^-t are built
  together, once per (field, |t|, steps): later calls at either sign return
  the same read-only maps for as long as the field lives.  `flow_maps`
  builds the maps of many t at once, by one RK4 integration of the stacked
  states of every factor that takes the same substep count.
* `integrate_flow` and the Moser transport move points (Lagrangian): the
  state is the points and their Jacobians, (M, n + n^2), and each stage
  samples the field and its gradient at the moving points, so Jacobians
  ride along by the variational equation J' = DX(phi) J on the same stages.
  `integrate_flow` is the independent check of `flow_map`.

Either way a field and its gradient are sampled through `FieldStack`, as
torus maps do (read off the grid at exactly the grid points, interpolated
together anywhere else), and positions live on the universal cover
(reduction mod 1 happens only at output), so lifts stay available for
degree and composition arguments.

`moser_transport` builds the time-dependent field whose time-one flow pushes
one density to another along the straight path eta_s = (1-s) eta0 + s eta1:
the primitive theta with d theta = (eta0 - eta1) vol stays fixed while the
contraction is inverted against the moving density.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import QualityError
from .exactness import exact_primitive
from .fields import (
    ScalarField,
    VectorFieldT,
    VolumeDensity,
    as_points,
    mod1,
    sample_coefficients,
)

# Largest h * pi * max_x sum_i |X_i(x)| N_i a flow map steps at.  The spectral
# advection operator (X . grad) has eigenvalues up to that size on the
# imaginary axis, where explicit RK4 is stable only up to 2 sqrt(2).  The
# margin is for accuracy: at the same step size the grid scheme's time error
# is up to 10x the point integrator's, and at 0.15 the verification
# workloads' response errors stay within 1e-5 (relative) of the point
# integrator's at their nominal step counts.
RK4_STABILITY_LIMIT = 0.15
# Largest |s| max_x ||grad X(x)||_inf of one factor phi^s of a flow map.
SUBMAP_STRETCH = 0.5
# Largest spectral tail/peak (see `_spectral_tail`) a transported density may
# have: resolved verification densities sit near 1e-4 and below, the
# under-resolved ones near 1e-2.
TAIL_TOL = 1e-3

# field -> {(t, steps): FlowMap}, with t and -t entered together; an entry
# lives as long as its field, whose values are read-only, so a map is never
# stale
_FLOW_MAPS = weakref.WeakKeyDictionary()

__all__ = [
    "FlowEvaluation",
    "FlowMap",
    "default_steps",
    "flow_map",
    "integrate_flow",
    "transported_density",
    "MoserFlow",
    "moser_transport",
]


@dataclass
class FlowEvaluation:
    """Points transported by a flow, with variational Jacobians.

    lifts     -- (M, n) unreduced endpoints on the universal cover
    jacobians -- (M, n, n) Jacobian matrices, or None if not requested
    time      -- total flow time
    steps     -- substep count actually used
    points    -- the lifts reduced into [0, 1)
    """

    lifts: np.ndarray
    jacobians: np.ndarray | None
    time: float
    steps: int
    points: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        self.points = mod1(self.lifts)
        self._determinants = None
        if self.jacobians is not None:
            self._determinants = np.linalg.det(self.jacobians)
            worst = float(self._determinants.min())
            if worst <= 0.0:
                raise QualityError(
                    "flow Jacobian lost positive orientation (step size too "
                    f"large for this field?); smallest determinant {worst:.6g}",
                    worst,
                )

    def determinants(self) -> np.ndarray | None:
        """det of each Jacobian (None without Jacobians)."""
        return self._determinants


def default_steps(X: VectorFieldT, t: float) -> int:
    """ceil(64 * max(1, sup|X| * |t|)): truncation error far below the
    verification tolerances for smooth band-limited fields."""
    return int(math.ceil(64.0 * max(1.0, X.sup_norm * abs(t))))


class FieldStack:
    """Grid values (F,) + grid.shape and gradients (F, n) + grid.shape of F
    periodic fields, entry (f, j) of the gradients holding d f / d x_j.

    A call at points returns (M, F) values and (M, F, n) gradients, so a
    vector field's component gradients read off as its Jacobian.  At exactly
    the grid points they are read off the grid; anywhere else one
    `sample_coefficients` call on the stacked coefficients (values, then
    gradients row by row; by default the FFT of the arrays) serves all
    points, on the value rows alone without ``gradients`` and on the
    gradient rows alone without ``values``.  Its arrays are
    read-only, since maps share one stack among callers.
    """

    def __init__(self, grid, values: np.ndarray, gradients: np.ndarray, coefficients=None):
        for array in (values, gradients, coefficients):
            if array is not None:
                array.setflags(write=False)
        self.grid = grid
        self.values = values
        self.gradients = gradients
        self._coefficients = coefficients

    @classmethod
    def of(cls, fields) -> "FieldStack":
        """The stack of `ScalarField`s and their spectral derivatives, with
        their exact coefficients."""
        grid, n = fields[0].grid, fields[0].grid.dim
        derivatives = [f.derivative(j) for f in fields for j in range(n)]
        gradients = np.stack([d.values for d in derivatives])
        return cls(grid, np.stack([f.values for f in fields]),
                   gradients.reshape((len(fields), n) + grid.shape),
                   np.stack([f.coefficients for f in list(fields) + derivatives]))

    @property
    def coefficients(self) -> np.ndarray:
        if self._coefficients is None:
            fields = np.concatenate([self.values, self.gradients.reshape((-1,) + self.grid.shape)])
            axes = tuple(range(1, self.grid.dim + 1))
            coefficients = np.fft.fftn(fields, axes=axes) / self.grid.size
            coefficients.setflags(write=False)
            self._coefficients = coefficients
        return self._coefficients

    def __call__(self, points, gradients: bool = True, values: bool = True):
        """(M, F) values and (M, F, n) gradients, each None when not asked for."""
        grid, n, count = self.grid, self.grid.dim, self.values.shape[0]
        pts = as_points(points, n)
        if pts.shape == (grid.size, n) and np.array_equal(pts, grid.points()):
            vals = self.values.reshape(count, -1).T
            grads = self.gradients.reshape(count, n, -1).transpose(2, 0, 1)
        else:
            # only the rows asked for, of the F value rows and F * n gradient rows
            rows = slice(0 if values else count, None if gradients else count)
            out = sample_coefficients(grid, self.coefficients[rows], pts)
            vals = out[:, :count]
            grads = out[:, -count * n:].reshape(-1, count, n) if gradients else None
        return (vals if values else None), (grads if gradients else None)


def _rk4(rate, state: np.ndarray, s0: float, h, steps: int) -> np.ndarray:
    """``steps`` classical RK4 substeps of dy/ds = rate(s, y) from y(s0) =
    ``state``.  An array ``h`` holds one step per batch entry and broadcasts
    over its state, and over the stage times passed to ``rate``."""
    for i in range(steps):
        s = s0 + i * h
        k1 = rate(s, state)
        k2 = rate(s + 0.5 * h, state + 0.5 * h * k1)
        k3 = rate(s + 0.5 * h, state + 0.5 * h * k2)
        k4 = rate(s + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def _point_flow(field, s0: float, s1: float, pts: np.ndarray, steps: int,
                jacobian: bool) -> FlowEvaluation:
    """(M, n) points flowed from s0 to s1 in ``steps`` RK4 substeps (none: the
    identity) by ``field(s, points, jacobian)``, which returns the (M, n)
    velocities and, with ``jacobian``, their (M, n, n) Jacobians DX (else
    None).  The Jacobians J of the flow ride along, row by row, in one
    (M, n + n^2) state with the points, at the rate DX J."""
    m, n = pts.shape
    identity = np.tile(np.eye(n).ravel(), (m, 1)) if jacobian else np.empty((m, 0))

    def rate(s, state):
        velocity, dX = field(s, state[:, :n], jacobian)
        if dX is None:
            return velocity
        return np.concatenate([velocity, (dX @ state[:, n:].reshape(m, n, n)).reshape(m, -1)],
                              axis=1)

    state = _rk4(rate, np.concatenate([pts, identity], axis=1), s0, (s1 - s0) / max(steps, 1),
                 steps)
    return FlowEvaluation(state[:, :n], state[:, n:].reshape(m, n, n) if jacobian else None,
                          s1 - s0, steps)


def integrate_flow(
    X: VectorFieldT,
    t: float,
    points,
    steps: int | None = None,
    jacobian: bool = True,
) -> FlowEvaluation:
    """phi^t at the given points; the torus is compact so any t is allowed.
    At t = 0 this is the identity, in 0 steps, whatever ``steps`` says."""
    pts = as_points(points, X.grid.dim)
    if t == 0.0:
        steps = 0
    elif steps is None:
        steps = default_steps(X, t)
    elif steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    stack = FieldStack.of(X.components)
    return _point_flow(lambda s, p, grads: stack(p, grads), 0.0, float(t), pts, steps, jacobian)


class FlowMap:
    """phi^t of a field, kept on its grid as ``submaps`` equal factors
    phi^s = id + D, s = t / submaps, with D periodic.

    Calling the object evaluates phi^t (and, with ``jacobian``, the product
    of the factors' I + G by the chain rule) at points, one `FieldStack`
    call per factor.  It has the call signature of the other transports
    (`MoserFlow`), so `ConjugatedMap` and `transported_density` take it.

    grid     -- the field's grid
    factor   -- `FieldStack` of one factor's D and G = grad D
    time     -- t
    steps    -- RK4 substeps over [0, t] (submaps times those of a factor)
    submaps  -- number of factors
    """

    def __init__(self, grid, displacement: np.ndarray, gradient: np.ndarray, time: float,
                 steps: int, submaps: int = 1):
        self.grid = grid
        self.factor = FieldStack(grid, displacement, gradient)
        self.time = float(time)
        self.steps = int(steps)
        self.submaps = int(submaps)

    def __call__(self, points, jacobian: bool = True) -> FlowEvaluation:
        n = self.grid.dim
        lifts = as_points(points, n)
        jac = np.tile(np.eye(n), (lifts.shape[0], 1, 1)) if jacobian else None
        for _ in range(self.submaps):
            values, grads = self.factor(lifts, jacobian)
            lifts = lifts + values
            if jacobian:
                jac = (np.eye(n) + grads) @ jac
        return FlowEvaluation(lifts, jac, self.time, self.steps)


def flow_map(X: VectorFieldT, t: float, steps: int | None = None) -> FlowMap:
    """phi^t of X on X's grid; any real t is allowed.

    phi^t is the power (phi^s)^m with s = t / m, and m the fewest factors for
    which |s| max_x ||grad X(x)||_inf <= SUBMAP_STRETCH: a map that stretches
    little is resolved on the grid that resolves X, where phi^t itself may
    not be (the characteristic mapping method's composition of submaps).
    The displacement D of phi^s = id + D and its gradient G solve

        dD/dtau = X + G X,    dG/dtau = DX + G DX + (X . grad) G

    from D = G = 0 at tau = 0 to tau = s (phi^(tau + u) = phi^tau o phi^u,
    differentiated in u at 0, and its gradient), by RK4 with spectral
    derivatives.  Only G is differentiated, and every product is pointwise
    at the grid points, so D and G stay exact there to second order in s,
    however X's spectrum ends.

    ``steps`` (default `default_steps`) is a lower bound on the RK4 substeps
    over [0, t]: explicit RK4 on the advection term is stable only for small
    enough substeps, so each factor takes at least the substeps that keep
    h * pi * max_x sum_i |X_i(x)| N_i within RK4_STABILITY_LIMIT.  The count
    used is the ``steps`` of the result and of its evaluations.

    This is ``flow_maps(X, (t,), steps)[0]``: phi^t and phi^-t are built
    together, once per (X, |t|, steps), and a repeated call, or a call at
    -t, returns the same `FlowMap` for as long as X lives.
    """
    return flow_maps(X, (t,), steps)[0]


def flow_maps(X: VectorFieldT, times, steps: int | None = None) -> list:
    """[`flow_map`(X, t, steps) for t in times], with every map not built yet
    built at once.

    The submaps and substeps depend on |t| alone, so phi^t and phi^-t are
    always built together, and every missing |t| whose factors take the same
    substep count joins one RK4 integration of all those factors' stacked
    states (`_flow_factor`), each with its own step size.  Each map is bit
    for bit what a build of it alone would give, and is kept for as long as
    X lives.
    """
    times = [float(t) for t in times]
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    maps = _FLOW_MAPS.setdefault(X, {})
    missing = sorted({abs(t) for t in times if (t, steps) not in maps})
    for phi in _build_flow_maps(X, missing, steps):
        maps[phi.time, steps] = phi
    return [maps[t, steps] for t in times]


def _build_flow_maps(X: VectorFieldT, times, steps: int | None) -> list:
    """phi^t and phi^-t for each t > 0 in ``times``, and the zero map if
    ``times`` holds 0, with one `_flow_factor` integration per substep count."""
    grid, n = X.grid, X.grid.dim
    maps = []
    if 0.0 in times:
        maps.append(FlowMap(grid, np.zeros((n,) + grid.shape), np.zeros((n, n) + grid.shape),
                            0.0, 0))
    times = [t for t in times if t > 0.0]
    if not times:
        return maps
    velocity = np.stack([c.values for c in X.components])
    shear = np.stack([[c.derivative(j).values for j in range(n)] for c in X.components])
    stretch = float(np.abs(shear).sum(axis=1).max())  # max_x ||grad X(x)||_inf
    speed = float(sum(np.abs(v) * size for v, size in zip(velocity, grid.resolution)).max())
    # substeps per factor -> [(t, submaps)] of the maps whose factors take them
    groups = {}
    for t in times:
        submaps = max(1, math.ceil(t * stretch / SUBMAP_STRETCH))
        stable = math.ceil(t / submaps * math.pi * speed / RK4_STABILITY_LIMIT)
        requested = default_steps(X, t) if steps is None else steps
        substeps = max(math.ceil(requested / submaps), stable, 1)
        groups.setdefault(substeps, []).append((t, submaps))
    for substeps, group in groups.items():
        signed = [(sign * t, submaps) for t, submaps in group for sign in (1.0, -1.0)]
        states = _flow_factor(grid, velocity, shear, [t / m for t, m in signed], substeps)
        maps += [FlowMap(grid, state[:n], state[n:].reshape((n, n) + grid.shape), t,
                         submaps * substeps, submaps)
                 for state, (t, submaps) in zip(states, signed)]
    return maps


def _flow_factor(grid, velocity: np.ndarray, shear: np.ndarray, times, steps: int) -> np.ndarray:
    """D and G of the factors phi^s = id + D, one per s in ``times``, for the
    field with grid values ``velocity`` (n,) + grid.shape and gradient
    ``shear`` (n, n) + grid.shape, each stacked as one (n + n^2,) + grid.shape
    array (G row by row), by `steps` RK4 substeps of one batched state of
    shape (len(times), n + n^2) + grid.shape.  Every stage makes one set of
    transforms for the whole batch, and every batch entry is computed as it
    would be alone."""
    n = grid.dim
    # real-to-complex transforms keep the last axis' wavenumbers 0..N/2
    symbols = [grid.derivative_symbol(j)[..., : grid.resolution[-1] // 2 + 1]
               for j in range(n)]
    axes = tuple(range(3, n + 3))

    def rate(s, state):
        G = state[:, n:].reshape((-1, n, n) + grid.shape)
        coefficients = _rfftn(G, axes)
        dD = velocity + np.einsum("bik...,k...->bi...", G, velocity)
        dG = shear + np.einsum("bik...,kj...->bij...", G, shear)
        for k, symbol in enumerate(symbols):
            dG += velocity[k] * _irfftn(coefficients * symbol, grid.shape, axes)
        return np.concatenate([dD, dG.reshape((-1, n * n) + grid.shape)], axis=1)

    # one step size per batch entry, broadcast over its state
    h = (np.asarray(times, dtype=float) / steps).reshape((-1,) + (1,) * (n + 1))
    return _rk4(rate, np.zeros((h.shape[0], n + n * n) + grid.shape), 0.0, h, steps)


def _rfftn(a: np.ndarray, axes) -> np.ndarray:
    """np.fft.rfftn(a, axes=axes), by the transforms numpy itself runs for it
    (rfft on the last axis, then fft on the others, last to first), without
    its per-call argument handling."""
    a = np.fft.rfft(a, axis=axes[-1])
    for axis in reversed(axes[:-1]):
        a = np.fft.fft(a, axis=axis)
    return a


def _irfftn(a: np.ndarray, shape, axes) -> np.ndarray:
    """np.fft.irfftn(a, s=shape, axes=axes), the same way: ifft on all axes
    but the last, first to last, then irfft on the last."""
    for axis in axes[:-1]:
        a = np.fft.ifft(a, axis=axis)
    return np.fft.irfft(a, shape[-1], axis=axes[-1])


def transported_density(omega: VolumeDensity, inverse) -> VolumeDensity:
    """Density of the pushforward of omega by a map psi at omega's grid
    points y, eta_psi(y) = eta(psi^{-1}(y)) det D psi^{-1}(y), evaluating
    ``inverse`` = psi^{-1} there: any ``(points, jacobian=True) ->
    FlowEvaluation`` transport, such as a `FlowMap` or
    `MoserFlow.inverse_transport`.  An under-resolved (spectral tail/peak
    above TAIL_TOL), mass-losing or non-positive result raises QualityError."""
    grid = omega.grid
    inverse_eval = inverse(grid.points(), jacobian=True)
    values = omega.eta.sample(inverse_eval.points) * inverse_eval.determinants()
    transported = ScalarField(grid, values.reshape(grid.shape))
    tail = _spectral_tail(transported)
    if tail > TAIL_TOL:
        raise QualityError(f"transported density is under-resolved (tail above {TAIL_TOL:.0e}): "
                           f"spectral tail/peak {tail:.1e}: the grid may under-resolve the "
                           "density (raise N)", tail)
    # the tail is resolved, so what is left to name is the flow itself
    flowed = f"after a flow of |t| = {abs(inverse_eval.time):g} in {inverse_eval.steps} steps"
    mass_defect = abs(float(values.mean()) - 1.0)
    if mass_defect > 1e-8:
        raise QualityError(f"transported density lost mass: |mean - 1| = {mass_defect:.3e} "
                           f"{flowed}", mass_defect)
    minimum = float(values.min())
    if minimum <= 0.0:
        raise QualityError(f"transported density lost positivity: minimum {minimum:.6g} "
                           f"{flowed}", minimum)
    return VolumeDensity(transported)


def _spectral_tail(field: ScalarField) -> float:
    """The spectral tail/peak of a field: its largest |c_k| with |k| >= N/4
    on some axis over its largest |c_k|."""
    grid = field.grid
    high = np.logical_or.reduce(np.meshgrid(
        *[np.abs(grid.wavenumbers(axis)) >= n / 4 for axis, n in enumerate(grid.resolution)],
        indexing="ij"))
    magnitudes = np.abs(field.coefficients)
    return float(magnitudes[high].max() / magnitudes.max())


class MoserFlow:
    """Time-one transport pushing omega0 forward to omega1.

    Calling the object (or `transport`) integrates points from s = 0 to 1;
    `inverse_transport` runs the same nonautonomous field backwards, so
    `transported_density(omega0, flow.inverse_transport)` is the transported
    omega0 to compare against omega1.
    """

    def __init__(self, theta, omega0: VolumeDensity, omega1: VolumeDensity,
                 steps: int):
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.theta = theta
        self.omega0 = omega0
        self.omega1 = omega1
        self.steps = int(steps)
        self._stack = FieldStack.of(list(theta.flux().components) + [omega0.eta, omega1.eta])

    @property
    def grid(self):
        return self.theta.grid

    def _field(self, s: float, pts: np.ndarray, jacobian: bool):
        """X_s with i_{X_s} omega_s = theta, and (with ``jacobian``) its
        Jacobian, at points.  The numerators (the flux of theta) are fixed;
        only the interpolated density eta_s = (1-s) eta0 + s eta1 moves, so
        both follow from one sample by the quotient rule."""
        n = self.grid.dim
        values, grads = self._stack(pts, jacobian)
        es = (1.0 - s) * values[:, n] + s * values[:, n + 1]
        vel = values[:, :n] / es[:, None]
        if grads is None:
            return vel, None
        des = (1.0 - s) * grads[:, n] + s * grads[:, n + 1]
        return vel, (grads[:, :n] - vel[:, :, None] * des[:, None, :]) / es[:, None, None]

    def _run(self, points, s0: float, s1: float, jacobian: bool) -> FlowEvaluation:
        return _point_flow(self._field, s0, s1, as_points(points, self.grid.dim), self.steps,
                           jacobian)

    def transport(self, points, jacobian: bool = True) -> FlowEvaluation:
        return self._run(points, 0.0, 1.0, jacobian)

    __call__ = transport

    def inverse_transport(self, points, jacobian: bool = True) -> FlowEvaluation:
        return self._run(points, 1.0, 0.0, jacobian)


def moser_transport(omega0: VolumeDensity, omega1: VolumeDensity,
                    steps: int = 256) -> MoserFlow:
    """Factory for the time-one transport between two unit-mass densities.

    The fixed primitive theta solves d theta = (eta0 - eta1) vol; the tiny
    mass mismatch allowed by the density gates is projected out before the
    exactness solve.  The interpolated density stays positive automatically
    (a convex combination of positive endpoints).
    """
    if omega0.grid != omega1.grid:
        raise ValueError("densities live on different grids")
    difference = omega0.eta - omega1.eta
    theta = exact_primitive(difference - difference.mean)
    return MoserFlow(theta, omega0, omega1, steps)
