"""Flow maps of periodic vector fields, with Jacobians, plus volume transport.

* `flow_map` is grid-resident: a factor phi = id + D is kept as its periodic
  displacement D and gradient G on the field's grid, flowed by the transport
  equation dD/dtau = X + (X . grad) D and its gradient, with spectral
  derivatives, never sampling X off the grid; a map is the product of its
  factors, each stretching little enough to be resolved on the grid, so
  Jacobians are products of I + G.  For an autonomous field that grid system
  is affine with constant coefficients, and a factor is its exact Taylor
  series, whose terms do not depend on time: phi^t and phi^-t of every t of
  a build sum one run of terms, and are kept, read-only, for as long as the
  field lives.  A Moser map's field depends on time, so its distinct factors
  take one RK4 integration (`_rk4`, fixed uniform substeps, each stage
  passed its time) of the same grid system per direction.
* `integrate_flow`, outside the package namespace, moves points
  (Lagrangian) by RK4, Jacobians riding along by the variational equation
  J' = DX(phi) J on the same stages.  No flow map uses it: it is the tests'
  independent check of `flow_map`.

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
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, QualityError
from .exactness import exact_primitive
from .fields import (
    ScalarField,
    VectorFieldT,
    VolumeDensity,
    as_points,
    mod1,
    sample_coefficients,
)

# Largest |s| max_x ||grad X(x)||_inf of one factor phi^s of a flow map.
SUBMAP_STRETCH = 0.5
# Largest reach |s| pi max_x sum_i |X_i(x)| N_i of one factor phi^s of a flow
# map, the top eigenvalue of (X . grad): rounding at the top wavenumbers grows
# in the series like reach^k / k!, at most about 2e4-fold at 12, while a field
# of sup|X| = 2/pi at t = 0.5 and N = 256 (reach 256) diverges in one factor.
SERIES_REACH = 12.0
# A series ends at its first term within SERIES_TOL (see `flow_map`), or
# raises ConvergenceError after SERIES_TERMS terms.
SERIES_TOL = 1e-16
SERIES_TERMS = 60
# Largest max_s max_x ||grad X_s(x)||_inf / m of the m factors of a Moser map.
# Its pushforward reads the first factor off the grid and interpolates the
# others, so a factor that stretches more than this leaves it spatially
# under-resolved: at 0.5 a 48^2 pushforward residual reached 1.4e-6 against
# PUSHFORWARD_TOL = 1e-6 whatever the substeps, at 0.125 it stays below 1e-7.
MOSER_SUBMAP_STRETCH = 0.125
# Largest h * pi * max_s max_x sum_i |X_s,i(x)| N_i of a Moser map's RK4
# substeps, a floor for stability only (RK4 is stable up to 2 sqrt(2) on the
# imaginary axis); the requested steps set the accuracy.
MOSER_STABILITY_LIMIT = 0.6
# Largest spectral tail/peak (see `_spectral_tail`) a transported density may
# have: resolved verification densities sit near 1e-4 and below, the
# under-resolved ones near 1e-2.
TAIL_TOL = 1e-3

# field -> {t: FlowMap}, with t and -t entered together; an entry lives as
# long as its field, whose values are read-only, so a map is never stale
_FLOW_MAPS = weakref.WeakKeyDictionary()

__all__ = [
    "FlowEvaluation",
    "FlowMap",
    "flow_map",
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
    steps     -- the steps taken: RK4 substeps, or Taylor steps of a flow
                 map (see `FlowMap`)
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


def _rk4(rate, state: np.ndarray, s0, h, steps: int) -> np.ndarray:
    """``steps`` classical RK4 substeps of dy/ds = rate(s, y) from y(s0) =
    ``state``.  Arrays ``s0`` and ``h`` hold one start and step per batch
    entry and broadcast over its state, and over the stage times passed to
    ``rate``."""
    for i in range(steps):
        s = s0 + i * h
        k1 = rate(s, state)
        k2 = rate(s + 0.5 * h, state + 0.5 * h * k1)
        k3 = rate(s + 0.5 * h, state + 0.5 * h * k2)
        k4 = rate(s + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def integrate_flow(X: VectorFieldT, t: float, points, steps: int,
                   jacobian: bool = True) -> FlowEvaluation:
    """phi^t at the given points by ``steps`` RK4 substeps; the torus is
    compact so any t is allowed.  At t = 0 this is the identity, in 0 steps,
    whatever ``steps`` says.

    The state is the points and, with ``jacobian``, their Jacobians J row by
    row, (M, n + n^2): each stage samples X and its gradient DX at the moving
    points, so J rides along at the rate DX J on the same stages."""
    pts = as_points(points, X.grid.dim)
    if t == 0.0:
        steps = 0
    elif steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    stack = FieldStack.of(X.components)
    m, n = pts.shape
    identity = np.tile(np.eye(n).ravel(), (m, 1)) if jacobian else np.empty((m, 0))

    def rate(s, state):
        velocity, dX = stack(state[:, :n], jacobian)
        if dX is None:
            return velocity
        return np.concatenate([velocity, (dX @ state[:, n:].reshape(m, n, n)).reshape(m, -1)],
                              axis=1)

    state = _rk4(rate, np.concatenate([pts, identity], axis=1), 0.0, float(t) / max(steps, 1),
                 steps)
    return FlowEvaluation(state[:, :n], state[:, n:].reshape(m, n, n) if jacobian else None,
                          float(t), steps)


class FlowMap:
    """A transport kept on its grid as factors phi_k = id + D_k, D_k periodic,
    applied in order: phi^t of a field is the power (phi^s)^m, s = t / m, one
    factor object repeated, and a Moser map the product of its own factors.

    Calling the object evaluates the product (and, with ``jacobian``, the
    product of the factors' I + G by the chain rule) at points, one
    `FieldStack` call per factor.  It has the call signature of the other
    transports (`MoserFlow`), so `ConjugatedMap` and `transported_density`
    take it.

    grid     -- the field's grid
    factors  -- `FieldStack`s of each factor's D and G = grad D, in order
    time     -- t
    steps    -- a Moser map's RK4 substeps over [0, t]; a field's flow map
                takes one Taylor step per factor, so there it is ``submaps``
    submaps  -- number of factors
    """

    def __init__(self, factors, time: float, steps: int):
        self.factors = tuple(factors)
        self.grid = self.factors[0].grid
        self.time = float(time)
        self.steps = int(steps)

    @property
    def submaps(self) -> int:
        return len(self.factors)

    def __call__(self, points, jacobian: bool = True) -> FlowEvaluation:
        n = self.grid.dim
        lifts = as_points(points, n)
        jac = np.tile(np.eye(n), (lifts.shape[0], 1, 1)) if jacobian else None
        for factor in self.factors:
            values, grads = factor(lifts, jacobian)
            lifts = lifts + values
            if jacobian:
                jac = (np.eye(n) + grads) @ jac
        return FlowEvaluation(lifts, jac, self.time, self.steps)


def flow_map(X: VectorFieldT, t: float) -> FlowMap:
    """phi^t of X on X's grid, any real t: the power (phi^s)^m, s = t / m,
    with m the fewest factors for which |s| max_x ||grad X(x)||_inf <=
    SUBMAP_STRETCH (submaps resolved where phi^t may not be) and
    |s| pi max_x sum_i |X_i(x)| N_i <= SERIES_REACH.  phi^s = id + D, and
    D and its gradient G solve dD/dtau = X + G X, dG/dtau = DX + G DX +
    (X . grad) G from 0 at tau = 0 to s: G is flowed, not taken as grad D;
    only G is differentiated (spectrally), and products are pointwise at the
    grid points, so D and G stay exact there to second order in s, however
    X's spectrum ends.  That system is affine with constant coefficients,
    so its solution is its Taylor series in s, the Lie series of the flow:

        D = sum_k s^k / k! N_k,    N_1 = X,   N_(k+1) = M_k X,
        G = sum_k s^k / k! M_k,    M_1 = DX,  M_(k+1) = M_k DX + (X . grad) M_k,

    up to the first term with |s^k / k!| max|N_k| <= SERIES_TOL |s| max|X|
    and |s^k / k!| max|M_k| <= SERIES_TOL |s| max|DX|, else ConvergenceError
    after SERIES_TERMS terms.  This is ``flow_maps(X, (t,))[0]``: phi^t and
    phi^-t are built together, once per (X, |t|), kept while X lives.
    """
    return flow_maps(X, (t,))[0]


def flow_maps(X: VectorFieldT, times) -> list:
    """[`flow_map`(X, t) for t in times], with every map not built yet built
    at once.

    The factors depend on |t| alone, so phi^t and phi^-t are always built
    together, every missing map summing one run of `_series_terms`, dropped
    after the build.  Each sum ends on its own tolerance, so each map is bit
    for bit what a build of it alone would give.
    """
    times = [float(t) for t in times]
    maps = _FLOW_MAPS.setdefault(X, {})
    missing = sorted({abs(t) for t in times if t not in maps})
    for phi in _build_flow_maps(X, missing):
        maps[phi.time] = phi
    return [maps[t] for t in times]


def _build_flow_maps(X: VectorFieldT, times) -> list:
    """phi^t and phi^-t for each t >= 0 in ``times``, from one run of
    `_series_terms`; at t = 0 both are the zero map, of 0 steps."""
    if not times:
        return []
    grid, n = X.grid, X.grid.dim
    velocity = np.stack([c.values for c in X.components])
    shear = np.stack([[c.derivative(j).values for j in range(n)] for c in X.components])
    stretch = float(np.abs(shear).sum(axis=1).max())  # max_x ||grad X(x)||_inf
    speed = float(sum(np.abs(v) * size for v, size in zip(velocity, grid.resolution)).max())
    signed = [(sign * t, max(1, math.ceil(t * stretch / SUBMAP_STRETCH),
                             math.ceil(t * math.pi * speed / SERIES_REACH)))
              for t in times for sign in ((1.0, -1.0) if t else (1.0,))]
    # per map: its factor's time s, the weight s^k / k! of term k, and the sum
    s = [t / m for t, m in signed]
    weights, sums = [1.0] * len(signed), [0.0] * len(signed)
    bounds = SERIES_TOL * np.array([np.abs(velocity).max(), np.abs(shear).max()])
    summing = range(len(signed))
    for k, term in enumerate(_series_terms(grid, velocity, shear), 1):
        sizes = np.array([np.abs(term[:n]).max(), np.abs(term[n:]).max()])
        for i in summing:
            weights[i] *= s[i] / k
            sums[i] = sums[i] + weights[i] * term
        summing = [i for i in summing if np.any(abs(weights[i]) * sizes > abs(s[i]) * bounds)]
        if not summing:
            break
        if k == SERIES_TERMS:
            i = summing[0]
            last = abs(weights[i]) * sizes
            raise ConvergenceError(
                f"the flow map at t = {signed[i][0]:g} did not converge: the series of its "
                f"factor phi^s, s = {s[i]:g}, still had a term of size {last[0]:.3e} (D) "
                f"and {last[1]:.3e} (G) after {k} terms", float(last.max()), k)
    return [FlowMap((_factor(grid, total),) * m, t, m if t else 0)
            for total, (t, m) in zip(sums, signed)]


def _series_terms(grid, velocity, shear):
    """For k = 1, 2, ... the terms N_k and M_k (row by row) of `flow_map`'s
    series of the field of grid values ``velocity`` and ``shear``, stacked
    as one (n + n^2,) + grid.shape array, each from the last."""
    n = grid.dim
    rate = _grid_rate(grid)
    term = np.concatenate([velocity, shear.reshape((n * n,) + grid.shape)])
    while True:
        yield term
        term = rate(term[n:].reshape((1, n, n) + grid.shape), velocity, shear, False)[0]


def _factor(grid, state: np.ndarray) -> FieldStack:
    """The `FieldStack` of a factor's D and G, from its (n + n^2,) +
    grid.shape state (G row by row)."""
    n = grid.dim
    return FieldStack(grid, state[:n], state[n:].reshape((n, n) + grid.shape))


def _grid_rate(grid):
    """rate(G, velocity, shear, source=True): at gradients G, (B, n, n) +
    grid.shape, the rates X + G X and DX + G DX + (X . grad) G of `flow_map`'s
    grid system, without ``source`` G X and G DX + (X . grad) G, as (B, n +
    n^2) + grid.shape.  X and DX are one for all entries or one per entry;
    one set of transforms serves the batch, each entry computed as alone."""
    n = grid.dim
    # real-to-complex transforms keep the last axis' wavenumbers 0..N/2
    symbols = [grid.derivative_symbol(j)[..., : grid.resolution[-1] // 2 + 1]
               for j in range(n)]
    axes = tuple(range(3, n + 3))

    def rate(G, velocity, shear, source=True):
        batch = "b" if velocity.ndim > n + 1 else ""
        coefficients = _rfftn(G, axes)
        dD = np.einsum(f"bik...,{batch}k...->bi...", G, velocity)
        dG = np.einsum(f"bik...,{batch}kj...->bij...", G, shear)
        if source:
            dD, dG = velocity + dD, shear + dG
        rows = velocity.reshape((-1, n, 1, 1) + grid.shape)
        for k, symbol in enumerate(symbols):
            dG += rows[:, k] * _irfftn(coefficients * symbol, grid.shape, axes)
        return np.concatenate([dD, dG.reshape((-1, n * n) + grid.shape)], axis=1)

    return rate


def _flow_factor(grid, field, times, steps: int, starts=0.0) -> np.ndarray:
    """D and G of the factors phi = id + D, one per entry of ``times``, each
    flowing its field from its start (``starts``, one for all or one per
    entry) over its time, stacked as (len(times), n + n^2) + grid.shape (G
    row by row): `steps` RK4 substeps of `_grid_rate` on one batched state.
    ``field(s)`` gives X and DX at the grid points at the stage times s,
    (len(times), 1) + (1,) * n: (n,) + grid.shape and (n, n) + grid.shape
    for every entry (an autonomous field), or one per entry."""
    n = grid.dim
    grid_rate = _grid_rate(grid)

    def rate(s, state):
        return grid_rate(state[:, n:].reshape((-1, n, n) + grid.shape), *field(s))

    # one step size and start per batch entry, broadcast over its state
    shape = (-1,) + (1,) * (n + 1)
    h = (np.asarray(times, dtype=float) / steps).reshape(shape)
    s0 = np.asarray(starts, dtype=float).reshape(shape)
    return _rk4(rate, np.zeros((h.shape[0], n + n * n) + grid.shape), s0, h, steps)


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
    flowed = (f"after a flow of |t| = {abs(inverse_eval.time):g} in {inverse_eval.steps} steps "
              "(Taylor steps of a flow map, one per factor; RK4 substeps of a Moser map)")
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
    """Time-one transport pushing omega0 forward to omega1, the flow of the
    field X_s = flux / eta_s from s = 0 to 1, where flux is that of theta
    and eta_s = (1 - s) eta0 + s eta1.

    Both directions are `FlowMap`s on the grid, each built on first use
    (`forward`, `inverse`).  [0, 1] splits into ``submaps`` equal factors,
    the fewest for which max_s max_x ||grad X_s(x)||_inf / submaps <=
    MOSER_SUBMAP_STRETCH, and each factor is a reference map
    (`_flow_factor` with X_s at every stage's time): Phi = phi_{s -> s_a}
    solves dPhi/ds = -DPhi X_s from Phi = id at s = s_a, so integrated
    from a factor's start to its end it gives the factor of the inverse,
    and from its end to its start the factor of the forward map.  All
    factors of one direction take one batched integration of ``substeps`` /
    ``submaps`` substeps each: ``steps`` of them over [0, 1] at least, and
    at least the substeps that keep h * pi * max_s max_x sum_i |X_s,i(x)| N_i
    within MOSER_STABILITY_LIMIT.

    Calling the object (or `transport`) evaluates phi_{0->1} at points and
    `inverse_transport` phi_{1->0}, so `transported_density(omega0,
    flow.inverse_transport)` is the transported omega0 to compare against
    omega1.

    steps     -- the requested lower bound on the RK4 substeps over [0, 1]
    substeps  -- the RK4 substeps taken over [0, 1] by either direction
    submaps   -- number of factors of either direction
    """

    def __init__(self, theta, omega0: VolumeDensity, omega1: VolumeDensity,
                 steps: int):
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.theta = theta
        self.omega0 = omega0
        self.omega1 = omega1
        self.steps = int(steps)
        grid, n = self.grid, self.grid.dim
        fields = list(theta.flux().components) + [omega0.eta, omega1.eta]
        self._values = np.stack([f.values for f in fields])
        self._gradients = np.stack([[f.derivative(j).values for j in range(n)] for f in fields])
        # |X_s(x)| is largest at s = 0 or 1, as eta_s(x) is linear in s; the
        # stretch is sampled at s = 0, 1/16, ..., 1
        velocity, shear = self._grid_field(np.linspace(0.0, 1.0, 17).reshape((-1, 1) + (1,) * n))
        stretch = float(np.abs(shear).sum(axis=2).max())
        speed = float(sum(np.abs(velocity[:, i]) * size
                          for i, size in enumerate(grid.resolution)).max())
        self.submaps = max(1, math.ceil(stretch / MOSER_SUBMAP_STRETCH))
        stable = math.ceil(math.pi * speed / (self.submaps * MOSER_STABILITY_LIMIT))
        self.substeps = self.submaps * max(math.ceil(self.steps / self.submaps), stable, 1)

    @property
    def grid(self):
        return self.theta.grid

    def _grid_field(self, s: np.ndarray):
        """X_s and its gradient at the grid points, (B, n) + grid.shape and
        (B, n, n) + grid.shape, at the times s of shape (B, 1) + (1,) * n.
        The numerators (the flux of theta) are fixed; only the density
        eta_s moves, so the gradient follows by the quotient rule."""
        n = self.grid.dim
        es = (1.0 - s) * self._values[n] + s * self._values[n + 1]
        des = (1.0 - s) * self._gradients[n] + s * self._gradients[n + 1]
        velocity = self._values[:n] / es
        return velocity, (self._gradients[:n] - velocity[:, :, None] * des[:, None]) / es[:, None]

    def _build(self, time: float) -> FlowMap:
        """phi_{0->1} (``time`` 1) or phi_{1->0} (``time`` -1)."""
        m = self.submaps
        ends = np.arange(m + 1) / m
        starts = ends[1:] if time > 0 else ends[:-1]

        def field(s):
            velocity, shear = self._grid_field(s)
            return -velocity, -shear

        states = _flow_factor(self.grid, field, [-time / m] * m, self.substeps // m, starts)
        factors = [_factor(self.grid, state) for state in states]
        # phi_{0->1} runs the factors from s = 0 up, phi_{1->0} from s = 1 down
        return FlowMap(factors if time > 0 else factors[::-1], time, self.substeps)

    @cached_property
    def forward(self) -> FlowMap:
        """phi_{0->1}, built on first use."""
        return self._build(1.0)

    @cached_property
    def inverse(self) -> FlowMap:
        """phi_{1->0}, built on first use."""
        return self._build(-1.0)

    def transport(self, points, jacobian: bool = True) -> FlowEvaluation:
        return self.forward(points, jacobian)

    __call__ = transport

    def inverse_transport(self, points, jacobian: bool = True) -> FlowEvaluation:
        return self.inverse(points, jacobian)


def moser_transport(omega0: VolumeDensity, omega1: VolumeDensity,
                    steps: int = 256) -> MoserFlow:
    """Factory for the time-one transport between two unit-mass densities.

    The fixed primitive theta solves d theta = (eta0 - eta1) vol; the tiny
    mass mismatch allowed by the density gates is projected out before the
    exactness solve.  The interpolated density stays positive automatically
    (a convex combination of positive endpoints).  ``steps`` is a lower
    bound on the RK4 substeps over [0, 1]; see `MoserFlow` for the count
    taken and the maps' factors, which are built on first use.
    """
    if omega0.grid != omega1.grid:
        raise ValueError("densities live on different grids")
    difference = omega0.eta - omega1.eta
    theta = exact_primitive(difference - difference.mean)
    return MoserFlow(theta, omega0, omega1, steps)
