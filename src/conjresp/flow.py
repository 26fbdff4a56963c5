"""Flow maps of periodic vector fields, with Jacobians, plus volume transport.

* `flow_map` is grid-resident: a factor phi = id + D is kept as its periodic
  displacement D and gradient G on the field's grid, flowed by the transport
  equation dD/dtau = X + (X . grad) D and its gradient, with spectral
  derivatives, never sampling X off the grid; a map is the product of its
  factors, each stretching little enough to be resolved on the grid, so
  Jacobians are products of I + G.  Each d / d x_j in that system is one
  product with the axis's spectral differentiation matrix (one cached matrix
  per axis length, applied by `_advection`), no FFT.  For an autonomous
  field that grid system is affine with constant coefficients, and a factor
  is its exact Taylor series, whose terms do not depend on time: phi^t and
  phi^-t of every t of a build sum one run of terms, and are kept,
  read-only, for as long as the field lives.  A Moser map's field X_s = flux
  / eta_s depends on time, but only through its density, which is affine in
  s, so multiplied through by eta_s and eta_s^2 the grid system has
  polynomial coefficients and each distinct factor is again its exact Taylor
  series (`_moser_factors`), all factors of both directions in one batched
  run when both are asked for.  No map takes an RK4 step.
* `integrate_flow`, outside the package namespace, moves points
  (Lagrangian) by RK4 (`_rk4`), Jacobians riding along by the variational
  equation J' = DX(phi) J on the same stages.  No map uses it: it is the
  tests' independent check of `flow_map` and the Moser maps.

Either way a field and its gradient are sampled through `FieldStack`, as
torus maps do (read off the grid at exactly the grid points, interpolated
together anywhere else), and positions live on the universal cover
(reduction mod 1 happens only at output), so lifts stay available for
degree and composition arguments.

`moser_transport` builds the time-dependent field whose time-one flow pushes
one density to another along the straight path eta_s = (1-s) eta0 + s eta1:
the primitive theta with d theta = (eta0 - eta1) vol stays fixed while the
contraction is inverted against the moving density.  Its pushforward,
`MoserFlow.pushforward`, pushes a density through the inverse's factors one
at a time; `transported_density(omega, inverse)` pushes through any inverse
transport at once, and serves the flow maps.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

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
# Its pushforward reads each factor off the grid and interpolates the density
# pushed so far at the factor's images of the grid points, and the
# conjugated-map transfer check interpolates every factor, so a factor that
# stretches more than this leaves them spatially under-resolved: at 0.5 a
# 48^2 pushforward residual read 3.3e-7 (1.4e-6 when every factor after the
# first was interpolated), at 0.125 1.1e-8; a 1-d conjugated-map transfer
# residual reached 4.3e-5 at 0.5 against TRANSFER_TOL = 1e-4.
MOSER_SUBMAP_STRETCH = 0.125
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
    steps     -- the steps taken: RK4 substeps of `integrate_flow`, or
                 Taylor steps of a `FlowMap`, one per factor
    points    -- the lifts reduced into [0, 1)

    The determinants of the Jacobians are taken in closed form, as grids
    are 1-d or 2-d: the entry, or J00 J11 - J01 J10, within a few ulp of
    |J00 J11| + |J01 J10| of an LU determinant.  A non-positive one raises
    QualityError naming the smallest, and a NaN one naming the first.
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
            J = self.jacobians
            self._determinants = (J[:, 0, 0].copy() if J.shape[1] == 1
                                  else J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0])
            worst = float(self._determinants.min())  # NaN if any determinant is
            if not worst > 0.0:
                if np.isnan(worst):
                    first = int(np.argmin(self._determinants))  # the first NaN
                    raise QualityError("flow Jacobian is not finite: a NaN determinant at "
                                       f"point {first} of {len(J)}", worst)
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
    gradients row by row) serves all points, on the value rows alone
    without ``gradients`` and on the gradient rows alone without
    ``values``.  The coefficients are two blocks of one array, the F value
    rows and the F * n gradient rows, each the FFT of its arrays made on
    the first call that reads it (a flow-map factor evaluated without
    Jacobians never transforms its gradients); the FFT of a row does not
    depend on the rows transformed with it.  Its arrays, and the
    coefficient rows a call reads, are read-only, since maps share one
    stack among callers.
    """

    def __init__(self, grid, values: np.ndarray, gradients: np.ndarray, coefficients=None):
        for array in (values, gradients):
            array.setflags(write=False)
        self.grid = grid
        self.values = values
        self.gradients = gradients
        # the value rows, then the gradient rows; callers get read-only views
        self._coefficients = coefficients
        self._transformed = [coefficients is not None] * 2

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

    def _rows(self, values: bool, gradients: bool) -> np.ndarray:
        """The coefficient rows of the values, of the gradients, or of both,
        transforming each block into its rows on first use."""
        grid, count = self.grid, self.values.shape[0]
        if self._coefficients is None:
            self._coefficients = np.empty((count * (1 + grid.dim),) + grid.shape, dtype=complex)
        blocks = ((slice(None, count), self.values), (slice(count, None), self.gradients))
        for index, wanted in enumerate((values, gradients)):
            if wanted and not self._transformed[index]:
                rows, fields = blocks[index]
                transform = np.fft.fftn(fields.reshape((-1,) + grid.shape),
                                        axes=tuple(range(1, grid.dim + 1)))
                np.divide(transform, grid.size, out=self._coefficients[rows])
                self._transformed[index] = True
        view = self._coefficients[0 if values else count:None if gradients else count]
        view.setflags(write=False)
        return view

    @property
    def coefficients(self) -> np.ndarray:
        """All coefficient rows: the values', then the gradients' row by row."""
        return self._rows(True, True)

    def __call__(self, points, gradients: bool = True, values: bool = True):
        """(M, F) values and (M, F, n) gradients, each None when not asked for."""
        grid, n, count = self.grid, self.grid.dim, self.values.shape[0]
        pts = as_points(points, n)
        if pts.shape == (grid.size, n) and np.array_equal(pts, grid.points()):
            vals = self.values.reshape(count, -1).T
            grads = self.gradients.reshape(count, n, -1).transpose(2, 0, 1)
        else:
            out = sample_coefficients(grid, self._rows(values, gradients), pts)
            vals = out[:, :count]
            grads = out[:, -count * n:].reshape(-1, count, n) if gradients else None
        return (vals if values else None), (grads if gradients else None)


def _rk4(stage, state: np.ndarray, s0, h, steps: int) -> np.ndarray:
    """``steps`` classical RK4 substeps of dy/ds = f(s, y) from y(s0) =
    ``state`` (`integrate_flow`'s stepper; no map steps its grid system),
    ``stage(s)`` being y -> f(s, y), called once per distinct
    stage time: a step's start, midpoint (both middle stages) and end.
    Arrays ``s0`` and ``h`` hold one start and step per batch entry and
    broadcast over its state, and over the stage times."""
    for i in range(steps):
        s = s0 + i * h
        k1 = stage(s)(state)
        middle = stage(s + 0.5 * h)
        k2 = middle(state + 0.5 * h * k1)
        k3 = middle(state + 0.5 * h * k2)
        k4 = stage(s + h)(state + h * k3)
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

    def rate(state):
        velocity, dX = stack(state[:, :n], jacobian)
        if dX is None:
            return velocity
        return np.concatenate([velocity, (dX @ state[:, n:].reshape(m, n, n)).reshape(m, -1)],
                              axis=1)

    state = _rk4(lambda s: rate, np.concatenate([pts, identity], axis=1), 0.0,
                 float(t) / max(steps, 1), steps)
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
    steps    -- the Taylor steps taken, one per factor, so ``submaps`` (0
                for the identity phi^0)
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
        jac = None
        for factor in self.factors:
            values, grads = factor(lifts, jacobian)
            lifts = lifts + values
            if jacobian:
                step = np.eye(n) + grads
                jac = step if jac is None else step @ jac
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
    counts = _factor_counts(grid, times, [velocity], [shear], SUBMAP_STRETCH)
    signed = [(sign * t, m) for t, m in zip(times, counts)
              for sign in ((1.0, -1.0) if t else (1.0,))]
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


def _factor_counts(grid, times, velocities, shears, limit) -> list:
    """The factor count m = max(1, ceil(t stretch / limit), ceil(t pi speed
    / SERIES_REACH)) of a map of each time t >= 0 in ``times``: stretch =
    max_x ||grad X(x)||_inf over the fields' gradients ``shears``, (n, n) +
    grid.shape each, and speed = max_x sum_i |X_i(x)| N_i over their grid
    values ``velocities``, (n,) + grid.shape each."""
    stretch = max(float(np.abs(shear).sum(axis=1).max()) for shear in shears)
    speed = max(float(sum(np.abs(v) * size for v, size in zip(velocity, grid.resolution)).max())
                for velocity in velocities)
    return [max(1, math.ceil(t * stretch / limit), math.ceil(t * math.pi * speed / SERIES_REACH))
            for t in times]


def _series_terms(grid, velocity, shear):
    """For k = 1, 2, ... the terms N_k and M_k (row by row) of `flow_map`'s
    series of the field of grid values ``velocity`` and ``shear``, stacked
    as one (n + n^2,) + grid.shape array, each from the last: N_(k+1) =
    M_k X and M_(k+1) = M_k DX + (X . grad) M_k, summed in that order."""
    n = grid.dim
    rows = velocity.reshape((n, 1, 1) + grid.shape)
    term = np.concatenate([velocity, shear.reshape((n * n,) + grid.shape)])
    while True:
        yield term
        M = term[n:].reshape((n, n) + grid.shape)
        term = np.empty_like(term)
        np.einsum("ik...,k...->i...", M, velocity, out=term[:n])
        following = np.einsum("ik...,kj...->ij...", M, shear, out=term[n:].reshape(M.shape))
        _advection(M, rows, following)


def _factor(grid, state: np.ndarray) -> FieldStack:
    """The `FieldStack` of a factor's D and G, from its (n + n^2,) +
    grid.shape state (G row by row)."""
    n = grid.dim
    return FieldStack(grid, state[:n], state[n:].reshape((n, n) + grid.shape))


def _advection(G: np.ndarray, velocity, out=None) -> np.ndarray:
    """(v . grad) G = sum_j v_j d G / d x_j of gradient arrays G, (n, n) +
    grid.shape or a batch of them, v_j = ``velocity[j]`` broadcast against
    G; with ``out``, each axis' term is added into it in axis order.
    d / d x_j is one product with the axis' `_derivative_matrix` D, the
    spectral derivative with the Nyquist mode zeroed: D @ G on a leading
    axis, swapped with the axis before the last (where @ acts) and back,
    and G @ D^T = -(G @ D) on the last, D being antisymmetric, so there the
    minus sign goes to v_j."""
    n = len(velocity)
    for j, v in enumerate(velocity):
        matrix, leading = _derivative_matrix(G.shape[j - n]), j < n - 1
        term = (matrix @ G.swapaxes(j - n, -2)).swapaxes(j - n, -2) if leading else G @ matrix
        term *= v if leading else -v
        out = term if out is None else np.add(out, term, out=out)
    return out


@lru_cache(maxsize=None)
def _derivative_matrix(size: int) -> np.ndarray:
    """The (size, size) periodic spectral differentiation matrix of an axis
    of ``size`` points on [0, 1), read-only and made once per size: entry
    (i, k) is pi (-1)^(i-k) cot(pi (i-k) / size) off the diagonal and 0 on
    it (Trefethen, Spectral Methods in MATLAB, ch. 3), the FFT derivative
    with the Nyquist mode zeroed.  The cotangents are taken for
    0 < i - k < size / 2 and mirrored (the matrix is antisymmetric), which
    keeps every entry within 5e-16 max|D| of the FFT derivative's; cot near
    pi would lose digits as the size grows."""
    r = np.arange(1, size // 2)
    half = np.pi * (1.0 - 2.0 * (r % 2)) / np.tan(np.pi * r / size)
    column = np.concatenate([[0.0], half, [0.0], -half[::-1]])
    index = np.arange(size)
    matrix = column[(index[:, None] - index) % size]
    matrix.setflags(write=False)
    return matrix


def _moser_factors(grid, values, gradients, starts, times) -> np.ndarray:
    """D and G of the Moser factors phi = id + D, one per entry of
    ``starts`` and ``times``, stacked as (B, n + n^2) + grid.shape (G row by
    row): each solves `flow_map`'s grid system for the field V = c / e,
    c = -flux, e = eta_s, from its start s0 over its time tau, as the exact
    Taylor series in sigma = s - s0.  ``values`` are the grid values of the
    flux's n components, eta0 and eta1, and ``gradients`` their gradients.

    With Delta = eta1 - eta0 and e0 = eta_s0, e = e0 + sigma Delta and
    e^2 DV = P0 + sigma P1, P0 = e0 Dc - c (x) grad e0, P1 = Delta Dc -
    c (x) grad Delta, so e D' = c + G c and e^2 G' = (I + G)(P0 + sigma P1)
    + e (c . grad) G have polynomial coefficients, and D = sum_k sigma^k D_k,
    G = sum_k sigma^k G_k from D_0 = G_0 = 0:

        D_(k+1) = ([k=0] c + G_k c - k Delta D_k) / ((k+1) e0)
        G_(k+1) = ([k=0] P0 + [k=1] P1 + G_k P0 + G_(k-1) P1
                   + e0 (c . grad) G_k + Delta (c . grad) G_(k-1)
                   - 2k e0 Delta G_k - (k-1) Delta^2 G_(k-1)) / ((k+1) e0^2)

    The run keeps the terms at sigma = tau, a_k = tau^k D_k and b_k =
    tau^k G_k, so with r = tau Delta / e0

        a_(k+1) = (b_k a_1 - k r a_k) / (k+1)
        b_(k+1) = (b_k Q0 + A_k + b_(k-1) Q1 + r A_(k-1)) / (k+1),

    b_0 = I in the Q1 product only, where A_k = (tau c / e0 . grad) b_k is
    taken once per term and reused by the next, and Q0 = tau (P0 - 2k e0
    Delta I) / e0^2 and Q1 = tau^2 (P1 - (k-1) Delta^2 I) / e0^2 step their
    diagonals by -2r and -r^2 a term.  Each pointwise product is one
    `einsum` over the batch, and each A_k one `_advection`.  All entries
    take one batched run, each ending at its first term within SERIES_TOL
    of its first (|tau| max|V_s0| and |tau| max|DV_s0|), so each is bit for
    bit its build alone; an entry past SERIES_TERMS terms raises
    ConvergenceError naming its map and factor."""
    n = grid.dim
    scalar = (-1,) + (1,) * n
    s0 = np.asarray(starts, dtype=float).reshape(scalar)
    tau = np.asarray(times, dtype=float).reshape(scalar)
    c, dc = -values[:n], -gradients[:n]
    delta = values[n + 1] - values[n]
    e0 = (1.0 - s0) * values[n] + s0 * values[n + 1]
    de0 = (1.0 - s0[:, None]) * gradients[n] + s0[:, None] * gradients[n + 1]
    # per entry: Q0 and Q1 carry tau / e0^2 and tau^2 / e0^2, the advecting
    # velocity is tau c / e0 and r = tau Delta / e0; a_1 = tau c / e0 and
    # b_1 = Q0 before the first step of its diagonal
    w = tau / e0
    w2 = w / e0
    ratio = w * delta
    q0 = (e0[:, None, None] * dc - c[:, None] * de0[:, None]) * w2[:, None, None]
    q1 = (delta * dc - c[:, None] * (gradients[n + 1] - gradients[n])) * (tau * w2)[:, None, None]
    advecting = (w[:, None] * c)[:, :, None, None]
    a, b = c * w[:, None], q0.copy()
    first, step0, step1 = a, 2.0 * ratio, ratio * ratio
    bounds = SERIES_TOL * np.stack([_entry_max(a), _entry_max(b)], axis=1)
    sum_a, sum_b = a.copy(), b.copy()
    entries = np.arange(len(s0))
    out = np.empty((len(s0), n + n * n) + grid.shape)
    b_last = advected_last = None
    for k in range(1, SERIES_TERMS + 1):
        if k > 1:
            sum_a += a
            sum_b += b
        sizes = np.stack([_entry_max(a), _entry_max(b)], axis=1)
        done = np.all(sizes <= bounds, axis=1)
        if done.any():
            out[entries[done], :n] = sum_a[done]
            out[entries[done], n:] = sum_b[done].reshape((-1, n * n) + grid.shape)
            if done.all():
                return out
            keep = ~done
            entries, advecting, ratio, step0, step1, first, q0, q1, bounds, a, b, sum_a, sum_b = (
                x[keep] for x in (entries, advecting, ratio, step0, step1, first, q0, q1, bounds,
                                  a, b, sum_a, sum_b))
            if b_last is not None:
                b_last, advected_last = b_last[keep], advected_last[keep]
        if k == SERIES_TERMS:
            break
        advected = _advection(b, advecting.swapaxes(0, 1))
        for i in range(n):
            q0[:, i, i] -= step0
        rate = np.einsum("bik...,bkj...->bij...", b, q0)
        rate += advected
        if k == 1:
            rate += q1
        else:
            for i in range(n):
                q1[:, i, i] -= step1
            rate += np.einsum("bik...,bkj...->bij...", b_last, q1)
            advected_last *= ratio[:, None, None]
            rate += advected_last
        rate *= 1.0 / (k + 1)
        a_next = np.einsum("bik...,bk...->bi...", b, first)
        a_next -= (k * ratio)[:, None] * a
        a_next *= 1.0 / (k + 1)
        b_last, advected_last, a, b = b, advected, a_next, rate
    i = int(entries[0])
    t, start, time = -math.copysign(1.0, times[i]), float(starts[i]), float(times[i])
    raise ConvergenceError(
        f"the Moser map at t = {t:g} did not converge: the series of its factor from "
        f"s = {start:g} to s = {start + time:g} still had a term of size {sizes[0, 0]:.3e} (D) "
        f"and {sizes[0, 1]:.3e} (G) after {k} terms", float(sizes[0].max()), k)


def _entry_max(terms: np.ndarray) -> np.ndarray:
    """The largest |entry| of each batch entry of ``terms``."""
    flat = terms.reshape(len(terms), -1)
    return np.maximum(flat.max(axis=1), -flat.min(axis=1))


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
    return _gated_density(grid, values, inverse_eval.time, inverse_eval.steps)


def _gated_density(grid, values: np.ndarray, time: float, steps: int) -> VolumeDensity:
    """The transported density of grid values ``values`` (row-major), after
    the gates of `transported_density`: its spectral tail, then its mass and
    positivity, which name the flow of |``time``| in ``steps`` steps."""
    transported = ScalarField(grid, values.reshape(grid.shape))
    tail = _spectral_tail(transported)
    if tail > TAIL_TOL:
        raise QualityError(f"transported density is under-resolved (tail above {TAIL_TOL:.0e}): "
                           f"spectral tail/peak {tail:.1e}: the grid may under-resolve the "
                           "density (raise N)", tail)
    # the tail is resolved, so what is left to name is the flow itself
    flowed = f"after a flow of |t| = {abs(time):g} in {steps} steps (Taylor steps, one per factor)"
    mass_defect = abs(float(values.mean()) - 1.0)
    if not mass_defect <= 1e-8:  # NaN too, named as such
        lost = (f"lost mass: |mean - 1| = {mass_defect:.3e}" if np.isfinite(mass_defect)
                else "has non-finite values")
        raise QualityError(f"transported density {lost} {flowed}", mass_defect)
    minimum = float(values.min())
    if not minimum > 0.0:
        raise QualityError(f"transported density lost positivity: minimum {minimum:.6g} "
                           f"{flowed}", minimum)
    return VolumeDensity(transported)


def _spectral_tail(field: ScalarField) -> float:
    """The spectral tail/peak of a field: its largest |c_k| with |k| >= N/4
    on some axis over its largest |c_k|."""
    magnitudes = np.abs(field.coefficients)
    return float(magnitudes[_high_modes(field.grid)].max() / magnitudes.max())


@lru_cache(maxsize=None)
def _high_modes(grid) -> np.ndarray:
    """The mask of the wavenumbers k of a grid with |k| >= N/4 on some axis,
    made once per resolution."""
    high = np.logical_or.reduce(np.meshgrid(
        *[np.abs(grid.wavenumbers(axis)) >= n / 4 for axis, n in enumerate(grid.resolution)],
        indexing="ij"))
    high.setflags(write=False)
    return high


class MoserFlow:
    """Time-one transport pushing omega0 forward to omega1, the flow of the
    field X_s = theta / eta_s from s = 0 to 1, where theta is the flux of
    the primitive (a `VectorFieldT`) and eta_s = (1 - s) eta0 + s eta1.

    Both directions are `FlowMap`s on the grid, each built on first use
    (`forward`, `inverse`) unless `maps` builds them together first.  [0, 1]
    splits into ``submaps`` equal factors, the fewest for which max_s max_x
    ||grad X_s(x)||_inf / submaps <= MOSER_SUBMAP_STRETCH (s sampled at
    0, 1/16, ..., 1) and pi max_s max_x sum_i |X_s,i(x)| N_i / submaps <=
    SERIES_REACH (|X_s(x)| is largest at s = 0 or 1).  Each factor is a
    reference map: Phi = phi_{s -> s_a} solves dPhi/ds = -DPhi X_s from
    Phi = id at s = s_a, so flowed from a factor's start to its end it
    gives the factor of the inverse, and from its end to its start the
    factor of the forward map.  It is the exact Taylor series in s of
    `flow_map`'s grid system for that field (`_moser_factors`), and all
    factors of the directions built together take one batched run of terms
    (2 ``submaps`` entries for both, each bit for bit its build alone).

    Calling the object (or `transport`) evaluates phi_{0->1} at points and
    `inverse_transport` phi_{1->0}, and `pushforward(omega0)` is the
    transported omega0 to compare against omega1, built from `inverse`'s
    factors one at a time.

    submaps   -- number of factors of either direction, and its Taylor
                 steps over [0, 1], one per factor (`FlowMap.steps`); the
                 series, not a step count, sets the accuracy
    """

    def __init__(self, theta, omega0: VolumeDensity, omega1: VolumeDensity):
        self.theta = theta
        self.omega0 = omega0
        self.omega1 = omega1
        grid, n = self.grid, self.grid.dim
        fields = list(theta.components) + [omega0.eta, omega1.eta]
        self._values = np.stack([f.values for f in fields])
        self._gradients = np.stack([[f.derivative(j).values for j in range(n)] for f in fields])
        flux, gradients = self._values[:n], self._gradients[:n]

        def shear(s):  # grad X_s by the quotient rule: only the density eta_s moves
            es = (1.0 - s) * self._values[n] + s * self._values[n + 1]
            des = (1.0 - s) * self._gradients[n] + s * self._gradients[n + 1]
            return (gradients - (flux / es)[:, None] * des[None]) / es

        # the stretch at s = 0, 1/16, ..., 1 and the speed at s = 0 and 1,
        # where |X_s(x)| is largest, as eta_s(x) is linear in s
        self.submaps = _factor_counts(grid, (1.0,), [flux / eta for eta in self._values[n:]],
                                      map(shear, np.linspace(0.0, 1.0, 17)),
                                      MOSER_SUBMAP_STRETCH)[0]
        self._maps = {1.0: None, -1.0: None}  # phi_{0->1} and phi_{1->0}, once built

    @property
    def grid(self):
        return self.theta.grid

    def maps(self, times) -> list:
        """[phi_{0->1} if t == 1 else phi_{1->0} for t in times], t = 1 or
        -1 (else KeyError), with every direction not built yet built in one
        batched `_moser_factors` run of its factors and the other's; a
        series that does not converge raises ConvergenceError and keeps
        nothing of the build."""
        missing = [t for t in dict.fromkeys(times) if self._maps[t] is None]
        if missing:
            m = self.submaps
            ends = np.arange(m + 1) / m
            starts = np.concatenate([ends[1:] if t > 0 else ends[:-1] for t in missing])
            states = _moser_factors(self.grid, self._values, self._gradients, starts,
                                    [-t / m for t in missing for _ in range(m)])
            for t, batch in zip(missing, np.split(states, len(missing))):
                factors = [_factor(self.grid, state) for state in batch]
                # phi_{0->1} runs the factors from s = 0 up, phi_{1->0} from s = 1 down
                self._maps[t] = FlowMap(factors if t > 0 else factors[::-1], t, m)
        return [self._maps[t] for t in times]

    @property
    def forward(self) -> FlowMap:
        """phi_{0->1}, built on first use."""
        return self.maps((1.0,))[0]

    @property
    def inverse(self) -> FlowMap:
        """phi_{1->0}, built on first use."""
        return self.maps((-1.0,))[0]

    def transport(self, points, jacobian: bool = True) -> FlowEvaluation:
        return self.forward(points, jacobian)

    __call__ = transport

    def inverse_transport(self, points, jacobian: bool = True) -> FlowEvaluation:
        return self.inverse(points, jacobian)

    def pushforward(self, omega: VolumeDensity) -> VolumeDensity:
        """psi_* omega, psi = phi_{0->1}, pushed through the factors f_k of
        `inverse` one at a time, last-applied first: psi^{-1} = f_m o ... o
        f_1, so psi_* is the pushforward by f_m^{-1}, then by f_(m-1)^{-1},
        and so on.  Each is rho <- rho(y + D_k(y)) det(I + G_k(y)) at the
        grid points y, with D_k and G_k read off the grid, so each step
        interpolates one row, the density so far (a flat start, such as
        Lebesgue, needs none).  ``transported_density(omega,
        self.inverse_transport)`` gives the same density up to interpolation
        error, but interpolates all n + n^2 rows of every factor after the
        first.  The result takes `transported_density`'s gates, which name
        the inverse's flow."""
        grid = self.grid
        if omega.grid != grid:
            raise ValueError("the density and the transport live on different grids")
        inverse, eta = self.inverse, omega.eta
        for factor in reversed(inverse.factors):
            step = FlowMap((factor,), inverse.time, inverse.steps)(grid.points())
            values = eta.sample(step.points) * step.determinants()
            eta = ScalarField(grid, values.reshape(grid.shape))
        return _gated_density(grid, values, inverse.time, inverse.steps)


def moser_transport(omega0: VolumeDensity, omega1: VolumeDensity) -> MoserFlow:
    """Factory for the time-one transport between two unit-mass densities.

    The fixed primitive theta, held by its flux, solves d theta = (eta0 -
    eta1) vol; the tiny mass mismatch allowed by the density gates is
    projected out before the exactness solve.  The interpolated density
    stays positive automatically (a convex combination of positive
    endpoints).  See `MoserFlow` for the maps' factors, which are built on
    first use, each the exact series of its grid system.
    """
    if omega0.grid != omega1.grid:
        raise ValueError("densities live on different grids")
    difference = omega0.eta - omega1.eta
    first, *others = exact_primitive(difference - difference.mean).components
    # components past the first keep only their grid values, so the maps take
    # their derivatives from the FFT of those: the Moser maps' bits rest on it
    return MoserFlow(VectorFieldT([first, *(ScalarField(c.grid, c.values) for c in others)]),
                     omega0, omega1)
