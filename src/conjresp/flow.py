"""Flow maps of periodic vector fields, with Jacobians, plus volume transport.

Positions integrate with the classical fourth-order one-step scheme on the
universal cover (reduction mod 1 happens only at output, so lifts stay
available for degree and composition arguments).  Jacobians ride along via
the variational equation D' = DX(phi) D discretized with the same stages.
Fixed uniform substeps keep runs bit-reproducible.

`moser_transport` builds the time-dependent field whose time-one flow pushes
one density to another along the straight path eta_s = (1-s) eta0 + s eta1:
the primitive theta with d theta = (eta0 - eta1) vol stays fixed while the
contraction is inverted against the moving density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import QualityError
from .exactness import exact_primitive
from .fields import (
    ScalarField,
    VectorFieldT,
    VolumeDensity,
    as_points,
    sample_coefficients,
)

__all__ = [
    "FlowEvaluation",
    "default_steps",
    "integrate_flow",
    "inverse_flow",
    "transported_density",
    "MoserFlow",
    "moser_transport",
]


@dataclass
class FlowEvaluation:
    """Points transported by a flow, with variational Jacobians.

    points    -- (M, n) positions reduced mod 1
    jacobians -- (M, n, n) Jacobian matrices, or None if not requested
    time      -- total flow time
    steps     -- substep count actually used
    lifts     -- (M, n) unreduced endpoints on the universal cover
    """

    points: np.ndarray
    jacobians: np.ndarray | None
    time: float
    steps: int
    lifts: np.ndarray = dataclass_field(default=None, repr=False)

    def __post_init__(self):
        if self.lifts is None:
            self.lifts = np.array(self.points)
        if self.jacobians is not None:
            dets = np.linalg.det(self.jacobians)
            worst = float(dets.min())
            if worst <= 0.0:
                raise QualityError(
                    "flow Jacobian lost positive orientation (step size too "
                    f"large for this field?); smallest determinant {worst:.6g}",
                    worst,
                )

    def determinants(self) -> np.ndarray:
        return np.linalg.det(self.jacobians)


def default_steps(X: VectorFieldT, t: float) -> int:
    """ceil(64 * max(1, sup|X| * |t|)): truncation error far below the
    verification tolerances for smooth band-limited fields."""
    return int(math.ceil(64.0 * max(1.0, X.sup_norm * abs(t))))


class _FieldSampler:
    """Values of F scalar fields, and optionally their gradients, at flying
    points.

    One stacked interpolation per call: the F values first, then the n
    spectral partial derivatives of each field in turn, so the gradients of
    a vector field's components read off as its Jacobian matrix.
    """

    def __init__(self, fields, with_gradients: bool):
        self.grid = fields[0].grid
        self.count = len(fields)
        coeffs = [f.coefficients for f in fields]
        if with_gradients:
            coeffs += [f.derivative(j).coefficients
                       for f in fields for j in range(self.grid.dim)]
        self.with_gradients = with_gradients
        self.stack = np.stack(coeffs)

    def __call__(self, pts: np.ndarray):
        """(M, F) values and (M, F, n) gradients (None when not requested)."""
        out = sample_coefficients(self.grid, self.stack, pts)
        values = out[:, : self.count]
        if not self.with_gradients:
            return values, None
        return values, out[:, self.count :].reshape(-1, self.count, self.grid.dim)


def _rk4(evaluator, s0: float, s1: float, points: np.ndarray, steps: int,
         with_jacobian: bool) -> FlowEvaluation:
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
    return FlowEvaluation(p % 1.0, J, s1 - s0, steps, p)


def _identity_evaluation(pts: np.ndarray, with_jacobian: bool) -> FlowEvaluation:
    m, n = pts.shape
    jac = np.tile(np.eye(n), (m, 1, 1)) if with_jacobian else None
    return FlowEvaluation(pts % 1.0, jac, 0.0, 0, np.array(pts))


def integrate_flow(
    X: VectorFieldT,
    t: float,
    points,
    steps: int | None = None,
    jacobian: bool = True,
) -> FlowEvaluation:
    """phi^t at the given points; the torus is compact so any t is allowed."""
    pts = as_points(points, X.grid.dim)
    if t == 0.0:
        return _identity_evaluation(pts, jacobian)
    if steps is None:
        steps = default_steps(X, t)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    sampler = _FieldSampler(X.components, jacobian)
    return _rk4(lambda s, p: sampler(p), 0.0, float(t), pts, steps, jacobian)


def inverse_flow(
    X: VectorFieldT,
    t: float,
    points,
    steps: int | None = None,
    jacobian: bool = True,
) -> FlowEvaluation:
    """phi^{-t}: the flow of X for time -t."""
    return integrate_flow(X, -t, points, steps=steps, jacobian=jacobian)


def transported_density(omega: VolumeDensity, inverse_eval: FlowEvaluation) -> VolumeDensity:
    """Density of the pushforward of omega by a map psi, from an evaluation
    of psi^{-1} (with Jacobians) at exactly the grid points of omega:
    eta_psi(y) = eta(psi^{-1}(y)) det D psi^{-1}(y)."""
    grid = omega.grid
    if inverse_eval.jacobians is None:
        raise ValueError("transported_density needs Jacobians on the inverse evaluation")
    if inverse_eval.points.shape[0] != grid.size:
        raise ValueError("inverse evaluation does not cover the density's grid")
    values = omega.eta.sample(inverse_eval.points) * inverse_eval.determinants()
    transported = ScalarField(grid, values.reshape(grid.shape))
    mass_defect = abs(float(values.mean()) - 1.0)
    if mass_defect > 1e-8:
        raise QualityError(f"transported density lost mass: |mean - 1| = {mass_defect:.3e}"
                           f"{_resolution_hint(transported)}", mass_defect)
    minimum = float(values.min())
    if minimum <= 0.0:
        raise QualityError(f"transported density lost positivity: minimum {minimum:.6g}"
                           f"{_resolution_hint(transported)}", minimum)
    return VolumeDensity(transported)


def _resolution_hint(field: ScalarField) -> str:
    """The spectral tail/peak of a field -- its largest |c_k| with |k| >= N/4
    on some axis over its largest |c_k| -- as a hint that the grid may
    under-resolve it; computed only on a failure path."""
    grid = field.grid
    high = np.logical_or.reduce(np.meshgrid(
        *[np.abs(grid.wavenumbers(axis)) >= n / 4 for axis, n in enumerate(grid.resolution)],
        indexing="ij"))
    magnitudes = np.abs(field.coefficients)
    tail = float(magnitudes[high].max() / magnitudes.max())
    return f"; spectral tail/peak {tail:.1e}: the grid may under-resolve the density (raise N)"


def _moser_field(theta, omega0: VolumeDensity, omega1: VolumeDensity,
                 with_jacobian: bool):
    """Evaluator of the time-dependent field X_s with i_{X_s} omega_s = theta.

    The numerators (the flux of theta) are fixed; only the interpolated
    density eta_s = (1-s) eta0 + s eta1 moves, so X_s and its Jacobian
    follow from one sample by the quotient rule.
    """
    n = theta.dim
    sampler = _FieldSampler(list(theta.flux().components) + [omega0.eta, omega1.eta],
                            with_jacobian)

    def evaluate(s: float, pts: np.ndarray):
        values, grads = sampler(pts)
        es = (1.0 - s) * values[:, n] + s * values[:, n + 1]
        vel = values[:, :n] / es[:, None]
        if grads is None:
            return vel, None
        des = (1.0 - s) * grads[:, n] + s * grads[:, n + 1]
        jac = (grads[:, :n] - vel[:, :, None] * des[:, None, :]) / es[:, None, None]
        return vel, jac

    return evaluate


class MoserFlow:
    """Time-one transport pushing omega0 forward to omega1.

    Calling the object (or `transport`) integrates points from s = 0 to 1;
    `inverse_transport` runs the same nonautonomous field backwards.
    """

    def __init__(self, theta, omega0: VolumeDensity, omega1: VolumeDensity,
                 steps: int):
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.theta = theta
        self.omega0 = omega0
        self.omega1 = omega1
        self.steps = int(steps)

    @property
    def grid(self):
        return self.theta.grid

    def _run(self, points, s0: float, s1: float, jacobian: bool) -> FlowEvaluation:
        evaluator = _moser_field(self.theta, self.omega0, self.omega1, jacobian)
        return _rk4(evaluator, s0, s1, as_points(points, self.grid.dim), self.steps, jacobian)

    def transport(self, points, jacobian: bool = True) -> FlowEvaluation:
        return self._run(points, 0.0, 1.0, jacobian)

    __call__ = transport

    def inverse_transport(self, points, jacobian: bool = True) -> FlowEvaluation:
        return self._run(points, 1.0, 0.0, jacobian)

    def pushforward_density(self) -> VolumeDensity:
        """The transported omega0, for comparison against the target omega1."""
        inverse = self.inverse_transport(self.grid.points())
        return transported_density(self.omega0, inverse)


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
