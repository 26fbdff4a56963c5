"""Self-maps of the torus, their conjugate deformations, and the
first-order deformation derivative.

A map is stored as an integer linear part plus a periodic displacement,
T(x) = A x + g(x) mod 1 -- the normal form any continuous torus map's lift
forces -- together with an invariant density.  Integer-linear maps with a
flat density are certified exactly; other expanding circle maps carry a
runtime invariance certificate (a transfer-operator residual); everything
else is accepted on trust and flagged uncertified.

Deforming by the flow of a field X gives the conjugate family
T_t = phi^t o T o phi^{-t}; its t-derivative at 0 is the section
-DT(X) + X o T, representable as a plain vector field thanks to the torus
parallelism.  The invariance defect DT(V) - V o T measures how far a
candidate field V is from being T-invariant, which is exactly the kernel of
the map from conjugating fields to deformation derivatives.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, ExpansionError
from .fields import (
    ScalarField,
    TorusGrid,
    VectorFieldT,
    VolumeDensity,
    as_points,
)
from .flow import FieldStack, flow_map

BISECTION_ITERATIONS = 60
EXPANSION_MARGIN = 0.01
CERTIFICATE_RESOLUTION = 256
CERTIFICATE_TOL = 1e-6
EXPANSION_SAMPLES = 4096  # points at which the expansion margin samples F'
WARP_CONSTRUCTION_STEPS = 128  # RK4 steps of the warped-doubling flow pair

__all__ = [
    "TorusMap",
    "make_linear",
    "make_warped_doubling",
    "DeformedMap",
    "ConjugatedMap",
    "deformation_derivative",
    "invariance_defect",
]


class TorusMap:
    """Smooth torus self-map A x + g(x) mod 1 with an invariant density
    (default Lebesgue).  Invariance is certified exactly (residual 0.0) when
    g = 0 and the density is flat, by a transfer residual <= CERTIFICATE_TOL
    on any other expanding circle map (ConstructionError above it), and
    not at all otherwise (``certified`` False)."""

    def __init__(self, grid: TorusGrid, matrix, displacement: VectorFieldT | None = None,
                 density: VolumeDensity | None = None):
        matrix = np.asarray(matrix)
        if matrix.shape != (grid.dim, grid.dim):
            raise ValueError(f"linear part must be {grid.dim}x{grid.dim}, got {matrix.shape}")
        if not (np.issubdtype(matrix.dtype, np.number)
                and np.array_equal(matrix, np.round(matrix))):
            raise ValueError("linear part must be an integer matrix")
        matrix = matrix.astype(int)
        if round(abs(float(np.linalg.det(matrix)))) == 0:
            raise ValueError("linear part is degenerate (determinant 0)")
        if displacement is not None and displacement.grid != grid:
            raise ValueError("displacement lives on a different grid")
        if density is not None and density.grid != grid:
            raise ValueError("density lives on a different grid")
        self.grid = grid
        self.matrix = matrix
        self.displacement = displacement if displacement is not None else VectorFieldT.zero(grid)
        self.density = density if density is not None else VolumeDensity.lebesgue(grid)
        # g and its gradient, sampled together; None when g = 0
        self._stack = (FieldStack.of(self.displacement.components)
                       if self.displacement.sup_norm > 0.0 else None)
        self._expansion_margin = None
        self.certified = False
        self.certificate_residual = None
        if self._stack is None and np.all(self.density.eta.values == 1.0):
            self.certified = True
            self.certificate_residual = 0.0
        elif self.expanding:
            from .verify import transfer_check  # deferred: verify sits above dynamics

            residual = transfer_check(self, self.density, CERTIFICATE_RESOLUTION)
            if residual > CERTIFICATE_TOL:
                raise ConstructionError(
                    "the provided density is not invariant: transfer residual "
                    f"{residual:.3e} exceeds {CERTIFICATE_TOL:.0e}",
                    residual,
                )
            self.certified = True
            self.certificate_residual = residual

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def degree(self) -> int:
        if self.dim != 1:
            raise ValueError("degree is only defined here for circle maps")
        return int(self.matrix[0, 0])

    def lift(self, points) -> np.ndarray:
        """Lift values A x + g(x) without reduction mod 1."""
        pts = as_points(points, self.dim)
        out = pts @ self.matrix.T.astype(float)
        if self._stack is not None:
            out = out + self._stack(pts, gradients=False)[0]
        return out

    def __call__(self, points) -> np.ndarray:
        return self.lift(points) % 1.0

    def jacobian(self, points) -> np.ndarray:
        """DT = A + Dg at points, shape (M, n, n), read off the grid at its points."""
        pts = as_points(points, self.dim)
        if self._stack is None:
            return np.tile(self.matrix.astype(float), (pts.shape[0], 1, 1))
        return self.matrix + self._stack(pts)[1]

    def expansion_margin(self) -> float:
        """min |F'| - 1 over a fine sample of the lift derivative F' of a
        circle map; negative (or -inf if F' changes sign) means not expanding."""
        if self.dim != 1:
            raise ValueError("expansion margin is only defined for circle maps")
        if self._expansion_margin is None:
            x = np.linspace(0.0, 1.0, EXPANSION_SAMPLES, endpoint=False).reshape(-1, 1)
            deriv = self.jacobian(x)[:, 0, 0]
            if deriv.min() * deriv.max() <= 0.0:
                self._expansion_margin = -np.inf
            else:
                self._expansion_margin = float(np.min(np.abs(deriv))) - 1.0
        return self._expansion_margin

    @property
    def expanding(self) -> bool:
        """A circle map with min |F'| - 1 >= EXPANSION_MARGIN: the one rule
        for preimage enumeration, the construction certificate and the CLI's
        transfer checks."""
        return self.dim == 1 and self.expansion_margin() >= EXPANSION_MARGIN

    def preimages_with_derivative(self, y):
        """All |degree| preimages in [0, 1) of circle points under an
        expanding map, with the lift derivative there; shapes (d, M).

        Branch inversion runs a 60-iteration bisection per monotone branch of
        the lift, vectorized over targets.
        """
        if self.dim != 1:
            raise ValueError("preimage enumeration is only implemented for circle maps")
        if not self.expanding:
            raise ExpansionError(
                "preimage enumeration needs a uniformly expanding lift; "
                f"min |F'| - 1 = {self.expansion_margin():.3g} < {EXPANSION_MARGIN}"
            )
        y = as_points(y, 1)[:, 0] % 1.0
        z = _branch_bisection(lambda v: self.lift(v)[:, 0], abs(self.degree), y)
        deriv = self.jacobian(z.reshape(-1, 1))[:, 0, 0].reshape(z.shape)
        return z % 1.0, deriv


def _branch_bisection(lift_fn, branches: int, targets_mod1: np.ndarray) -> np.ndarray:
    """Solve F(z) = y (mod 1) on [0, 1] for a strictly monotone lift F of an
    expanding circle map with |degree| = branches."""
    m = targets_mod1.shape[0]
    ends = lift_fn(np.array([0.0, 1.0]))
    f0, f1 = float(ends[0]), float(ends[1])
    increasing = f1 > f0
    fmin = min(f0, f1)
    first = np.ceil(fmin - targets_mod1)
    targets = targets_mod1[None, :] + first[None, :] + np.arange(branches)[:, None]
    lo = np.zeros((branches, m))
    hi = np.ones((branches, m))
    for _ in range(BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        fm = lift_fn(mid.ravel()).reshape(branches, m)
        right = fm < targets if increasing else fm > targets
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def make_linear(matrix, grid: TorusGrid) -> TorusMap:
    """Integer-linear torus map; Lebesgue is invariant.  The single-entry
    matrix [[2]] is the circle doubling map, [[2, 1], [1, 1]] the cat map,
    and [[1]] the (degenerate) identity."""
    return TorusMap(grid, matrix)


def make_warped_doubling(generator: VectorFieldT) -> TorusMap:
    """Doubling map conjugated by the time-one flow h of the generator:
    T = h o D o h^{-1}, whose invariant density is the derivative of h^{-1}
    (the pushforward of Lebesgue by h), positive by construction.

    The returned map carries the invariance certificate; construction fails
    if the transfer residual exceeds the certificate tolerance.
    """
    grid = generator.grid
    if grid.dim != 1:
        raise ValueError("warped doubling is a circle-map construction")
    forward = flow_map(generator, 1.0, steps=WARP_CONSTRUCTION_STEPS)
    backward = flow_map(generator, -1.0, steps=WARP_CONSTRUCTION_STEPS).on_grid()
    eta_values = backward.jacobians[:, 0, 0]
    eta_values = eta_values / eta_values.mean()
    doubled = 2.0 * backward.lifts
    t_lift = forward(doubled, jacobian=False).lifts[:, 0]
    g_values = t_lift - 2.0 * grid.points()[:, 0]
    displacement = VectorFieldT([ScalarField(grid, g_values.reshape(grid.shape))])
    density = VolumeDensity(ScalarField(grid, eta_values.reshape(grid.shape)))
    return TorusMap(grid, [[2]], displacement, density)


class ConjugatedMap:
    """h o T o h^{-1} for a diffeomorphism h given as a pair of transports
    (for example a Moser time-one flow and its inverse, or the flow maps of
    a field at times t and -t)."""

    def __init__(self, base: TorusMap, forward, inverse):
        self.base = base
        self.forward = forward
        self.inverse = inverse

    def __call__(self, points) -> np.ndarray:
        down = self.inverse(as_points(points, self.base.dim), jacobian=False)
        return self.forward(self.base(down.points), jacobian=False).points

    def lift(self, points) -> np.ndarray:
        down = self.inverse(as_points(points, self.base.dim), jacobian=False)
        return self.forward(self.base.lift(down.lifts), jacobian=False).lifts

    @property
    def degree(self) -> int:
        return self.base.degree

    def preimages_with_derivative(self, y):
        """Preimages through the conjugacy: pull y back by h, enumerate base
        preimages there, push forward by h.  The derivative at a preimage
        follows from the chain rule,
        (h o T o h^{-1})'(z_j) = T'(w_j) / (Dh^{-1}(y) * Dh(w_j))."""
        y = as_points(y, 1)
        down = self.inverse(y, jacobian=True)
        j_down = down.jacobians[:, 0, 0]
        w, base_deriv = self.base.preimages_with_derivative(down.points[:, 0])
        up = self.forward(w.reshape(-1, 1), jacobian=True)
        pre = up.points[:, 0].reshape(w.shape)
        j_up = up.jacobians[:, 0, 0].reshape(w.shape)
        deriv = base_deriv / (j_down[None, :] * j_up)
        return pre, deriv


class DeformedMap(ConjugatedMap):
    """The conjugated family T_t = phi^t o T o phi^{-t} for a fixed field:
    the ConjugatedMap of the flow maps of X at times t and -t (`flow_map`;
    ``steps`` is a lower bound on their RK4 substeps).  At the grid points
    phi^{-t} is read off the grid.

    At t = 0 both flow maps are the zero displacement, so `lift`, the
    preimage derivatives and the call at points in [0, 1) equal the base
    map's bit for bit, and the preimages equal the base's reduced mod 1.
    Elsewhere the call reduces a point before applying T, so it agrees with
    T only to rounding.
    """

    def __init__(self, base: TorusMap, field: VectorFieldT, t: float,
                 steps: int | None = None):
        if base.grid != field.grid:
            raise ValueError("map and field live on different grids")
        super().__init__(base, flow_map(field, t, steps), flow_map(field, -t, steps))

    # bench/tracing.py looks these three up in this class's own namespace
    __call__ = ConjugatedMap.__call__
    lift = ConjugatedMap.lift
    preimages_with_derivative = ConjugatedMap.preimages_with_derivative


def deformation_derivative(T: TorusMap, X: VectorFieldT) -> VectorFieldT:
    """The t-derivative at 0 of phi^t o T o phi^{-t}: -DT(X) + X o T,
    returned as a vector-valued function of the source point."""
    if T.grid != X.grid:
        raise ValueError("map and field live on different grids")
    grid = T.grid
    pts = grid.points()
    pushed = -np.einsum("mij,mj->mi", T.jacobian(pts), X.values_matrix())
    pulled = X.sample(T(pts))
    vals = pushed + pulled
    return VectorFieldT.from_arrays(
        grid, [vals[:, i].reshape(grid.shape) for i in range(grid.dim)]
    )


def invariance_defect(T: TorusMap, V: VectorFieldT):
    """Pointwise magnitude and sup of DT(V)(x) - V(T(x)), the deformation
    derivative of V up to sign; the sup vanishes exactly when V is
    T-invariant."""
    defect = deformation_derivative(T, V).values_matrix()
    magnitude = np.sqrt((defect**2).sum(axis=1))
    field = ScalarField(T.grid, magnitude.reshape(T.grid.shape))
    return field, float(magnitude.max())
