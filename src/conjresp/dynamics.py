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
    mod1,
)
from .flow import FieldStack, flow_maps, transported_density

NEWTON_ITERATIONS = 60  # cap on a preimage solve: bisection's 2^-60 worst case
NEWTON_TOL = 4 * np.finfo(float).eps  # largest last step of a finished preimage solve
EXPANSION_MARGIN = 0.01
CERTIFICATE_RESOLUTION = 256
CERTIFICATE_TOL = 1e-6
EXPANSION_SAMPLES = 4096  # points at which the expansion margin samples F'

__all__ = [
    "TorusMap",
    "make_warped_doubling",
    "ConjugatedMap",
    "deformation_derivative",
    "invariance_defect",
]


class TorusMap:
    """Smooth torus self-map A x + g(x) mod 1 with an invariant density
    (default Lebesgue).  Invariance is certified exactly (residual 0.0) when
    g = 0 and the density is flat, by a transfer residual <= CERTIFICATE_TOL
    on any other expanding circle map (ConstructionError above it), and
    not at all otherwise (``certified`` False).  With g = 0 the map is
    integer-linear: [[2]] is the circle doubling map, [[2, 1], [1, 1]] the
    cat map."""

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
        return mod1(self.lift(points))

    def jacobian(self, points) -> np.ndarray:
        """DT = A + Dg at points, shape (M, n, n), read off the grid at its points."""
        pts = as_points(points, self.dim)
        if self._stack is None:
            return np.tile(self.matrix.astype(float), (pts.shape[0], 1, 1))
        return self.matrix + self._stack(pts, values=False)[1]

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

        Each monotone branch of the lift F is inverted by safeguarded,
        bracketed Newton (`_branch_newton`), vectorized over targets; F' at
        the roots comes from one `jacobian` call.
        """
        if self.dim != 1:
            raise ValueError("preimage enumeration is only implemented for circle maps")
        if not self.expanding:
            raise ExpansionError(
                "preimage enumeration needs a uniformly expanding lift; "
                f"min |F'| - 1 = {self.expansion_margin():.3g} < {EXPANSION_MARGIN}"
            )
        y = as_points(y, 1)[:, 0] % 1.0
        z = _branch_newton(self._lift_with_derivative, self.lift(np.array([0.0, 1.0]))[:, 0],
                           abs(self.degree), y)
        deriv = self.jacobian(z.reshape(-1, 1))[:, 0, 0].reshape(z.shape)
        return z % 1.0, deriv

    def _lift_with_derivative(self, z: np.ndarray):
        """F(z) and F'(z) of a circle map's lift at the points z, from one
        `FieldStack` call."""
        degree = float(self.degree)
        if self._stack is None:
            return degree * z, np.full_like(z, degree)
        values, grads = self._stack(z.reshape(-1, 1))
        return degree * z + values[:, 0], degree + grads[:, 0, 0]


def _branch_newton(lift_with_derivative, ends: np.ndarray, branches: int,
                   targets_mod1: np.ndarray) -> np.ndarray:
    """Solve F(z) = y (mod 1) on [0, 1] for a strictly monotone lift F of an
    expanding circle map with |degree| = branches, given F(0), F(1) in
    ``ends``: one root per branch and target, shape (branches, M).

    Safeguarded Newton (rtsafe, Numerical Recipes 9.4): each root keeps a
    bracket, starts from the chord of the lift over [0, 1], and bisects
    instead of a Newton step that would leave the bracket or be more than
    half the step before last.  A root is done, and not evaluated again,
    once its step is at most NEWTON_TOL; the rest stop after
    NEWTON_ITERATIONS, bisection's worst case.
    """
    f0, f1 = float(ends[0]), float(ends[1])
    sign = 1.0 if f1 > f0 else -1.0  # sign * (F - target) increases in z
    first = np.ceil(min(f0, f1) - targets_mod1)
    targets = (targets_mod1[None, :] + first[None, :] + np.arange(branches)[:, None]).ravel()
    z = np.clip((targets - f0) / (f1 - f0), 0.0, 1.0)
    lo, hi = np.zeros_like(z), np.ones_like(z)
    step, before = np.ones_like(z), np.ones_like(z)  # the last two steps
    active = np.arange(z.size)
    for _ in range(NEWTON_ITERATIONS):
        at, a, b = z[active], lo[active], hi[active]
        value, slope = lift_with_derivative(at)
        residual = sign * (value - targets[active])
        slope = np.abs(slope)
        a, b = np.where(residual < 0.0, at, a), np.where(residual < 0.0, b, at)
        newton = at - residual / slope
        slow = np.abs(2.0 * residual) > np.abs(before[active] * slope)
        bisect = (np.abs(newton - at) > NEWTON_TOL) & ((newton <= a) | (newton >= b) | slow)
        # a step within NEWTON_TOL may cross a bracket end by rounding: clip it
        z[active] = np.where(bisect, 0.5 * (a + b), np.clip(newton, a, b))
        lo[active], hi[active] = a, b
        before[active], step[active] = step[active], z[active] - at
        active = active[np.abs(step[active]) > NEWTON_TOL]
        if active.size == 0:
            break
    return z.reshape(branches, -1)


def transfer_check(T_t, eta_t: VolumeDensity, resolution: int) -> float:
    """Sup-norm transfer-operator residual of eta_t under an expanding circle
    map (possibly deformed): max_y | sum_{z in T^{-1}(y)} eta(z)/|T'(z)| - eta(y) |.

    T_t is a TorusMap or a ConjugatedMap, such as the deformed map
    ConjugatedMap(T, *flow_maps(X, (t, -t))); its
    `preimages_with_derivative` enforces the expansion precondition.
    """
    y = TorusGrid((resolution,)).axis_points(0)
    pre, deriv = T_t.preimages_with_derivative(y)
    dens = eta_t.eta
    contributions = dens.sample(pre.ravel()) / np.abs(deriv.ravel())
    lhs = contributions.reshape(pre.shape).sum(axis=0)
    rhs = dens.sample(y)
    return float(np.max(np.abs(lhs - rhs)))


def make_warped_doubling(generator: VectorFieldT) -> TorusMap:
    """Doubling map D conjugated by the time-one flow h of the generator:
    T = h o D o h^{-1} (`ConjugatedMap`, with h^{+-1} the generator's
    `flow_maps` at times 1 and -1, factored by the rule of every flow map),
    whose invariant density is the pushforward of Lebesgue by h
    (`transported_density`, so an under-resolved one raises QualityError).
    The map carries the invariance certificate.  The program built that
    density, so a transfer residual above CERTIFICATE_TOL means the grid
    under-resolves the construction: the ConstructionError names N, the
    residual, and says to raise N.
    """
    grid = generator.grid
    if grid.dim != 1:
        raise ValueError("warped doubling is a circle-map construction")
    forward, inverse = flow_maps(generator, (1.0, -1.0))
    density = transported_density(VolumeDensity.lebesgue(grid), inverse)
    x = grid.points()
    g_values = ConjugatedMap(TorusMap(grid, [[2]]), forward, inverse).lift(x) - 2.0 * x
    displacement = VectorFieldT([ScalarField(grid, g_values.reshape(grid.shape))])
    try:
        return TorusMap(grid, [[2]], displacement, density)
    except ConstructionError as exc:
        raise ConstructionError(
            f"warped doubling map under-resolved at N = {grid.resolution[0]}: transfer "
            f"residual {exc.residual:.3e} exceeds {CERTIFICATE_TOL:.0e}; raise N",
            exc.residual,
        ) from exc


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
    """Removed: T_t = phi^t o T o phi^{-t} is
    ConjugatedMap(T, *flow_maps(X, (t, -t))).  The class keeps only the
    three method aliases that bench/tracing.py looks up in its own namespace."""

    def __init__(self, *args, **kwargs):
        raise TypeError("DeformedMap is removed: use "
                        "ConjugatedMap(T, *flow_maps(X, (t, -t)))")

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
