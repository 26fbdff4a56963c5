"""Solve the two linear steps behind the density-response construction.

Given a response density rho (zero mean against the invariant density eta)
the goal is a vector field X whose flow changes eta at first-order rate
rho * eta, which on the torus reduces to

    div(eta X) = -(rho eta).

Two algebraic steps produce X:

  1. exactness: find an (n-1)-form theta with d theta = -(rho eta) vol.
     Any zero-mean top form on the torus is exact; the canonical primitive
     here is theta = contraction of the volume element by grad(u) with
     Laplacian u = -(rho eta), which is unique, dimension-uniform and
     spectrally exact.
  2. contraction inversion: solve i_X (eta vol) = theta, a pointwise
     division of the flux of theta (`CoVectorForm.flux`) by eta.

theta is not unique: any closed (n-1)-form may be added.  On the 1-torus the
closed forms are the constants; on the 2-torus they also contain every exact
piece d(alpha) for a 0-form alpha.  `SolutionStrategy` packages that freedom.
A third route (`gradient`) solves the weighted Poisson equation
div(eta grad u) = -(rho eta) and takes X = grad u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NormalizationError
from .fields import (
    CoVectorForm,
    ScalarField,
    TorusGrid,
    VectorFieldT,
    VolumeDensity,
    divergence,
    gradient,
)

MEAN_ZERO_TOL = 1e-10
DEFAULT_POISSON_TOL = 1e-10
POISSON_ITERATIONS_PER_POINT = 10  # CG iteration cap per point of the longest axis

__all__ = [
    "SolutionStrategy",
    "solve_laplace",
    "exact_primitive",
    "solve_exactness",
    "exterior_derivative",
    "add_closed_form",
    "contract",
    "contract_inverse",
    "lie_derivative_density",
    "solve_weighted_poisson",
    "solve_for_field",
    "remove_weighted_mean",
]


@dataclass(frozen=True)
class SolutionStrategy:
    """Which representative of the solution space to return.

    kind      -- "canonical", "gradient" or "custom"
    harmonic  -- constant coefficients of the added harmonic form (custom);
                 one number on the 1-torus, two on the 2-torus
    alpha     -- optional 0-form potential whose exterior derivative is added
                 (2-torus only)
    """

    kind: str
    harmonic: tuple = ()
    alpha: ScalarField | None = None

    @classmethod
    def canonical(cls) -> "SolutionStrategy":
        return cls("canonical")

    @classmethod
    def gradient(cls) -> "SolutionStrategy":
        return cls("gradient")

    @classmethod
    def custom(cls, harmonic=(), alpha: ScalarField | None = None) -> "SolutionStrategy":
        return cls("custom", tuple(float(c) for c in harmonic), alpha)

    def validate_for(self, grid: TorusGrid) -> None:
        if self.kind not in ("canonical", "gradient", "custom"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind != "custom":
            return
        if self.harmonic and len(self.harmonic) != grid.dim:
            raise ValueError(
                f"strategy.custom.harmonic: a custom strategy needs {grid.dim} harmonic "
                f"coefficients, got {len(self.harmonic)}"
            )
        if self.alpha is not None:
            if grid.dim != 2:
                raise ValueError("strategy.custom.alpha_modes: an alpha potential only "
                                 "exists on the 2-torus")
            if self.alpha.grid != grid:
                raise ValueError("alpha potential lives on a different grid")


def solve_laplace(f: ScalarField) -> ScalarField:
    """Zero-mean u with Laplacian u = f, by division with -4 pi^2 |k|^2."""
    if abs(f.mean) > MEAN_ZERO_TOL:
        raise NormalizationError(
            f"Poisson right-hand side must have zero mean, got {f.mean!r}", f.mean
        )
    symbol = f.grid.laplacian_symbol()
    c = np.zeros(f.grid.shape, dtype=complex)
    nonzero = symbol != 0.0
    c[nonzero] = f.coefficients[nonzero] / symbol[nonzero]
    return ScalarField.from_coefficients(f.grid, c)


def exact_primitive(h: ScalarField) -> CoVectorForm:
    """The canonical (n-1)-form theta with d theta = h * (volume element):
    the form whose flux is grad u, for the potential u with Laplacian u = h."""
    return CoVectorForm.from_flux(gradient(solve_laplace(h)))


def weighted_response(rho: ScalarField, omega: VolumeDensity) -> ScalarField:
    """rho * eta, after the gate that every construction needs: the integral
    of rho against the density must vanish."""
    weighted = rho * omega.eta
    if abs(weighted.mean) > MEAN_ZERO_TOL:
        raise NormalizationError(
            "rho violates the mean-zero requirement: its integral against the "
            f"density is {weighted.mean!r} (must vanish; "
            'remove_weighted_mean, or "center": true in the rho section of a '
            "run config, projects it out)",
            weighted.mean,
        )
    return weighted


def solve_exactness(rho: ScalarField, omega: VolumeDensity) -> CoVectorForm:
    """theta with d theta = -(rho eta) vol; requires zero mean of rho eta."""
    return exact_primitive(-weighted_response(rho, omega))


def exterior_derivative(theta: CoVectorForm) -> ScalarField:
    """Density of d theta with respect to the volume element: div of the flux."""
    return divergence(theta.flux())


def add_closed_form(theta: CoVectorForm, strategy: SolutionStrategy) -> CoVectorForm:
    """theta plus the closed form a custom strategy describes; d is unchanged."""
    strategy.validate_for(theta.grid)
    if strategy.kind != "custom":
        return theta
    harmonic = strategy.harmonic or (0.0,) * theta.dim
    parts = [c + h for c, h in zip(theta.components, harmonic)]
    if strategy.alpha is not None:
        parts = [p + strategy.alpha.derivative(i) for i, p in enumerate(parts)]
    return CoVectorForm(parts)


def contract(X: VectorFieldT, omega: VolumeDensity) -> CoVectorForm:
    """The contraction i_X (eta vol): the form whose flux is eta X."""
    return CoVectorForm.from_flux(
        VectorFieldT([omega.eta * c for c in X.components])
    )


def contract_inverse(theta: CoVectorForm, omega: VolumeDensity) -> VectorFieldT:
    """The unique X with i_X (eta vol) = theta: the flux of theta divided by
    eta, a quotient that raises PositivityError unless eta > 0 on the grid."""
    return VectorFieldT([c / omega.eta for c in theta.flux().components])


def lie_derivative_density(X: VectorFieldT, omega: VolumeDensity) -> ScalarField:
    """Density of the Lie derivative of the volume form along X, which by
    Cartan's formula is d i_X (eta vol) = div(eta X).

    A correct solution field satisfies div(eta X) = -(rho eta); this is the
    residual oracle used throughout the tests.
    """
    return exterior_derivative(contract(X, omega))


def remove_weighted_mean(rho: ScalarField, omega: VolumeDensity) -> ScalarField:
    """Subtract the eta-weighted mean so the zero-integral gate passes."""
    shift = (rho * omega.eta).mean / omega.eta.mean
    return rho - shift


def solve_weighted_poisson(
    omega: VolumeDensity,
    g: ScalarField,
    tol: float = DEFAULT_POISSON_TOL,
) -> ScalarField:
    """Zero-mean u with div(eta grad u) = g, for zero-mean g.

    Preconditioned conjugate gradients on the (negated) operator, which is
    symmetric positive definite on zero-mean fields; the constant-coefficient
    inverse Laplacian is the preconditioner.  Stops when the sup-norm
    residual drops below tol * max|g|, or stalls after
    POISSON_ITERATIONS_PER_POINT * max(N) iterations.  Nyquist content of g
    lies in the kernel of the discretized operator and is projected out.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if abs(g.mean) > MEAN_ZERO_TOL:
        raise NormalizationError(
            f"weighted Poisson right-hand side must have zero mean, got {g.mean!r}",
            g.mean,
        )
    grid = g.grid
    if g.max_abs == 0.0:
        return ScalarField.constant(grid, 0.0)

    eta = omega.eta.values
    symbols = [grid.derivative_symbol(axis) for axis in range(grid.dim)]
    lap = grid.laplacian_symbol()
    inv_neg_lap = np.zeros(grid.shape)
    nonzero = lap != 0.0
    inv_neg_lap[nonzero] = 1.0 / (-lap[nonzero])

    def neg_operator(u: np.ndarray) -> np.ndarray:
        """-div(eta grad u), SPD on zero-mean fields."""
        uc = np.fft.fftn(u)
        out = np.zeros(grid.shape)
        for s in symbols:
            flux = eta * np.fft.ifftn(s * uc).real
            out -= np.fft.ifftn(s * np.fft.fftn(flux)).real
        return out

    def precondition(r: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(inv_neg_lap * np.fft.fftn(r)).real

    b_hat = np.fft.fftn(-g.values)
    for axis, n in enumerate(grid.resolution):
        b_hat[(slice(None),) * axis + (n // 2,)] = 0.0
    b = np.fft.ifftn(b_hat).real
    scale = float(np.max(np.abs(b)))
    cap = POISSON_ITERATIONS_PER_POINT * max(grid.resolution)

    x = np.zeros(grid.shape)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    best_x = x.copy()
    best_residual = float(np.max(np.abs(r)))
    iterations = cap
    for iteration in range(1, cap + 1):
        Ap = neg_operator(p)
        curvature = float(np.vdot(p, Ap).real)
        if curvature <= 0.0 or not np.isfinite(curvature):
            # search direction exhausted (round-off floor reached)
            iterations = iteration
            break
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * Ap
        residual = float(np.max(np.abs(r)))
        if residual < best_residual:
            best_residual = residual
            best_x = x.copy()
        if residual <= tol * scale:
            x -= x.mean()
            return ScalarField(grid, x)
        z = precondition(r)
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    # the recurrence residual drifts once round-off is reached; report the
    # true residual of the best iterate
    achieved = float(np.max(np.abs(neg_operator(best_x) - b)))
    raise ConvergenceError(
        f"weighted Poisson solve stalled after {iterations} iterations; achieved "
        f"relative sup residual {achieved / scale:.3e} (target {tol:.3e})",
        achieved / scale,
        iterations,
    )


def solve_potential(
    rho: ScalarField,
    omega: VolumeDensity,
    strategy: SolutionStrategy,
) -> tuple[ScalarField | CoVectorForm, VectorFieldT]:
    """The strategy's potential and the vector field X it gives, with
    div(eta X) = -(rho eta):

    canonical -- theta, the canonical exact primitive, and X = contract_inverse(theta);
    gradient  -- u from the weighted Poisson equation, and X = grad u;
    custom    -- canonical theta plus the strategy's closed form, and its contract_inverse.
    """
    strategy.validate_for(rho.grid)
    if strategy.kind == "gradient":
        u = solve_weighted_poisson(omega, -weighted_response(rho, omega))
        return u, gradient(u)
    theta = add_closed_form(solve_exactness(rho, omega), strategy)
    return theta, contract_inverse(theta, omega)


def solve_for_field(
    rho: ScalarField,
    omega: VolumeDensity,
    strategy: SolutionStrategy | None = None,
) -> VectorFieldT:
    """End-to-end: a vector field X with div(eta X) = -(rho eta), built as
    `solve_potential` describes (canonical strategy by default)."""
    strategy = strategy if strategy is not None else SolutionStrategy.canonical()
    return solve_potential(rho, omega, strategy)[1]
