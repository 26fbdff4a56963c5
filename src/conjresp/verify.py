"""Closing the loop: pushforward densities, finite-difference checks of the
prescribed response and of the deformation derivative, and the
transfer-operator invariance test for expanding circle maps.

The finite-difference checks are central in t (order 2) and report a fitted
convergence order from a log-log least-squares over the supplied t values,
discarding points below a round-off noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ConjugatedMap, TorusMap, deformation_derivative
from .fields import ScalarField, TorusGrid, VectorFieldT, VolumeDensity, multiply, wrap_difference
from .flow import flow_map, transported_density

NOISE_FLOOR = 1e-11
ORDER_RANGE = (1.8, 2.3)

__all__ = [
    "ConvergenceReport",
    "pushforward_density",
    "response_check",
    "derivative_check",
    "transfer_check",
]


@dataclass
class ConvergenceReport:
    """Per-t errors of a central-difference check and the fitted order.

    fitted_order is None when fewer than two errors sit above the noise
    floor; floor_reached records that the fit ran on a degraded sample
    (round-off reached, or errors non-monotone in t).  constant is the
    measured e(t_min) / t_min^2.
    """

    t_values: tuple
    errors: tuple
    fitted_order: float | None
    constant: float
    passed: bool
    floor_reached: bool = False

    def to_json(self) -> dict:
        return {
            "t": list(self.t_values),
            "error": list(self.errors),
            "fitted_order": self.fitted_order,
            "constant": self.constant,
            "passed": bool(self.passed),
        }


def _fit_report(t_values, errors) -> ConvergenceReport:
    t = np.asarray(t_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    constant = float(e[-1] / t[-1] ** 2)
    above = e > NOISE_FLOOR
    floor = bool((~above).any())
    if above.sum() == 0:
        return ConvergenceReport(tuple(t), tuple(e), None, constant, True, True)
    tu, eu = t[above], e[above]
    monotone = bool(np.all(np.diff(eu) < 0)) if tu.size > 1 else True
    if not monotone:
        floor = True
    if tu.size < 2:
        # a single error above round-off: no order can be fitted
        passed = bool(eu[0] <= 1e-9)
        return ConvergenceReport(tuple(t), tuple(e), None, constant, passed, True)
    slope = float(np.polyfit(np.log(tu), np.log(eu), 1)[0])
    passed = ORDER_RANGE[0] <= slope <= ORDER_RANGE[1]
    return ConvergenceReport(tuple(t), tuple(e), slope, constant, passed, floor)


def pushforward_density(omega: VolumeDensity, X: VectorFieldT, t: float,
                        steps: int | None = None) -> VolumeDensity:
    """Density of phi^t_* omega on the grid:
    eta_t(y) = eta(phi^{-t}(y)) det D phi^{-t}(y), with phi^{-t} = id + D
    read off the grid (`flow_map`), so eta is sampled once.  ``steps`` is a
    lower bound on the flow map's RK4 substeps."""
    inverse = flow_map(X, -t, steps=steps).on_grid()
    return transported_density(omega, inverse)


def response_check(omega: VolumeDensity, rho: ScalarField, X: VectorFieldT,
                   t_values, steps: int | None = None) -> ConvergenceReport:
    """Check that the pushforward density moves at rate rho * eta:
    e(t) = max |(eta_t - eta_{-t}) / (2 t) - rho eta| should shrink like t^2."""
    def eta(t):
        return pushforward_density(omega, X, t, steps=steps).eta.values

    return _central_difference_check(t_values, lambda t: eta(t) - eta(-t),
                                     multiply(rho, omega.eta).values)


def derivative_check(T: TorusMap, X: VectorFieldT, t_values,
                     steps: int | None = None) -> ConvergenceReport:
    """Check -DT(X) + X o T against central differences of the deformed map
    T_t = phi^t o T o phi^{-t}, using shortest-lift differencing on the
    torus.  T_t and T_{-t} share the flow maps of X at t and -t, and
    `flow_map` builds each pair once per (X, |t|, steps), so after a
    `response_check` of X at the same t values and steps this builds none."""
    pts = T.grid.points()

    def change(t):
        forward, inverse = flow_map(X, t, steps), flow_map(X, -t, steps)
        return ConjugatedMap(T, forward, inverse)(pts) - ConjugatedMap(T, inverse, forward)(pts)

    return _central_difference_check(t_values, change,
                                     deformation_derivative(T, X).values_matrix(),
                                     wrap_difference)


def _central_difference_check(t_values, change, target, difference=lambda d: d):
    """Fitted report of e(t) = max |difference(change(t)) / (2 t) - target|,
    with change(t) the difference of a quantity at t and at -t."""
    t_values = checked_t_values(t_values)
    errors = [float(np.max(np.abs(difference(change(t)) / (2.0 * t) - target)))
              for t in t_values]
    return _fit_report(t_values, errors)


def checked_t_values(t_values) -> tuple:
    ts = tuple(float(t) for t in t_values)
    if not ts:
        raise ValueError("at least one t value is required")
    if any(t <= 0.0 for t in ts):
        raise ValueError(f"t values must be positive, got {ts}")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError(f"t values must be strictly decreasing, got {ts}")
    return ts


def transfer_check(T_t, eta_t: VolumeDensity, resolution: int) -> float:
    """Sup-norm transfer-operator residual of eta_t under an expanding circle
    map (possibly deformed): max_y | sum_{z in T^{-1}(y)} eta(z)/|T'(z)| - eta(y) |.

    T_t is a TorusMap or a ConjugatedMap (a DeformedMap is one); its
    `preimages_with_derivative` enforces the expansion precondition.
    """
    y = TorusGrid((int(resolution),)).axis_points(0)
    pre, deriv = T_t.preimages_with_derivative(y)
    dens = eta_t.eta
    contributions = dens.sample(pre.ravel()) / np.abs(deriv.ravel())
    lhs = contributions.reshape(pre.shape).sum(axis=0)
    rhs = dens.sample(y)
    return float(np.max(np.abs(lhs - rhs)))
