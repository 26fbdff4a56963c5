"""Closing the loop: pushforward densities (one `transported_density` call
each), finite-difference checks of the prescribed response and of the
deformation derivative, and the transfer-operator invariance test for
expanding circle maps (`dynamics.transfer_check`, listed here).

The finite-difference checks are central in t (order 2) and report a fitted
convergence order from a log-log least-squares over the supplied t values,
discarding points below a round-off noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ConjugatedMap, TorusMap, deformation_derivative, transfer_check
from .fields import ScalarField, VectorFieldT, VolumeDensity, wrap_difference
from .flow import flow_map, flow_maps, transported_density

NOISE_FLOOR = 1e-11
LONE_ERROR_TOL = 1e-9  # the bound on an error that is alone above NOISE_FLOOR
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
    floor, and order_stderr, the standard error of its least-squares slope,
    when fewer than three do.  constant is the measured e(t_min) / t_min^2.

    passed is the verdict: every error at or below NOISE_FLOOR passes; a
    lone error above it passes iff it is <= LONE_ERROR_TOL; otherwise the
    fitted order must lie in ORDER_RANGE.
    """

    t_values: tuple
    errors: tuple
    fitted_order: float | None
    constant: float
    passed: bool
    order_stderr: float | None = None

    def to_json(self) -> dict:
        return {
            "t": list(self.t_values),
            "error": list(self.errors),
            "fitted_order": self.fitted_order,
            "order_stderr": self.order_stderr,
            "constant": self.constant,
            "passed": bool(self.passed),
        }


def _fit_report(t_values, errors) -> ConvergenceReport:
    t = np.asarray(t_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    constant = float(e[-1] / t[-1] ** 2)
    above = e > NOISE_FLOOR
    if above.sum() == 0:
        return ConvergenceReport(tuple(t), tuple(e), None, constant, True)
    tu, eu = t[above], e[above]
    if tu.size < 2:
        # a single error above round-off: no order can be fitted
        passed = bool(eu[0] <= LONE_ERROR_TOL)
        return ConvergenceReport(tuple(t), tuple(e), None, constant, passed)
    x, y = np.log(tu), np.log(eu)
    slope, intercept = (float(c) for c in np.polyfit(x, y, 1))
    stderr = None
    if x.size > 2:
        residuals = y - (intercept + slope * x)
        stderr = float(np.sqrt(np.sum(residuals**2) / (x.size - 2)
                               / np.sum((x - x.mean()) ** 2)))
    passed = ORDER_RANGE[0] <= slope <= ORDER_RANGE[1]
    return ConvergenceReport(tuple(t), tuple(e), slope, constant, passed, stderr)


def pushforward_density(omega: VolumeDensity, X: VectorFieldT, t: float) -> VolumeDensity:
    """Density of phi^t_* omega on the grid:
    eta_t(y) = eta(phi^{-t}(y)) det D phi^{-t}(y), with phi^{-t} = id + D
    read off the grid (`flow_map`), so eta is sampled once."""
    return transported_density(omega, flow_map(X, -t))


def response_check(omega: VolumeDensity, rho: ScalarField, X: VectorFieldT,
                   t_values) -> ConvergenceReport:
    """Check that the pushforward density moves at rate rho * eta:
    e(t) = max |(eta_t - eta_{-t}) / (2 t) - rho eta| should shrink like t^2.
    One `flow_maps` call builds every phi^{+-t} that the pushforwards read."""
    t_values = checked_t_values(t_values)
    flow_maps(X, t_values)

    def eta(t):
        return pushforward_density(omega, X, t).eta.values

    return _central_difference_check(t_values, lambda t: eta(t) - eta(-t),
                                     (rho * omega.eta).values)


def derivative_check(T: TorusMap, X: VectorFieldT, t_values) -> ConvergenceReport:
    """Check -DT(X) + X o T against central differences of the deformed map
    T_t = phi^t o T o phi^{-t}, using shortest-lift differencing on the
    torus.  T_t and T_{-t} share the flow maps of X at t and -t.  One
    `flow_maps` call builds every pair not built yet, and pairs are kept
    per (X, |t|), so after a `response_check` of X at the same t values
    this builds none."""
    t_values = checked_t_values(t_values)
    flow_maps(X, t_values)
    pts = T.grid.points()

    def change(t):
        forward, inverse = flow_maps(X, (t, -t))
        return ConjugatedMap(T, forward, inverse)(pts) - ConjugatedMap(T, inverse, forward)(pts)

    return _central_difference_check(t_values, change,
                                     deformation_derivative(T, X).values_matrix(),
                                     wrap_difference)


def _central_difference_check(t_values, change, target, difference=lambda d: d):
    """Fitted report of e(t) = max |difference(change(t)) / (2 t) - target|,
    with change(t) the difference of a quantity at t and at -t, over
    t values already checked by `checked_t_values`."""
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
