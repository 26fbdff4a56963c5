"""Deform the doubling map and watch the first-order law.

T_t = phi^t o T o phi^{-t} is smoothly conjugate to T for every t, stays
degree 2, preserves the transported density eta_t, and its t-derivative at
zero is -DT(X) + X o T.  All four claims are checked numerically here.
"""

import numpy as np

from conjresp import (
    ConjugatedMap,
    ScalarField,
    TorusGrid,
    TorusMap,
    VolumeDensity,
    deformation_derivative,
    derivative_check,
    pushforward_density,
    solve_for_field,
    transfer_check,
    wrap_difference,
)
from conjresp.flow import flow_maps

grid = TorusGrid(256)
omega = VolumeDensity.lebesgue(grid)
rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
X = solve_for_field(rho, omega)
T = TorusMap(grid, [[2]])

tdot = deformation_derivative(T, X)
x = grid.axis_points(0)
closed_form = np.sin(2 * np.pi * x) / np.pi - np.sin(4 * np.pi * x) / (2 * np.pi)
print("deformation derivative vs hand formula -2X(x) + X(2x):",
      f"{np.max(np.abs(tdot.components[0].values - closed_form)):.2e}")

print("\nfinite differences of the deformed family against the derivative:")
pts = grid.points()
for t in (2e-2, 1e-2, 5e-3):
    plus = ConjugatedMap(T, *flow_maps(X, (t, -t), 16))(pts)
    minus = ConjugatedMap(T, *flow_maps(X, (-t, t), 16))(pts)
    fd = wrap_difference(plus - minus) / (2 * t)
    err = np.max(np.abs(fd - tdot.values_matrix()))
    print(f"  t = {t:<6} max|(T_t - T_-t)/2t - Tdot| = {err:.2e}")

report = derivative_check(T, X, [1e-2, 5e-3, 2.5e-3], steps=16)
print(f"fitted convergence order: {report.fitted_order:.3f}")

print("\ndegree of the lift stays 2 under deformation:")
D = ConjugatedMap(T, *flow_maps(X, (0.05, -0.05), 64))
ends = D.lift(np.array([[0.0], [1.0]]))
print(f"  lift(1) - lift(0) = {ends[1, 0] - ends[0, 0]:.12f}")

print("\nT_t preserves the transported density (transfer-operator residual):")
for t in (0.0, 0.01, 0.02):
    eta_t = pushforward_density(omega, X, t, steps=32)
    residual = transfer_check(ConjugatedMap(T, *flow_maps(X, (t, -t), 32)), eta_t, 512)
    print(f"  t = {t:<5} residual = {residual:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(4.8, 4.2), constrained_layout=True)
    xs = np.linspace(0, 1, 512, endpoint=False).reshape(-1, 1)
    ax.plot(xs, T(xs), ".", ms=1, label="T")
    big = ConjugatedMap(T, *flow_maps(X, (0.4, -0.4), 64))
    ax.plot(xs, big(xs), ".", ms=1, label="T_t, t = 0.4")
    ax.set_xlabel("x")
    ax.set_ylabel("map value")
    ax.legend(markerscale=8)
    ax.set_title("doubling map and a conjugate deformation")
    fig.savefig("demo02_deformed_doubling.png", dpi=120)
    print("\nwrote demo02_deformed_doubling.png")
except ImportError:
    print("\n(matplotlib not available; skipping the figure)")
