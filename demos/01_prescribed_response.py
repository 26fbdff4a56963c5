"""Walk through the basic construction on the circle.

Goal: the doubling map T(x) = 2x preserves Lebesgue measure.  We want a
one-parameter family of maps T_t, each preserving some density eta_t, so
that at t = 0 the density starts moving at the prescribed rate

    d/dt eta_t |_{t=0} = rho,          rho = cos(2 pi x).

The recipe: find X with div(eta X) = -rho eta, flow along X, and conjugate.
Here eta = 1, and the unique canonical answer is X = -sin(2 pi x)/(2 pi).
"""

import numpy as np

from conjresp import (
    ScalarField,
    TorusGrid,
    VolumeDensity,
    SolutionStrategy,
    lie_derivative_density,
    pushforward_density,
    response_check,
    solve_for_field,
)

grid = TorusGrid(256)
omega = VolumeDensity.lebesgue(grid)
rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])  # cos(2 pi x)

print("solving div(eta X) = -rho eta on a 256-point circle grid")
for strategy in (SolutionStrategy.canonical(), SolutionStrategy.gradient(),
                 SolutionStrategy.custom((0.1,))):
    X = solve_for_field(rho, omega, strategy)
    residual = (lie_derivative_density(X, omega) + rho * omega.eta).max_abs
    print(f"  {strategy.kind:<10} sup|X| = {X.sup_norm:.6f}   "
          f"residual max|div(eta X) + rho eta| = {residual:.2e}")

X = solve_for_field(rho, omega)
x = grid.axis_points(0)
print("\ncanonical X against the closed form -sin(2 pi x)/(2 pi):",
      f"{np.max(np.abs(X.components[0].values + np.sin(2 * np.pi * x) / (2 * np.pi))):.2e}")

# push the density along the flow: eta_t should be 1 + t cos(2 pi x) + O(t^2)
print("\npushforward densities along the flow of X:")
for t in (0.05, 0.01, 0.002):
    eta_t = pushforward_density(omega, X, t)
    deviation = np.max(np.abs(eta_t.eta.values - (1.0 + t * np.cos(2 * np.pi * x))))
    print(f"  t = {t:<6} max|eta_t - (1 + t rho)| = {deviation:.2e}  (~ {deviation / t**2:.2f} t^2)")

report = response_check(omega, rho, X, [1e-2, 5e-3, 2.5e-3])
print(f"\ncentral-difference response check: fitted order {report.fitted_order:.3f}, "
      f"errors {['%.1e' % e for e in report.errors]}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax0, ax1) = plt.subplots(1, 2, figsize=(9, 3.2), constrained_layout=True)
    ax0.plot(x, rho.values, label="rho")
    ax0.plot(x, X.components[0].values, label="X (canonical)")
    ax0.set_xlabel("x")
    ax0.legend()
    ax0.set_title("prescribed response and solution field")
    for t in (0.0, 0.1, 0.25):
        eta_t = pushforward_density(omega, X, t) if t else omega
        ax1.plot(x, eta_t.eta.values, label=f"t = {t}")
    ax1.set_xlabel("x")
    ax1.legend()
    ax1.set_title("density carried by the flow")
    fig.savefig("demo01_prescribed_response.png", dpi=120)
    print("\nwrote demo01_prescribed_response.png")
except ImportError:
    print("\n(matplotlib not available; skipping the figure)")
