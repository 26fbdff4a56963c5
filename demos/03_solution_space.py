"""The solution field is not unique, but the response is.

Any closed (n-1)-form may be added to the primitive before inverting the
contraction: a constant on the circle; constants plus any exact piece
d(alpha) on the 2-torus.  Different choices give visibly different fields X
whose flows all move the density at the same first-order rate.  For an
expanding map the deformation derivatives genuinely differ (constants have
invariance defect |c|), so the family of deformations is genuinely larger.
"""

import numpy as np

from conjresp import (
    ScalarField,
    SolutionStrategy,
    TorusGrid,
    TorusMap,
    VolumeDensity,
    deformation_derivative,
    invariance_defect,
    response_check,
    solve_for_field,
)

grid = TorusGrid(256)
omega = VolumeDensity.lebesgue(grid)
rho = ScalarField.from_modes(grid, [[1, 1.0, 0.0]])
T = TorusMap(grid, [[2]])

X = solve_for_field(rho, omega)
strategies = {
    "canonical": SolutionStrategy.canonical(),
    "gradient": SolutionStrategy.gradient(),
    "custom c=0.1": SolutionStrategy.custom((0.1,)),
    "custom c=-0.3": SolutionStrategy.custom((-0.3,)),
}
print("same response, different fields (all orders fit ~2):")
for label, strategy in strategies.items():
    Y = solve_for_field(rho, omega, strategy)
    rep = response_check(omega, rho, Y, [1e-2, 5e-3, 2.5e-3], steps=16)
    shift = np.max(np.abs(Y.components[0].values - X.components[0].values))
    print(f"  {label:<14} |Y - X|_sup = {shift:.3f}   order {rep.fitted_order:.2f}   "
          f"e(t_min) {rep.errors[-1]:.1e}")

print("\nfor the doubling map the deformation derivatives differ:")
for c in (0.1, -0.3):
    Y = solve_for_field(rho, omega, SolutionStrategy.custom((c,)))
    V = Y - X
    _, defect = invariance_defect(T, V)
    dtd = deformation_derivative(T, Y) - deformation_derivative(T, X)
    print(f"  c = {c:>5}: invariance defect of X' - X = {defect:.6f} (= |c|), "
          f"sup|Tdot' - Tdot| = {max(f.max_abs for f in dtd.components):.6f}")

print("\non the identity map every field is invariant, and Tdot vanishes:")
identity = TorusMap(grid, [[1]])
_, defect = invariance_defect(identity, X)
td = deformation_derivative(identity, X)
print(f"  defect = {defect:.2e}, sup|Tdot| = {max(f.max_abs for f in td.components):.2e}")

# 2-torus: an exact addition d(alpha) changes X without touching the response
grid2 = TorusGrid((64, 64))
omega2 = VolumeDensity.lebesgue(grid2)
rho2 = ScalarField.from_modes(grid2, [[1, 0, 1.0, 0.0]])
alpha = ScalarField.from_modes(grid2, [[0, 1, 0.0, 1.0]])
X2 = solve_for_field(rho2, omega2)
X2a = solve_for_field(rho2, omega2, SolutionStrategy.custom((0.0, 0.0), alpha))
change = max((a - b).max_abs for a, b in zip(X2a.components, X2.components))
rep = response_check(omega2, rho2, X2a, [2e-3, 1e-3, 5e-4], steps=10)
print(f"\n2-torus d(alpha) addition: |X' - X|_sup = {change:.2f}, "
      f"response order {rep.fitted_order:.2f}, e(t_min) = {rep.errors[-1]:.1e}")
