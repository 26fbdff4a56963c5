"""Beyond first order: carry a density all the way to a target.

Integrating the time-dependent field X_s with i_{X_s} omega_s = theta along
the straight path omega_s = (1-s) omega0 + s omega1 gives a diffeomorphism
psi with psi_* omega0 = omega1 exactly (not just to first order).
Conjugating the doubling map by psi produces a genuinely new expanding map
that preserves the target density; the same trick with the time-one flow of
a small generator builds the warped doubling family used throughout the
test suite.
"""

import numpy as np

from conjresp import (
    ConjugatedMap,
    ScalarField,
    TorusGrid,
    TorusMap,
    VectorFieldT,
    VolumeDensity,
    make_warped_doubling,
    moser_transport,
    transfer_check,
    transported_density,
)

grid = TorusGrid(128)
omega0 = VolumeDensity.lebesgue(grid)
omega1 = VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])  # 1 + 0.5 cos(2 pi x)

transport = moser_transport(omega0, omega1, steps=256)
pushed = transported_density(omega0, transport.inverse_transport)
print("transport from Lebesgue to 1 + 0.5 cos(2 pi x):")
print(f"  max|psi_* eta0 - eta1| = {np.max(np.abs(pushed.eta.values - omega1.eta.values)):.2e}")

doubling = TorusMap(grid, [[2]])
conjugated = ConjugatedMap(doubling, transport.transport, transport.inverse_transport)
residual = transfer_check(conjugated, omega1, 512)
print(f"  conjugated doubling map preserves the target: transfer residual {residual:.2e}")

print("\nwarped doubling from a 0.1 sin(2 pi x) generator:")
fine = TorusGrid(256)
generator = VectorFieldT([ScalarField.from_modes(fine, [[1, 0.0, 0.1]])])
warped = make_warped_doubling(generator)
eta = warped.density.eta
print(f"  invariant density range [{eta.values.min():.3f}, {eta.values.max():.3f}], "
      f"mass {eta.mean:.12f}")
print(f"  construction certificate (transfer residual at 256 points): "
      f"{warped.certificate_residual:.2e}")
print(f"  expansion margin of the lift: {warped.expansion_margin():.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    x = grid.axis_points(0)
    fig, (ax0, ax1) = plt.subplots(1, 2, figsize=(9, 3.2), constrained_layout=True)
    ax0.plot(x, omega1.eta.values, label="target eta1")
    ax0.plot(x, pushed.eta.values, "--", label="transported eta0")
    ax0.legend()
    ax0.set_title("volume transport")
    xs = np.linspace(0, 1, 512, endpoint=False).reshape(-1, 1)
    ax1.plot(xs, conjugated(xs), ".", ms=1, label="conjugated doubling")
    ax1.plot(fine.axis_points(0), warped(fine.points()), ".", ms=1, label="warped doubling")
    ax1.legend(markerscale=8)
    ax1.set_title("new expanding maps")
    fig.savefig("demo04_transport.png", dpi=120)
    print("\nwrote demo04_transport.png")
except ImportError:
    print("\n(matplotlib not available; skipping the figure)")
