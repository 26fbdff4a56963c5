"""RK4 builds of the flow maps' grid system, the tests' oracle for the
series builds: no map in the package steps its grid system, so the system's
rate lives here, on the package's one advection product."""

import numpy as np

from conjresp import flow


def grid_rate(G, velocity, shear):
    """The rates X + G X and DX + G DX + (X . grad) G of `flow_map`'s grid
    system at gradients G, (B, n, n) + grid.shape, as (B, n + n^2) +
    grid.shape.  X and DX, ``velocity`` and ``shear``, are (n,) +
    grid.shape and (n, n) + grid.shape for all entries, or one per entry;
    (X . grad) G is `flow._advection`."""
    n, shape = G.shape[1], G.shape[3:]
    batch = "b" if velocity.ndim > n + 1 else ""
    dD = velocity + np.einsum(f"bik...,{batch}k...->bi...", G, velocity)
    dG = shear + np.einsum(f"bik...,{batch}kj...->bij...", G, shear)
    flow._advection(G, velocity.reshape((-1, n, 1, 1) + shape).swapaxes(0, 1), dG)
    return np.concatenate([dD, dG.reshape((-1, n * n) + shape)], axis=1)


def flow_factor(grid, field, times, steps: int, starts=0.0) -> np.ndarray:
    """D and G of the factors phi = id + D, one per entry of ``times``, each
    flowing its field from its start (``starts``, one for all or one per
    entry) over its time, stacked as (len(times), n + n^2) + grid.shape (G
    row by row): ``steps`` RK4 substeps (`flow._rk4`) of `grid_rate` on one
    batched state.  ``field(s)`` gives X and DX at the grid points at the
    stage times s, (len(times), 1) + (1,) * n: (n,) + grid.shape and (n, n)
    + grid.shape for every entry (an autonomous field), or one per entry."""
    n = grid.dim

    def stage(s):
        X = field(s)
        return lambda state: grid_rate(state[:, n:].reshape((-1, n, n) + grid.shape), *X)

    # one step size and start per batch entry, broadcast over its state
    shape = (-1,) + (1,) * (n + 1)
    h = (np.asarray(times, dtype=float) / steps).reshape(shape)
    s0 = np.asarray(starts, dtype=float).reshape(shape)
    return flow._rk4(stage, np.zeros((h.shape[0], n + n * n) + grid.shape), s0, h, steps)


def moser_field(transport):
    """s -> (V_s, DV_s) at the grid points of a `MoserFlow`'s factors, V_s =
    -X_s = -flux / eta_s, taken from theta (held by its flux) and the two
    densities by the quotient rule, at times s of shape (B, 1) + (1,) * n."""
    grid, n = transport.grid, transport.grid.dim
    fields = list(transport.theta.components) + [transport.omega0.eta, transport.omega1.eta]
    values = np.stack([f.values for f in fields])
    gradients = np.stack([[f.derivative(j).values for j in range(n)] for f in fields])

    def field(s):
        es = (1.0 - s) * values[n] + s * values[n + 1]
        des = (1.0 - s) * gradients[n] + s * gradients[n + 1]
        velocity = values[:n] / es
        shear = (gradients[:n] - velocity[:, :, None] * des[:, None]) / es[:, None]
        return -velocity, -shear

    return field


def moser_factors(transport, steps: int, indices=None) -> dict:
    """{t: states} for t = 1 (phi_{0->1}) and -1 (phi_{1->0}) of a
    `MoserFlow`: the factors at ``indices`` (all by default) in the order
    each map applies them, as (n + n^2,) + grid.shape states of ``steps``
    RK4 substeps each, all in one batch.  A forward factor flows from its
    end to its start, an inverse one from its start to its end, and
    phi_{1->0} applies its factors from s = 1 down."""
    m = transport.submaps
    indices = range(m) if indices is None else indices
    ends = np.arange(m + 1) / m
    starts = [ends[i + 1] for i in indices] + [ends[m - 1 - i] for i in indices]
    times = [-1.0 / m] * len(indices) + [1.0 / m] * len(indices)
    states = flow_factor(transport.grid, moser_field(transport), times, steps, starts)
    return {1.0: states[:len(indices)], -1.0: states[len(indices):]}
