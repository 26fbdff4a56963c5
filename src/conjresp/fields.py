"""Uniform periodic grids and real fields on the flat torus.

Everything downstream (form solvers, flows, map deformations) is built from
the objects defined here: scalar fields sampled on uniform grids over
[0, 1)^n with lazily cached Fourier coefficients, vector fields and
(n-1)-forms stored as tuples of scalar components, and strictly positive
unit-mass densities.

Conventions:
  * grid points are x_j = j / N per axis, with n in {1, 2};
  * spectral coefficients are true Fourier coefficients,
    f(x) = sum_k c_k exp(2 pi i k . x), stored in numpy FFT order
    (wavenumbers 0, 1, ..., N/2 - 1, -N/2, ..., -1);
  * off-grid values are the interpolant Re sum_k c_k exp(2 pi i k . x) over
    those wavenumbers (see `sample_coefficients`), for real fields only;
  * 2-d arrays are row-major with axis 0 slowest, matching the serialized
    layout;
  * fields are immutable: every operation returns a new object.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .errors import NormalizationError, PositivityError

MIN_RESOLUTION = 8
MASS_TOL = 1e-6  # allowed |mean - 1| of a density

__all__ = [
    "TorusGrid",
    "ScalarField",
    "VolumeDensity",
    "VectorFieldT",
    "CoVectorForm",
    "gradient",
    "divergence",
    "wrap_difference",
    "field_to_json",
    "field_from_json",
    "field_to_csv",
    "save_field",
    "load_field",
]


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class TorusGrid:
    """Uniform grid on the 1- or 2-torus with per-axis even resolutions."""

    def __init__(self, resolution):
        entries = tuple(resolution) if np.ndim(resolution) else (resolution,)
        if not all(_is_integer(n) for n in entries):
            raise ValueError(f"per-axis resolutions must be integers, got {list(entries)}")
        res = tuple(int(n) for n in entries)
        if len(res) not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {len(res)}")
        for n in res:
            if n < MIN_RESOLUTION or n % 2 != 0:
                raise ValueError(
                    f"per-axis resolution must be even and >= {MIN_RESOLUTION}, got {res}"
                )
        self.resolution = res
        self._points = None

    @property
    def dim(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple:
        return self.resolution

    @property
    def size(self) -> int:
        return math.prod(self.resolution)

    def axis_points(self, axis: int) -> np.ndarray:
        n = self.resolution[axis]
        return np.arange(n) / n

    def meshes(self) -> list:
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        axes = [self.axis_points(i) for i in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def points(self) -> np.ndarray:
        """All grid points as an (size, dim) array in row-major order (cached, read-only)."""
        if self._points is None:
            self._points = np.stack([m.ravel() for m in self.meshes()], axis=1)
            self._points.setflags(write=False)
        return self._points

    def wavenumbers(self, axis: int) -> np.ndarray:
        n = self.resolution[axis]
        return np.fft.fftfreq(n, d=1.0 / n)

    def derivative_symbol(self, axis: int) -> np.ndarray:
        """Fourier symbol of d/dx_axis, 2 pi i k, shaped to broadcast against
        the grid.  The Nyquist mode is zeroed so real fields stay real and
        the operator stays skew-symmetric."""
        n = self.resolution[axis]
        k = self.wavenumbers(axis)
        symbol = (2j * np.pi) * k
        symbol[k == -(n // 2)] = 0.0
        shape = [1] * self.dim
        shape[axis] = n
        return symbol.reshape(shape)

    def laplacian_symbol(self) -> np.ndarray:
        """Fourier symbol of the Laplacian, -4 pi^2 |k|^2, shaped like the grid."""
        ks = [self.wavenumbers(i) for i in range(self.dim)]
        k2 = sum(k**2 for k in np.meshgrid(*ks, indexing="ij"))
        return -4.0 * np.pi**2 * k2

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and self.resolution == other.resolution

    def __hash__(self):
        return hash(self.resolution)

    def __repr__(self):
        return f"TorusGrid(resolution={self.resolution})"


def as_points(points, dim: int) -> np.ndarray:
    """Coerce input to an (M, dim) float array of torus points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of shape (M, {dim}), got {np.shape(points)}")
    return pts


def _half_phases(coords: np.ndarray, n: int):
    """Phases e(k x) = exp(2 pi i k x) for k = 0..n/2 of an even n, as an
    (M, n/2 + 1) array with the Nyquist column k = n/2 replaced by its real
    part cos(pi n x); also returns sin(pi n x).

    One exponential per point; every further block of wavenumbers is the
    filled block times e(filled * x), and that power is squared per block,
    so the table costs log2(n) vector multiplies and no transcendental per
    mode.  It is filled wavenumber-major, so each block is a run of whole
    contiguous rows, and returned as a transposed view.
    """
    half = n // 2
    out = np.empty((half + 1, coords.shape[0]), dtype=complex)
    out[0] = 1.0
    power = np.exp((2j * np.pi) * coords)
    filled = 1
    while filled <= half:
        count = min(filled, half + 1 - filled)
        np.multiply(out[:count], power, out=out[filled:filled + count])
        filled += count
        power = power * power
    nyquist_sin = out[half].imag.copy()
    out[half] = out[half].real
    return out.T, nyquist_sin


def sample_coefficients(grid: TorusGrid, stack: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of several real fields at once.

    ``stack`` has shape (F,) + grid.shape and must hold the coefficients of
    real fields, c_{-k} = conj(c_k) with indices mod N (as `ScalarField`
    coefficients and their spectral derivatives do); ``points`` is (M, dim).
    Returns the (M, F) real array Re sum_k c_k e(k . x) over the FFT-ordered
    wavenumbers, so a Nyquist mode enters with wavenumber -N/2.

    By the symmetry only the rows k0 = 0..N0/2 are summed, rows 0 and N0/2
    once and every other row twice, with the Nyquist phase cos(pi N x) on
    each axis.  In 2-d the term -c_{N0/2,N1/2} sin(pi N0 x0) sin(pi N1 x1)
    restores the corner mode's cos(pi (N0 x0 + N1 x1)).  The 1-d sum is one
    real GEMM of the rows' real and imaginary parts, stacked, with the float
    view of the phase table: Re(c e) = Re c Re e - Im c Im e.  A complex
    GEMM would give the same sum, but with bits that depend on the BLAS
    thread count, and the view copies nothing, as `_half_phases` fills the
    table wavenumber-major.  The 2-d sum is one GEMM over the half rows,
    then one batched matrix-vector product with the full axis-1 phases.
    Sharing the phase tables across the F fields is what keeps flow
    integration cheap.
    """
    pts = as_points(points, grid.dim) % 1.0
    n0 = grid.resolution[0]
    h0 = n0 // 2
    phases0, sin0 = _half_phases(pts[:, 0], n0)
    weights = np.full((h0 + 1,) + (1,) * (grid.dim - 1), 2.0)
    weights[[0, h0]] = 1.0
    rows = stack[:, : h0 + 1] * weights
    count = stack.shape[0]
    if grid.dim == 1:
        # (2F, 2M): columns alternate Re e, Im e
        out = np.concatenate([rows.real, rows.imag]) @ phases0.T.view(float)
        return out[:count, 0::2].T - out[count:, 1::2].T
    n1 = grid.resolution[1]
    h1 = n1 // 2
    half1, sin1 = _half_phases(pts[:, 1], n1)
    phases1 = np.concatenate([half1, half1[:, h1 - 1:0:-1].conj()], axis=1)
    partial = phases0 @ rows.transpose(1, 0, 2).reshape(h0 + 1, count * n1)
    out = (partial.reshape(-1, count, n1) @ phases1[:, :, None])[:, :, 0].real
    out -= np.outer(sin0 * sin1, stack[:, h0, h1].real)
    return out


class ScalarField:
    """Real periodic function sampled on a grid; spectral form cached lazily."""

    def __init__(self, grid: TorusGrid, values):
        values = np.array(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
        self._coefficients = None
        self._max_abs = None
        self._flat = None

    @classmethod
    def from_coefficients(cls, grid: TorusGrid, coefficients) -> "ScalarField":
        coefficients = np.array(coefficients, dtype=complex)
        if coefficients.shape != grid.shape:
            raise ValueError(
                f"coefficient shape {coefficients.shape} does not match grid {grid.shape}"
            )
        values = np.fft.ifftn(coefficients).real * grid.size
        field = cls(grid, values)
        coefficients.setflags(write=False)
        field._coefficients = coefficients
        return field

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "ScalarField":
        return cls(grid, fn(*grid.meshes()))

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_modes(cls, grid: TorusGrid, modes) -> "ScalarField":
        """Band-limited field from entries [k1(,k2), re, im], each adding
        re*cos(2 pi k.x) + im*sin(2 pi k.x).  Each entry is a list (or tuple)
        of integer wavenumbers and numeric amplitudes; booleans are neither."""
        if not isinstance(modes, (list, tuple)):
            raise ValueError(f"mode list must be a list of entries, got {modes!r}")
        out = np.zeros(grid.shape)
        meshes = grid.meshes()
        for entry in modes:
            if (not isinstance(entry, (list, tuple)) or len(entry) != grid.dim + 2
                    or not all(_is_integer(k) for k in entry[: grid.dim])
                    or not all(isinstance(a, numbers.Real) and not isinstance(a, bool)
                               for a in entry[grid.dim :])):
                raise ValueError(
                    f"mode entry must be a list [k..., re, im] with {grid.dim} integer "
                    f"wavenumber(s) and 2 numeric amplitudes, got "
                    f"{json.dumps(entry, default=repr)}"
                )
            kvec, re, im = entry[: grid.dim], float(entry[-2]), float(entry[-1])
            phase = 2.0 * np.pi * sum(k * m for k, m in zip(kvec, meshes))
            out += re * np.cos(phase) + im * np.sin(phase)
        return cls(grid, out)

    @property
    def coefficients(self) -> np.ndarray:
        if self._coefficients is None:
            c = np.fft.fftn(self.values) / self.grid.size
            c.setflags(write=False)
            self._coefficients = c
        return self._coefficients

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def max_abs(self) -> float:
        if self._max_abs is None:
            self._max_abs = float(np.max(np.abs(self.values)))
        return self._max_abs

    def derivative(self, axis: int) -> "ScalarField":
        """Spectral partial derivative (see `TorusGrid.derivative_symbol`)."""
        if not 0 <= axis < self.grid.dim:
            raise ValueError(f"axis {axis} out of range for a {self.grid.dim}-d field")
        return ScalarField.from_coefficients(
            self.grid, self.coefficients * self.grid.derivative_symbol(axis)
        )

    def sample(self, points) -> np.ndarray:
        """Trigonometric interpolation at arbitrary points (reduced mod 1).
        A field whose only nonzero coefficient is its mean returns that
        value, which is exactly what the interpolation sum gives there."""
        if self._flat is None:
            self._flat = not self.coefficients.ravel()[1:].any()
        if self._flat:
            count = as_points(points, self.grid.dim).shape[0]
            return np.full(count, self.coefficients.flat[0].real)
        return sample_coefficients(self.grid, self.coefficients[None], points)[:, 0]

    def _binary(self, other, op):
        if isinstance(other, ScalarField):
            _require_same_grid(self, other)
            return ScalarField(self.grid, op(self.values, other.values))
        return ScalarField(self.grid, op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return ScalarField(self.grid, float(other) - self.values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def __truediv__(self, other):
        """Pointwise quotient; a field denominator must live on the same
        grid and be strictly positive."""
        if isinstance(other, ScalarField):
            _require_positive(other, "quotient denominator")
        return self._binary(other, np.divide)

    def __repr__(self):
        return f"ScalarField(grid={self.grid!r}, mean={self.mean:.3g}, max_abs={self.max_abs:.3g})"


def _require_same_grid(*objects):
    grids = {obj.grid for obj in objects}
    if len(grids) > 1:
        raise ValueError(f"operands live on different grids: {sorted(g.resolution for g in grids)}")


def _require_positive(f: ScalarField, what: str) -> None:
    """Raise PositivityError, naming the minimum and where it sits, unless
    f is strictly positive at every grid point."""
    minimum = float(f.values.min())
    if minimum <= 0.0:
        idx = np.unravel_index(int(np.argmin(f.values)), f.values.shape)
        location = tuple(int(i) / n for i, n in zip(idx, f.grid.resolution))
        raise PositivityError(
            f"{what} must be strictly positive; minimum {minimum:.6g} "
            f"at grid point {location}",
            minimum,
            location,
        )


def wrap_difference(delta: np.ndarray) -> np.ndarray:
    """Shortest-lift representative of a torus-valued difference, in
    [-1/2, 1/2]: `np.round` rounds ties to even, so 0.5 stays 0.5."""
    return delta - np.round(delta)


def mod1(x: np.ndarray) -> np.ndarray:
    """x reduced into [0, 1); ``x % 1.0`` alone gives 1.0 for x = -1e-17."""
    reduced = x % 1.0
    return np.where(reduced == 1.0, 0.0, reduced)


class VolumeDensity:
    """Strictly positive density of unit total mass (a volume form over Lebesgue)."""

    def __init__(self, eta: ScalarField):
        _require_positive(eta, "density")
        mean = eta.mean
        if abs(mean - 1.0) > MASS_TOL:
            raise NormalizationError(
                f"density must have unit mass; mean is {mean!r}", mean
            )
        self.eta = eta

    @property
    def grid(self) -> TorusGrid:
        return self.eta.grid

    @classmethod
    def lebesgue(cls, grid: TorusGrid) -> "VolumeDensity":
        return cls(ScalarField.constant(grid, 1.0))

    @classmethod
    def from_modes(cls, grid: TorusGrid, modes) -> "VolumeDensity":
        """Density 1 + sum of the given modes (the constant part is implied)."""
        return cls(ScalarField.from_modes(grid, modes) + 1.0)

    def __repr__(self):
        return f"VolumeDensity(grid={self.grid!r}, min={float(self.eta.values.min()):.3g})"


class _ComponentTuple:
    """Shared mechanics for objects stored as a tuple of scalar components."""

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("at least one component required")
        _require_same_grid(*components)
        if len(components) != components[0].grid.dim:
            raise ValueError(
                f"expected {components[0].grid.dim} components, got {len(components)}"
            )
        self.components = components

    @property
    def grid(self) -> TorusGrid:
        return self.components[0].grid

    @property
    def dim(self) -> int:
        return len(self.components)

    def _combine(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        _require_same_grid(self, other)
        return type(self)([op(a, b) for a, b in zip(self.components, other.components)])

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        return type(self)([c * float(scalar) for c in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)([-c for c in self.components])


class VectorFieldT(_ComponentTuple):
    """Periodic vector field; on the parallelizable torus the same container
    also represents sections over a map (one R^n value per source point)."""

    @classmethod
    def zero(cls, grid: TorusGrid) -> "VectorFieldT":
        return cls([ScalarField.constant(grid, 0.0) for _ in range(grid.dim)])

    @classmethod
    def from_arrays(cls, grid: TorusGrid, arrays) -> "VectorFieldT":
        return cls([ScalarField(grid, a) for a in arrays])

    @property
    def sup_norm(self) -> float:
        return max(c.max_abs for c in self.components)

    def values_matrix(self) -> np.ndarray:
        """Component values at all grid points, as an (size, dim) array."""
        return np.stack([c.values.ravel() for c in self.components], axis=1)

    def sample(self, points) -> np.ndarray:
        stack = np.stack([c.coefficients for c in self.components])
        return sample_coefficients(self.grid, stack, points)


class CoVectorForm(_ComponentTuple):
    """(n-1)-form: a single 0-form f on the 1-torus, or a pair (a, b)
    representing a dx + b dy on the 2-torus.  Only `flux` and `from_flux`
    know this layout; d theta = div(theta.flux()) vol in any dimension."""

    @classmethod
    def zero(cls, grid: TorusGrid) -> "CoVectorForm":
        return cls([ScalarField.constant(grid, 0.0) for _ in range(grid.dim)])

    def flux(self) -> VectorFieldT:
        """The field J with i_J vol = theta: f on the 1-torus, (b, -a) for
        theta = a dx + b dy."""
        if self.dim == 1:
            return VectorFieldT(self.components)
        a, b = self.components
        return VectorFieldT((b, -a))

    @classmethod
    def from_flux(cls, J: VectorFieldT) -> "CoVectorForm":
        """The form i_J vol; inverse of `flux`."""
        if J.dim == 1:
            return cls(J.components)
        j1, j2 = J.components
        return cls((-j2, j1))


def gradient(u: ScalarField) -> VectorFieldT:
    return VectorFieldT([u.derivative(i) for i in range(u.grid.dim)])


def divergence(v: VectorFieldT) -> ScalarField:
    out = v.components[0].derivative(0)
    for i in range(1, v.dim):
        out = out + v.components[i].derivative(i)
    return out


# -- serialization ----------------------------------------------------------

def field_to_json(field: ScalarField) -> dict:
    return {
        "dim": field.grid.dim,
        "resolution": list(field.grid.resolution),
        "values": field.values.ravel().tolist(),
    }


def field_from_json(obj: dict) -> ScalarField:
    expected = {"dim", "resolution", "values"}
    if set(obj) != expected:
        raise ValueError(f"field object must have keys {sorted(expected)}, got {sorted(obj)}")
    grid = TorusGrid(obj["resolution"])
    if grid.dim != int(obj["dim"]):
        raise ValueError("dim does not match resolution length")
    values = np.asarray(obj["values"], dtype=float).reshape(grid.shape)
    return ScalarField(grid, values)


def field_to_csv(field: ScalarField) -> str:
    """One row per grid point: coordinates then value, 17 significant digits."""
    names = [f"x{i + 1}" for i in range(field.grid.dim)]
    lines = [",".join(names + ["value"])]
    pts = field.grid.points()
    flat = field.values.ravel()
    for row, v in zip(pts, flat):
        coords = ",".join(f"{x:.17g}" for x in row)
        lines.append(f"{coords},{v:.17g}")
    return "\n".join(lines) + "\n"


def save_field(field: ScalarField, path, fmt: str = "json") -> None:
    if fmt == "json":
        with open(path, "w") as handle:
            json.dump(field_to_json(field), handle)
            handle.write("\n")
    elif fmt == "csv":
        with open(path, "w") as handle:
            handle.write(field_to_csv(field))
    else:
        raise ValueError(f"unknown field format {fmt!r}")


def load_field(path) -> ScalarField:
    with open(path) as handle:
        return field_from_json(json.load(handle))
