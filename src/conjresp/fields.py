"""Uniform periodic grids and real fields on the flat torus.

Everything downstream (form solvers, flows, map deformations) is built from
the objects defined here: scalar fields sampled on uniform grids over
[0, 1)^n with lazily cached Fourier coefficients, vector fields stored as
tuples of scalar components, (n-1)-forms held by their flux, a vector field
(`flux_of_form`), and strictly positive unit-mass densities.

Conventions:
  * grid points are x_j = j / N per axis, with n in {1, 2};
  * spectral coefficients are true Fourier coefficients,
    f(x) = sum_k c_k exp(2 pi i k . x), stored in numpy FFT order
    (wavenumbers 0, 1, ..., N/2 - 1, -N/2, ..., -1);
  * off-grid values are the interpolant Re sum_k c_k exp(2 pi i k . x) over
    those wavenumbers (see `sample_coefficients`), for real fields only,
    summed over the band of the nonzero coefficients: wavenumbers whose
    coefficients are exactly 0 add nothing, and an axis that is exactly 0
    from |k| = N/4 on is cut before the sum;
  * mode-list fields (`ScalarField.from_modes`) hold their exact
    coefficients, every one outside the listed +/-k and k = 0 exactly 0;
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


def _half_phases(coords: np.ndarray, n: int) -> np.ndarray:
    """Phases e(k x) = exp(2 pi i k x) for k = 0..n/2 of an even n, as an
    (M, n/2 + 1) array with the Nyquist column k = n/2 replaced by its real
    part cos(pi n x).

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
    out[half] = out[half].real
    return out.T


def _cos_sin(coords: np.ndarray, n: int) -> np.ndarray:
    """cos(2 pi k x) in rows k = 0..n/2 and sin(2 pi k x) in rows
    n/2 + 1 + k of one real (n + 2, M) table, for an even n.

    One cosine and one sine per point, then the three-term recurrence
    f_k = 2 cos(2 pi x) f_{k-1} - f_{k-2}, which cos(2 pi k x) and
    sin(2 pi k x) both obey, one row at a time: each step reads two
    contiguous rows of M values and writes the next in place, with no
    temporary.  Its error grows with k where sin(2 pi x) is near 0
    (Gautschi, SIAM Rev. 9, 1967): at most about 1e-13 at n = 64 and
    1e-12 at n = 256.
    """
    half = n // 2
    out = np.empty((2, half + 1, coords.shape[0]))
    cos, sin = out
    cos[0], sin[0] = 1.0, 0.0
    angle = (2.0 * np.pi) * coords
    cos[1], sin[1] = np.cos(angle), np.sin(angle)
    twice = 2.0 * cos[1]
    for rows in (list(cos), list(sin)):
        for before, last, row in zip(rows, rows[1:], rows[2:]):
            np.multiply(last, twice, out=row)
            row -= before
    return out.reshape(n + 2, -1)


def _band(stack: np.ndarray) -> np.ndarray:
    """``stack`` cut, axis by axis, to the band of its nonzero coefficients.

    An axis of length N whose coefficients are all exactly zero at every
    |k| >= N/4 is cut to the even length 2K + 2, K the largest |k| with a
    nonzero coefficient: wavenumbers 0..K, then the slot of -(K + 1), which
    becomes the Nyquist slot and holds 0, then -K..-1.  The interpolation
    sum of the cut stack is the same sum.  Any other axis is kept whole, so
    a stack with a nonzero coefficient at N/4 or above on every axis, such
    as every flow-map factor, is returned as it came.  Only exact zeros are
    cut; there is no threshold.  Before the scan one coefficient is read,
    the first field's at k = N/2 - 1 on the axis and 0 on the others: FFT
    round-off makes it nonzero in nearly every full-band stack, which then
    costs about a microsecond, and a stack whose probe is 0 is scanned.
    (Some 1-d stacks of the circle maps hold exact zeros at k = N/4, or at
    every odd k.)
    """
    for axis in range(1, stack.ndim):
        n = stack.shape[axis]
        edge = -(-n // 4)  # the smallest |k| >= n/4
        probe = [0] * stack.ndim
        probe[axis] = max(edge, n // 2 - 1)
        if stack[tuple(probe)] or stack[(slice(None),) * axis + (slice(edge, n - edge + 1),)].any():
            continue
        others = tuple(a for a in range(stack.ndim) if a != axis)
        occupied = np.flatnonzero(stack.any(axis=others))
        top = int(np.minimum(occupied, n - occupied).max(initial=0))
        if 2 * top + 2 < n:
            stack = stack.take([*range(top + 1), *range(n - top - 1, n)], axis=axis)
    return stack


def sample_coefficients(grid: TorusGrid, stack: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of several real fields at once.

    ``stack`` has shape (F,) + grid.shape and holds Fourier coefficients in
    FFT order; ``points`` is (M, dim).  Returns the (M, F) real array
    Re sum_k c_k e(k . x) over the FFT-ordered wavenumbers, so a Nyquist
    mode enters with wavenumber -N/2; the F fields share the phase tables.
    The sum runs over the stack's band (`_band`), so a mode-list field with
    |k| <= 2 is summed over an axis of length 6, not N; the sizes below are
    those of the cut stack, and only ``grid.dim`` is read from ``grid``.

    1-d: real fields only, c_{-k} = conj(c_k) (as `ScalarField`
    coefficients and their spectral derivatives are), so only k = 0..N/2
    are summed, 0 and N/2 once and the others twice, with the Nyquist phase
    cos(pi N x): one real GEMM of the rows' stacked real and imaginary
    parts with the float view of the `_half_phases` table (Re(c e) = Re c
    Re e - Im c Im e), which copies nothing.  A complex GEMM gives the same
    sum with bits that depend on the BLAS thread count.

    2-d and up: the real separable form.  On each axis e(k x) = C_|k| +
    i sgn(k) S_|k|, C_j = cos(2 pi j x) and S_j = sin(2 pi j x), j =
    0..N/2, so `_fold`, applied to every axis (the last in real
    arithmetic), turns c once per call into the real weights of the
    products of the axes' real `_cos_sin` tables; they take in the negative
    wavenumbers, the Nyquist rows and the corner modes (in 2-d the corner's
    cos(pi (N0 x0 + N1 x1)) as +c C C - c S S), and need no symmetry of c.
    Then one real GEMM on the last axis, (F (N0 + 2) ..., N_last + 2) @
    (N_last + 2, M), and one per-point einsum, which calls no BLAS, with
    the other axes' tables: in 2-d about N0 N1 multiply-adds per point and
    field.  The GEMM keeps the weights on its left and the points on its
    columns: with the table on the left, its bits depended on the BLAS
    thread count on 32 of the 75 shapes of the 2-d thread test (32 x 16 to
    256 x 256).  Each table is filled row by row by the three-term
    recurrence, from one cosine and one sine per point.
    """
    pts = as_points(points, grid.dim)
    pts = pts - np.floor(pts)
    stack = _band(stack)
    if grid.dim == 1:
        count, n = stack.shape
        half = n // 2
        weights = np.full(half + 1, 2.0)
        weights[[0, half]] = 1.0
        rows = stack[:, : half + 1] * weights
        # (2F, 2M): columns alternate Re e, Im e
        out = np.concatenate([rows.real, rows.imag]) @ _half_phases(pts[:, 0], n).T.view(float)
        return out[:count, 0::2].T - out[count:, 1::2].T
    last = grid.dim
    folded = stack
    for axis in range(1, last + 1):
        folded = _fold(folded, axis, real=axis == last)
    partial = folded.reshape(-1, folded.shape[-1]) @ _cos_sin(pts[:, -1], stack.shape[-1])
    # the other axes' tables in one einsum: (f, a, ..., m), (a, m), ... -> (m, f)
    operands = [partial.reshape(folded.shape[:-1] + (-1,)), list(range(last + 1))]
    for axis in range(1, last):
        operands += [_cos_sin(pts[:, axis - 1], stack.shape[axis]), [axis, last]]
    return np.einsum(*operands, [last, 0])


def _fold(coefficients: np.ndarray, axis: int, real: bool = False) -> np.ndarray:
    """``coefficients`` with ``axis`` (FFT order, even length N) folded into
    N + 2 slots with the same sum, the weights of C_0..C_N/2 and then of
    S_0..S_N/2 (C_j = cos(2 pi j x), S_j = sin(2 pi j x)): c_0, c_j + c_-j
    and c_-N/2 on C_j, and 0, i (c_j - c_-j) and -i c_-N/2 on S_j, for j =
    0, 0 < j < N/2 and N/2.  With ``real`` only their real parts, in real
    arithmetic: Re(i (z_j - z_-j)) = Im z_-j - Im z_j and Re(-i z) = Im z."""
    n = coefficients.shape[axis]
    half = n // 2
    shape = coefficients.shape[:axis] + (n + 2,) + coefficients.shape[axis + 1 :]
    out = np.empty(shape, dtype=float if real else complex)
    # both with the folded axis swapped to the front, as views
    c, folded = coefficients.swapaxes(0, axis), out.swapaxes(0, axis)
    on_cos, on_sin = folded[: half + 1], folded[half + 1 :]
    even = c.real if real else c
    on_cos[0], on_cos[half], on_sin[0] = even[0], even[half], 0.0
    np.add(even[1:half], even[:half:-1], out=on_cos[1:half])
    if real:
        on_sin[half] = c.imag[half]
        np.subtract(c.imag[:half:-1], c.imag[1:half], out=on_sin[1:half])
    else:
        on_sin[half] = -1j * c[half]
        np.subtract(c[1:half], c[:half:-1], out=on_sin[1:half])
        on_sin[1:half] *= 1j
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
        of integer wavenumbers and numeric amplitudes; booleans are neither.
        Every wavenumber must lie below N/2 in size on its axis, so that the
        grid holds the mode (a ValueError names the entry otherwise).  The
        coefficients are exact, (re -/+ i im)/2 at +/-k and re at k = 0, and
        every other one is exactly 0; the values are their inverse FFT."""
        return cls.from_coefficients(grid, _mode_coefficients(grid, modes))

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


def _mode_coefficients(grid: TorusGrid, modes) -> np.ndarray:
    """The exact Fourier coefficients of a mode list (`ScalarField.from_modes`)."""
    if not isinstance(modes, (list, tuple)):
        raise ValueError(f"mode list must be a list of entries, got {modes!r}")
    out = np.zeros(grid.shape, dtype=complex)
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
        kvec, re, im = tuple(entry[: grid.dim]), float(entry[-2]), float(entry[-1])
        if any(2 * abs(k) >= n for k, n in zip(kvec, grid.resolution)):
            raise ValueError(
                f"mode entry {json.dumps(entry, default=repr)} does not fit the grid: "
                f"each |k| must be below N/2, and N = {list(grid.resolution)}"
            )
        if any(kvec):
            out[kvec] += complex(re, -im) / 2.0
            out[tuple(-k for k in kvec)] += complex(re, im) / 2.0
        else:
            out[kvec] += re
    return out


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
    """x reduced into [0, 1) as x - floor(x): one rounding, as in
    ``x % 1.0``, so the same bits up to the sign of a zero, at a fraction
    of the cost.  Either gives 1.0 for x = -1e-17, which is mapped to 0.0."""
    reduced = x - np.floor(x)
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
        """Density 1 + sum of the given modes (the constant part is implied),
        its 1 added to the exact coefficient at k = 0 (`ScalarField.from_modes`)."""
        coefficients = _mode_coefficients(grid, modes)
        coefficients.flat[0] += 1.0
        return cls(ScalarField.from_coefficients(grid, coefficients))

    def __repr__(self):
        return f"VolumeDensity(grid={self.grid!r}, min={float(self.eta.values.min()):.3g})"


class VectorFieldT:
    """Periodic vector field, a tuple of scalar components; on the
    parallelizable torus it also represents sections over a map (one R^n
    value per source point) and (n-1)-forms theta, by their flux J,
    i_J vol = theta (`flux_of_form`), so d theta = div(J) vol."""

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

    @classmethod
    def zero(cls, grid: TorusGrid) -> "VectorFieldT":
        """The field with every component 0."""
        return cls([ScalarField.constant(grid, 0.0) for _ in range(grid.dim)])

    @classmethod
    def from_arrays(cls, grid: TorusGrid, arrays) -> "VectorFieldT":
        return cls([ScalarField(grid, a) for a in arrays])

    @property
    def grid(self) -> TorusGrid:
        return self.components[0].grid

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def sup_norm(self) -> float:
        return max(c.max_abs for c in self.components)

    def values_matrix(self) -> np.ndarray:
        """Component values at all grid points, as an (size, dim) array."""
        return np.stack([c.values.ravel() for c in self.components], axis=1)

    def sample(self, points) -> np.ndarray:
        stack = np.stack([c.coefficients for c in self.components])
        return sample_coefficients(self.grid, stack, points)

    def _combine(self, other, op):
        if not isinstance(other, VectorFieldT):
            return NotImplemented
        _require_same_grid(self, other)
        return VectorFieldT([op(a, b) for a, b in zip(self.components, other.components)])

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        return VectorFieldT([c * float(scalar) for c in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return VectorFieldT([-c for c in self.components])


def flux_of_form(parts) -> VectorFieldT:
    """The flux J, i_J vol = theta, of the (n-1)-form theta of components
    ``parts``: J = f for f on the 1-torus, (b, -a) for a dx + b dy."""
    parts = tuple(parts)
    return VectorFieldT((parts[1], -parts[0]) if len(parts) == 2 else parts)


def form_of_flux(J: VectorFieldT) -> tuple:
    """The components of the (n-1)-form i_J vol, inverse of `flux_of_form`:
    J itself on the 1-torus, (a, b) = (-J_1, J_0) on the 2-torus."""
    return (-J.components[1], J.components[0]) if J.dim == 2 else J.components


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
